"""Epsilon-approximate quantile estimation (paper Sections 2.1 and 5.2).

Alongside the paper's GK machinery live the modern families — DDSketch
(relative error), KLL (compactor levels), t-digest (merging centroids)
— registered as first-class estimator kinds.
"""

from .ddsketch import DDSketch
from .gk import GKSummary
from .kll import KLLSketch
from .sensor import SensorNode, aggregate
from .tdigest import TDigest
from .window import QuantileSummary

__all__ = [
    "DDSketch",
    "GKSummary",
    "KLLSketch",
    "QuantileSummary",
    "SensorNode",
    "TDigest",
    "aggregate",
]
