"""The paper's primary contribution: epsilon-approximate stream mining.

Quantile estimation (Greenwald-Khanna summaries in an exponential
histogram), frequency estimation (Manku-Motwani lossy counting plus
baselines), sliding-window variants of both, and the
:class:`StreamMiner` engine that drives them off GPU-sorted windows.
"""

from .aggregates import CorrelatedSum
from .distinct import (FlajoletMartin, KMinValues, WindowedDistinctCounter,
                       hash_values)
from .engine import EngineReport, StreamMiner
from .frequencies import (CountMinSketch, HierarchicalHeavyHitters,
                          LossyCounting, MisraGries, SpaceSaving,
                          StickySampling)
from .histograms import (EquiDepthHistogram, HistogramBucket,
                         VOptimalHistogram, WindowHistogram,
                         histogram_from_sorted)
from .quantiles import (DDSketch, GKSummary, KLLSketch, QuantileSummary,
                        SensorNode, TDigest, aggregate)
from .sliding import (DgimCounter, DgimSum, SlidingWindowFrequencies,
                      SlidingWindowQuantiles, StreamingQuantiles)

__all__ = [
    "CorrelatedSum",
    "CountMinSketch",
    "DDSketch",
    "DgimCounter",
    "DgimSum",
    "EquiDepthHistogram",
    "FlajoletMartin",
    "EngineReport",
    "GKSummary",
    "KLLSketch",
    "HierarchicalHeavyHitters",
    "HistogramBucket",
    "KMinValues",
    "LossyCounting",
    "MisraGries",
    "QuantileSummary",
    "SensorNode",
    "SlidingWindowFrequencies",
    "SlidingWindowQuantiles",
    "SpaceSaving",
    "StickySampling",
    "StreamMiner",
    "StreamingQuantiles",
    "TDigest",
    "VOptimalHistogram",
    "WindowHistogram",
    "WindowedDistinctCounter",
    "aggregate",
    "hash_values",
    "histogram_from_sorted",
]
