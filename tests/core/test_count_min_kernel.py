"""Count-Min's conservative-update kernel against its reference walk.

``count_min.conservative_update`` is a scalar loop over table cells.
The reference below states the same update with per-entry fancy
indexing (the form the sketch used before the loop replaced it).  The
loop must leave the table identical to the reference over adversarial
collisions, seeded fuzz, and a whole sketch fed window by window.
"""

from __future__ import annotations

import numpy as np

from repro.core.frequencies import CountMinSketch
from repro.core.frequencies.count_min import conservative_update
from repro.core.histograms import histogram_from_sorted


def cm_conservative_update_interpreted(table, columns, freqs):
    """Reference conservative update (Estan & Varghese), in place.

    For each histogram entry ``j`` with frequency ``freqs[j]``, raise
    the ``depth`` counters at ``columns[:, j]`` to at most
    ``min(counters) + freq``.  Entries apply sequentially: collision
    order matters, so the walk cannot be data-parallel across ``j``.
    """
    depth = table.shape[0]
    rows = np.arange(depth)
    for j in range(len(freqs)):
        cells = columns[:, j]
        raised = int(table[rows, cells].min()) + int(freqs[j])
        table[rows, cells] = np.maximum(table[rows, cells], raised)


class TestCmGolden:
    def test_collision_heavy_walk(self):
        # Every entry maps to overlapping cells: order dependence is
        # maximal, so any deviation from sequential semantics shows.
        table_a = np.zeros((3, 4), dtype=np.int64)
        table_b = table_a.copy()
        columns = np.array([[0, 0, 1, 0], [1, 1, 1, 2], [2, 3, 2, 2]],
                           dtype=np.int64)
        freqs = np.array([5, 3, 7, 2], dtype=np.int64)
        cm_conservative_update_interpreted(table_a, columns, freqs)
        conservative_update(table_b, columns, freqs)
        assert np.array_equal(table_a, table_b)

    def test_fuzz_against_interpreted(self):
        rng = np.random.default_rng(2005)
        for trial in range(100):
            depth = int(rng.integers(1, 6))
            width = int(rng.integers(1, 16))
            table = rng.integers(0, 40, (depth, width)).astype(np.int64)
            m = int(rng.integers(0, 24))
            columns = rng.integers(0, width, (depth, m)).astype(np.int64)
            freqs = rng.integers(1, 9, m).astype(np.int64)
            want = table.copy()
            got = table.copy()
            cm_conservative_update_interpreted(want, columns, freqs)
            conservative_update(got, columns, freqs)
            assert np.array_equal(want, got)

    def test_sketch_table_matches_reference_walk(self):
        rng = np.random.default_rng(2005)
        heavy = rng.choice(np.arange(8, dtype=np.float32), 10_000)
        tail = np.floor(rng.random(10_000) * 500).astype(np.float32)
        data = np.concatenate([heavy, tail])
        rng.shuffle(data)
        sketch = CountMinSketch(0.01, seed=3)
        want = np.zeros_like(sketch._table)
        for start in range(0, data.size, 256):
            window = np.sort(data[start:start + 256])
            sketch.update_batch(window)
            histogram = histogram_from_sorted(window)
            cm_conservative_update_interpreted(
                want, sketch._row_indices(histogram.values),
                histogram.counts)
        assert np.array_equal(sketch._table, want)
        assert sketch.count == data.size
