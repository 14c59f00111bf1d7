"""Pinned digests of the GK04 window-summary path.

Each digest is the sha256 of the canonical JSON of a summary state (or of
a list of sliding-window answers) over seeded uniform, Zipf and
duplicate-heavy streams.  They were recorded from the list-of-entries
implementation that preceded the array layout, so the two agree to the
last value and rank bound: a checkpoint written by either restores under
the other.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from repro.core.sliding import SlidingWindowQuantiles, StreamingQuantiles
from repro.service.sharded import merge_quantile_summaries

N = 20_000
EPS = (0.1, 0.01, 0.005)


def _stream(name: str) -> np.ndarray:
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "uniform":
        return rng.random(N, dtype=np.float32)
    if name == "zipf":
        return np.minimum(rng.zipf(1.3, N), 1e6).astype(np.float32)
    return rng.integers(0, 8, N).astype(np.float32)


def _digest(obj) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _assert_plain_types(state: dict) -> None:
    """Values are Python floats and rank bounds Python ints, as in v1."""
    assert all(type(v) is float for v in state["values"])
    assert all(type(r) is int for r in state["rmins"] + state["rmaxs"])


def _streaming(data: np.ndarray, eps: float) -> StreamingQuantiles:
    window = math.ceil(1.0 / eps)
    estimator = StreamingQuantiles(eps, window)
    for start in range(0, data.size, window):
        estimator.add_sorted_window(np.sort(data[start:start + window]))
    return estimator


def _sharded(data: np.ndarray, eps: float) -> dict:
    """Two shards at eps/2 (alternate windows), merged on query."""
    window = math.ceil(1.0 / eps)
    shards = [StreamingQuantiles(eps / 2.0, window) for _ in range(2)]
    for i, start in enumerate(range(0, data.size, window)):
        shards[i % 2].add_sorted_window(np.sort(data[start:start + window]))
    summaries = [s for shard in shards for s in shard.summaries()]
    return merge_quantile_summaries(summaries, eps).to_state()


def _sliding(data: np.ndarray, eps: float) -> list:
    """Answers of the default sub-window budget and of a tight one that
    makes every sub-window prune drop entries."""
    answers = []
    for sw in (SlidingWindowQuantiles(eps, 4_000, variable=True),
               SlidingWindowQuantiles(eps, 40_000, variable=True,
                                      prune_budget=8)):
        for start in range(0, data.size, 5_000):
            sw.extend(data[start:start + 5_000])
            for width in (4_000, 1_500, 300):
                answers.append([sw.quantile(phi, width)
                                for phi in np.linspace(0.0, 1.0, 11)])
    return answers


DIGESTS = {
    ('sharded', 'duplicates', 0.005):
        'd230611d0741b1323e9e587a146c3079a6762403ace93b7d71926f4f61a3216a',
    ('sharded', 'duplicates', 0.01):
        'adb80ed580bc01feeb16b5559a591cce77a728ec952999bb9fb5dbfe97cd2665',
    ('sharded', 'duplicates', 0.1):
        '0c35ed0c31f4cf8c83459049872950db337b885f16828fea836cdc8026ecdeb1',
    ('sharded', 'uniform', 0.005):
        '576c5e2ccee901224689afe161a4e9b92555d0ae090464626c517fcd25c0774c',
    ('sharded', 'uniform', 0.01):
        '501c6deb9a27580108c68c3f73b645842c226ef869573a684a912686f631cdda',
    ('sharded', 'uniform', 0.1):
        '0b13452f54b1e5e09628be5d9e4ceefedf159b40f1363b1e86a96131f7ecedcd',
    ('sharded', 'zipf', 0.005):
        '567e90265652371125abe522d196f4b082f94b9e66fa03baf137f145517e05ac',
    ('sharded', 'zipf', 0.01):
        '90cac8561bb41310ff89263fecb87de5cde491f69ccb23235b7a7535a3e754ba',
    ('sharded', 'zipf', 0.1):
        '3e3c38b94c0b3134046a735b44ac432dbb91626ecc23ed01f6bcdc8dcdaea8f6',
    ('sliding', 'duplicates', 0.005):
        '320cc9f9fb1e0748c470f8798f7cff5f479d9cfd3b4b942ab58de318df481d94',
    ('sliding', 'duplicates', 0.01):
        '4429496fe89b141b4fc1d52b4e3698f04db2780f13163b0bf2f34fb44b082a96',
    ('sliding', 'duplicates', 0.1):
        '051ee8e144ea40c14142fb267f3a3a762f5fa67483968ba347e680234d684201',
    ('sliding', 'uniform', 0.005):
        '418379d364438667ba09acbfc264a778ff30ce8177b33d9d04d94e3e8d4be198',
    ('sliding', 'uniform', 0.01):
        '25e6afd730d68eefe056f703aec205f7a6ae777fc20cb87ca914d0ac0183ca1b',
    ('sliding', 'uniform', 0.1):
        '05e60085ded5d77fa434204076bdcd27d6ac70f8d2c2412263fef5e94da729e0',
    ('sliding', 'zipf', 0.005):
        'b793b892e02a0b9a6dee691402df7364ab62cd8fbb5b78f041c7ea136356ab20',
    ('sliding', 'zipf', 0.01):
        'd68377b87abf8b011c4b9dcddde7f99dbf5908901bc84b4f91ea17d909dbcbb0',
    ('sliding', 'zipf', 0.1):
        '7f8aa6facf60c474f664df32bfab97287fc9068296124427bf7f158bc165f828',
    ('streaming', 'duplicates', 0.005):
        '4262c8ff61d3c8aedcaccca1aad1dfb749845c80b11ccefcb35e9c6b5c5e1596',
    ('streaming', 'duplicates', 0.01):
        '58b2009e530ce16b0133dd16c28d23a0337b046e830e99e1115658943f01333b',
    ('streaming', 'duplicates', 0.1):
        '9f6d9d07e483b7a04fbb1f0c446f340d84473c54643ae09e9b02a6c24ffa1262',
    ('streaming', 'uniform', 0.005):
        '8aaf8ad95b7c6a2c105a17fcacc316eda942e186ba41e31055e21ba9d9d401b8',
    ('streaming', 'uniform', 0.01):
        '3f885ddb4ae3952479d8dbe225fa2145f2e21a0cf833fefaaea72f31bff47e2e',
    ('streaming', 'uniform', 0.1):
        '494a5ad375d4972199eb7c44eab9930c2b0915b3c597492d2bc65c86b74295fd',
    ('streaming', 'zipf', 0.005):
        '56d846b55f9a5077d84da8985bd8e71a6d85346a9929770fde85b624e541edad',
    ('streaming', 'zipf', 0.01):
        'cbf3f3691806833ad480ba0739d20843e2bd548cb757fd20add6edb017370997',
    ('streaming', 'zipf', 0.1):
        '25aee8d2642e6e60374f243550d47a0db81fdf9de250667bb3431e9396dca04b',
}


CASES = [(name, eps) for name in ("uniform", "zipf", "duplicates")
         for eps in EPS]


@pytest.mark.parametrize("name,eps", CASES)
def test_streaming_state_digest(name, eps):
    state = _streaming(_stream(name), eps).to_state()
    for bucket in state["buckets"].values():
        _assert_plain_types(bucket)
    assert _digest(state) == DIGESTS["streaming", name, eps]


@pytest.mark.parametrize("name,eps", CASES)
def test_merge_on_query_state_digest(name, eps):
    state = _sharded(_stream(name), eps)
    _assert_plain_types(state)
    assert _digest(state) == DIGESTS["sharded", name, eps]


@pytest.mark.parametrize("name,eps", CASES)
def test_sliding_answers_digest(name, eps):
    assert _digest(_sliding(_stream(name), eps)) == \
        DIGESTS["sliding", name, eps]
