"""The sorting-backend registry: the single construction point for sorters.

Every component that needs a sorting backend — the stream-mining engine,
the sharded service's primary/fallback pair, the CLI, the benchmark
harness — resolves it here by name.  Nothing outside this module
instantiates :class:`~repro.sorting.gpu_sorter.GpuSorter` or
:class:`~repro.sorting.cpu.InstrumentedCpuSorter` directly (enforced by
a test), so adding a backend, or swapping one in for degradation, is a
registry operation rather than a code change at N call sites.

Built-in names:

``gpu`` / ``gpu-pbsn``
    The simulated GPU running the paper's periodic balanced sorting
    network (Section 4.1).  Honours ``device``, ``network`` and
    ``precision`` keyword arguments.
``gpu-bitonic``
    The same device running the prior bitonic baseline (Purcell et al.).
``gpu-16``
    The PBSN path on 16-bit offscreen buffers (Section 5's double
    buffered configuration).
``cpu`` / ``cpu-quicksort``
    The instrumented CPU quicksort baseline.  Honours ``cpu_speedup``
    (1.0 = MSVC build, 1.5 = the paper's Intel build).  Its wall clock
    is ``np.sort``; the cost model charges the 2005 quicksort.

Custom backends register a factory::

    >>> from repro.backends import register_sorter, resolve_sorter
    >>> class Reversing:
    ...     name = "reversing"
    ...     def sort_batch(self, windows):
    ...         return [w[::-1] for w in windows]
    >>> register_sorter("reversing", lambda **kw: Reversing(),
    ...                 replace=True)
    >>> resolve_sorter("reversing").name
    'reversing'

Factories receive every keyword argument passed to
:func:`resolve_sorter` and ignore the ones they do not understand.
"""

from __future__ import annotations

from typing import Any, Callable

from .errors import BackendError
from .sorting.cpu import InstrumentedCpuSorter
from .sorting.gpu_sorter import GpuSorter

__all__ = [
    "cpu_fallback_for",
    "register_sorter",
    "registered_backends",
    "resolve_sorter",
]

#: A factory takes arbitrary keyword options and returns a sorter — any
#: object with ``sort_batch(list[np.ndarray]) -> list[np.ndarray]``.
SorterFactory = Callable[..., Any]

_REGISTRY: dict[str, SorterFactory] = {}


def register_sorter(name: str, factory: SorterFactory, *,
                    replace: bool = False) -> None:
    """Register ``factory`` under ``name`` for :func:`resolve_sorter`.

    Raises :class:`BackendError` if the name is taken and ``replace`` is
    false, so accidental shadowing of a built-in is loud.
    """
    if not isinstance(name, str) or not name:
        raise BackendError(f"backend name must be a non-empty string, "
                           f"got {name!r}")
    if not callable(factory):
        raise BackendError(f"factory for {name!r} is not callable")
    if name in _REGISTRY and not replace:
        raise BackendError(
            f"backend {name!r} is already registered "
            "(pass replace=True to override)")
    _REGISTRY[name] = factory


def registered_backends() -> tuple[str, ...]:
    """Sorted names currently resolvable by :func:`resolve_sorter`."""
    return tuple(sorted(_REGISTRY))


def resolve_sorter(backend: str | Any, **options: Any):
    """Resolve ``backend`` to a sorter instance.

    ``backend`` is either a registered name (``"gpu"``, ``"cpu"``, ...)
    or an already-constructed object exposing ``sort_batch``, which is
    returned unchanged — the escape hatch for tests and custom
    pipelines.  Keyword ``options`` (``device``, ``network``,
    ``precision``, ``cpu_speedup``, ...) are forwarded to the factory;
    each factory picks out what it understands.
    """
    if not isinstance(backend, str):
        if hasattr(backend, "sort_batch"):
            return backend
        raise BackendError(
            f"backend object {backend!r} does not implement sort_batch")
    factory = _REGISTRY.get(backend)
    if factory is None:
        raise BackendError(
            f"unknown backend {backend!r}; registered: "
            f"{', '.join(registered_backends())}")
    return factory(**options)


def cpu_fallback_for(sorter, *, cpu_speedup: float = 1.0):
    """The degradation target for ``sorter``, or ``None`` if none exists.

    The service's circuit breaker degrades a faulting shard to a
    baseline sorter with identical answers, so the swap changes only
    the cost profile.  A backend earns a fallback by declaring a
    ``degrades_to`` registry name; the simulated-GPU sorter keeps its
    historical implicit CPU fallback.  A sorter already on the
    baseline, or a custom backend with unknown semantics, has nowhere
    safe to degrade to — the caller must escalate instead.
    """
    target = getattr(sorter, "degrades_to", None)
    if target is None and isinstance(sorter, GpuSorter):
        target = "cpu"
    if target is None or getattr(sorter, "name", None) in (target, "cpu",
                                                           "cpu-quicksort"):
        return None
    return resolve_sorter(target, cpu_speedup=cpu_speedup)


# ----------------------------------------------------------------------
# built-in backends
# ----------------------------------------------------------------------
def _gpu_factory(network: str = "pbsn", precision: int = 32):
    def build(device=None, network=network, precision=precision,
              **_ignored):
        return GpuSorter(device, network=network, precision=precision)
    return build


def _cpu_factory(cpu_speedup: float = 1.0, **_ignored):
    return InstrumentedCpuSorter(speedup=cpu_speedup)


register_sorter("gpu", _gpu_factory())
register_sorter("gpu-pbsn", _gpu_factory())
register_sorter("gpu-bitonic", _gpu_factory(network="bitonic"))
register_sorter("gpu-16", _gpu_factory(precision=16))
register_sorter("cpu", _cpu_factory)
register_sorter("cpu-quicksort", _cpu_factory)
