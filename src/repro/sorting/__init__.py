"""Sorting: the paper's primary computational component.

Section 3.2: "Among these three operations, the sorting operation used
for histogram computation is the most expensive operation" (70-95% of the
total time).  This package provides the paper's GPU PBSN sorter, the
prior GPU bitonic baseline, instrumented CPU quicksort baselines, the
pure comparator-network definitions used for verification, and the
CPU-side merge of the four channel runs.
"""

from .bitonic import (INSTRUCTIONS_PER_PIXEL, bitonic_sort_texture,
                      build_bitonic_stage_program,
                      measured_instructions_per_pixel)
from .cpu import (INSERTION_CUTOFF, InstrumentedCpuSorter, SortStats,
                  optimized_sort, quicksort)
from .gpu_sorter import GpuSorter, pack_channels, unpack_channels
from .merge import (merge_comparison_count, merge_sorted_runs,
                    merge_two_sorted)
from .networks import (apply_comparators, bitonic_steps, is_power_of_two,
                       network_comparison_count, next_power_of_two,
                       odd_even_merge_steps, pbsn_step, pbsn_steps,
                       run_network)
from .selection import (gpu_kth_largest, gpu_kth_smallest, quickselect)
from .pbsn import (compute_max, compute_min, compute_row_max,
                   compute_row_min, pbsn_sort_texture, sort_step)

__all__ = [
    "INSERTION_CUTOFF",
    "INSTRUCTIONS_PER_PIXEL",
    "GpuSorter",
    "InstrumentedCpuSorter",
    "SortStats",
    "apply_comparators",
    "bitonic_sort_texture",
    "bitonic_steps",
    "build_bitonic_stage_program",
    "compute_max",
    "compute_min",
    "compute_row_max",
    "compute_row_min",
    "gpu_kth_largest",
    "gpu_kth_smallest",
    "is_power_of_two",
    "measured_instructions_per_pixel",
    "merge_comparison_count",
    "merge_sorted_runs",
    "merge_two_sorted",
    "network_comparison_count",
    "next_power_of_two",
    "odd_even_merge_steps",
    "optimized_sort",
    "pack_channels",
    "pbsn_sort_texture",
    "pbsn_step",
    "pbsn_steps",
    "quickselect",
    "quicksort",
    "run_network",
    "sort_step",
    "unpack_channels",
]
