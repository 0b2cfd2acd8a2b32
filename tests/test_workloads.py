"""Workload tests: streaming, the congestion points, and the
application kernels that live in ``examples/``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.workloads import measure_streaming_bandwidth

from tests.conftest import load_example

run_stencil = load_example("mpi_stencil").run_stencil
reference_stencil = load_example("mpi_stencil").reference_stencil
run_kv_store = load_example("rma_kv_store").run_kv_store
run_sample_sort = load_example("parallel_sort").run_sample_sort


def test_streaming_reaches_near_peak_bandwidth():
    result = measure_streaming_bandwidth(Cluster(n_nodes=2), 4096,
                                         n_messages=24, window=4)
    assert result.messages == 24
    # windowed streaming beats single-message ping-pong at this size
    assert result.bandwidth_mb_s > 120.0


def test_streaming_window_one_is_slower():
    pipelined = measure_streaming_bandwidth(Cluster(n_nodes=2), 4096,
                                            n_messages=16, window=4)
    serial = measure_streaming_bandwidth(Cluster(n_nodes=2), 4096,
                                         n_messages=16, window=1)
    assert pipelined.bandwidth_mb_s > serial.bandwidth_mb_s * 1.2


@pytest.mark.parametrize("n_ranks,rows", [(2, 16), (4, 32)])
def test_stencil_matches_reference(n_ranks, rows):
    result = run_stencil(Cluster(n_nodes=n_ranks), n_ranks=n_ranks,
                         rows=rows, cols=rows, iterations=4)
    reference = reference_stencil(rows, rows, 4)
    np.testing.assert_allclose(result.grid, reference)
    assert result.elapsed_us > 0


def test_stencil_packed_placement_matches_reference():
    result = run_stencil(Cluster(n_nodes=2), n_ranks=4, rows=16, cols=16,
                         iterations=3, placement=[0, 0, 1, 1])
    np.testing.assert_allclose(result.grid, reference_stencil(16, 16, 3))


def test_stencil_rejects_uneven_split():
    with pytest.raises(ValueError):
        run_stencil(Cluster(n_nodes=3), n_ranks=3, rows=16, cols=16)


def test_kv_store_reads_correct_and_one_sided():
    cluster = Cluster(n_nodes=3)
    result = run_kv_store(cluster, n_partitions=2, reads=8)
    assert result.correct
    assert result.reads == 8
    # one-sided: a read round trip is cheap but not free
    assert 25.0 < result.mean_read_us < 60.0


@pytest.mark.parametrize("n_ranks,elements", [(2, 512), (3, 700), (4, 1024)])
def test_sample_sort_correct(n_ranks, elements):
    result = run_sample_sort(Cluster(n_nodes=min(n_ranks, 4)),
                             n_ranks=n_ranks,
                             elements_per_rank=elements,
                             placement=[r % min(n_ranks, 4)
                                        for r in range(n_ranks)])
    assert result.sorted_ok
    assert result.total_elements == n_ranks * elements


def test_sample_sort_mixed_placement():
    result = run_sample_sort(Cluster(n_nodes=2), n_ranks=4,
                             elements_per_rank=600,
                             placement=[0, 0, 1, 1])
    assert result.sorted_ok


#: ``measure_congestion_point(n_ranks=16, ...)`` as ext-scale runs it:
#: (elapsed_us, tail_spread_us) per (topology, scenario).  Incast is
#: ``run_hotspot`` with every non-root rank hot.
CONGESTION_POINTS = {
    ("single_switch", "incast"): (2175.083, 784.209),
    ("single_switch", "hotspot"): (551.535, 114.917),
    ("single_switch", "permutation"): (469.984, 6.798),
    ("fat_tree", "incast"): (2106.464, 1132.430),
    ("fat_tree", "hotspot"): (624.973, 184.359),
    ("fat_tree", "permutation"): (694.422, 152.483),
}


@pytest.mark.parametrize("topology,scenario", CONGESTION_POINTS)
def test_congestion_point_is_pinned(topology, scenario):
    from repro.experiments.scale import measure_congestion_point
    point = measure_congestion_point(n_ranks=16, topology=topology,
                                     scenario=scenario)
    elapsed_us, tail_spread_us = CONGESTION_POINTS[topology, scenario]
    assert round(point["elapsed_us"], 3) == elapsed_us
    assert round(point["tail_spread_us"], 3) == tail_spread_us
