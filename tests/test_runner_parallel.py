"""Parallel experiment runner: parity, dedup and the run cache.

The contract under test: ``run_all(jobs=N)`` is byte-identical to the
serial run, with or without the content-addressed cache, for any
subset of experiments.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.experiments import runner
from repro.experiments.cache import RunCache

#: cheap experiments (sub-second each) used for end-to-end parity runs
CHEAP = ("table1", "fig5", "abl-pio", "abl-nack")


@functools.lru_cache(maxsize=None)
def serial_formatted(only: tuple) -> tuple:
    return tuple(r.format() for r in runner.run_all(only=list(only)))


def formatted(results) -> tuple:
    return tuple(r.format() for r in results)


# ------------------------------------------------------------------ parity
@settings(max_examples=6, deadline=None)
@given(jobs=st.integers(min_value=2, max_value=4),
       subset=st.sets(st.sampled_from(CHEAP), min_size=1))
def test_jobs_rows_identical_to_serial(jobs, subset):
    """Property: for any experiment subset and worker count, parallel
    structured rows and formatting match the serial run exactly."""
    only = tuple(name for name in CHEAP if name in subset)
    serial = runner.run_all(only=list(only))
    parallel = runner.run_all(only=list(only), jobs=jobs)
    assert [r.rows for r in parallel] == [r.rows for r in serial]
    assert formatted(parallel) == serial_formatted(only)


def test_cli_jobs_output_byte_identical(capsys):
    args = ["evaluate", "--no-cache", "--only", "table1", "--only",
            "abl-nack"]
    assert cli.main(args) == 0
    serial_out = capsys.readouterr().out
    assert cli.main(args + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial_out


def test_cli_lists_every_experiment(capsys):
    assert cli.main(["evaluate", "--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == \
        [[e.name, e.group] for e in runner.EXPERIMENTS]


# ------------------------------------------------------------------- cells
def test_fig8_and_fig9_share_sweep_cells():
    """Both figures are merged from the same sweep points, so one
    invocation computes each (size, path) cell exactly once."""
    experiments = {e.name: e for e in runner.EXPERIMENTS}
    from repro.config import DAWNING_3000
    fig8 = experiments["fig8"].plan(DAWNING_3000)
    fig9 = experiments["fig9"].plan(DAWNING_3000)
    assert fig8 == fig9
    assert len(set(fig8)) == len(fig8)


def test_unknown_experiment_name_rejected():
    with pytest.raises(ValueError, match="unknown experiment"):
        runner.run_all(only=["no-such-experiment"])
    with pytest.raises(ValueError, match="jobs"):
        runner.run_all(only=["table1"], jobs=0)


def test_plan_respects_group_switches():
    names = [e.name for e in runner.plan(include_ablations=False,
                                         include_extensions=False)]
    assert names == ["table1", "fig5", "fig6", "fig7", "fig8", "fig9",
                     "table2", "table3", "overheads"]
    assert len(runner.plan()) == len(runner.EXPERIMENTS)


# ------------------------------------------------------------------- cache
def test_cache_reuses_cells_and_output_is_identical(tmp_path):
    cache = RunCache(tmp_path / "cache")
    cold = runner.run_all(only=["table1", "abl-nack"], cache=cache)
    assert cache.hits == 0 and cache.misses > 0
    cold_misses = cache.misses

    warm_cache = RunCache(tmp_path / "cache")
    warm = runner.run_all(only=["table1", "abl-nack"], cache=warm_cache)
    assert warm_cache.misses == 0
    assert warm_cache.hits == cold_misses
    assert formatted(warm) == formatted(cold)
    assert formatted(warm) == serial_formatted(("table1", "abl-nack"))


def test_cache_key_depends_on_cfg_and_params():
    from repro.config import DAWNING_3000
    cache = RunCache()
    base = cache.key(DAWNING_3000, "curves.point",
                     {"nbytes": 0, "intra": False})
    assert base == cache.key(DAWNING_3000, "curves.point",
                             {"nbytes": 0, "intra": False})
    assert base != cache.key(DAWNING_3000, "curves.point",
                             {"nbytes": 4, "intra": False})
    assert base != cache.key(DAWNING_3000.replace(cpu_mhz=750.0),
                             "curves.point", {"nbytes": 0, "intra": False})


def test_cache_survives_parallel_run(tmp_path):
    cache = RunCache(tmp_path / "cache")
    parallel = runner.run_all(only=["abl-pio"], jobs=2, cache=cache)
    warm_cache = RunCache(tmp_path / "cache")
    warm = runner.run_all(only=["abl-pio"], cache=warm_cache)
    assert warm_cache.misses == 0
    assert formatted(warm) == formatted(parallel)
