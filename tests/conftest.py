"""Shared fixtures for the test suite."""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest
from hypothesis import HealthCheck, settings

from repro.cluster import Cluster
from repro.config import DAWNING_3000
from repro.sim import Environment

# Simulated runs are deterministic; wall-clock deadlines only add
# flakiness under machine load (e.g. the worst-case 200k/1-byte-MTU
# segmentation example takes ~250 ms).
settings.register_profile(
    "repro", deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("repro")


def pytest_addoption(parser):
    parser.addoption(
        "--audit", action="store_true", default=False,
        help="attach the runtime invariant auditor to every Cluster "
             "built during the suite (violations raise AuditError)")


@pytest.fixture(autouse=True, scope="session")
def _global_audit(request):
    """With ``pytest --audit``, every Cluster the suite builds carries
    the invariant auditor; sim-core, firmware, kernel and BCL checkers
    run against the whole tier-1 suite."""
    if not request.config.getoption("--audit"):
        yield
        return
    from repro.cluster import disable, enable
    enable("audit")
    try:
        yield
    finally:
        disable("audit")


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def cfg():
    return DAWNING_3000


@pytest.fixture
def cluster() -> Cluster:
    """A 2-node semi-user-level cluster (the default configuration)."""
    return Cluster(n_nodes=2)


@pytest.fixture
def traced_cluster() -> Cluster:
    return Cluster(n_nodes=2, trace=True)


def run_procs(cluster_or_env, *generators, until=None):
    """Launch generators as simulation processes and run to completion.

    Returns the list of process return values.
    """
    env = getattr(cluster_or_env, "env", cluster_or_env)
    procs = [env.process(g) for g in generators]
    if until is not None:
        env.run(until)
    else:
        env.run(env.all_of(procs))
    return [p.value for p in procs]


def all_routes(net) -> dict[tuple[int, int], tuple[int, ...]]:
    """``Network.route()`` for every ordered pair of distinct nodes."""
    return {(src, dst): net.route(src, dst)
            for src in range(net.n_nodes) for dst in range(net.n_nodes)
            if src != dst}


def load_example(name: str):
    """Import ``examples/<name>.py`` as a module (its ``main()`` does not
    run), for tests of the application kernels that live there."""
    module_name = f"examples_{name}"
    if module_name not in sys.modules:
        path = pathlib.Path(__file__).resolve().parent.parent / "examples"
        spec = importlib.util.spec_from_file_location(
            module_name, path / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module
        spec.loader.exec_module(module)
    return sys.modules[module_name]
