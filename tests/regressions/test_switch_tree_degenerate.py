"""Regression: the degenerate switch_tree carried a dead root switch.

With ``n_nodes <= 7`` every host fits one 8-port leaf, yet the builder
still instantiated the root switch and the leaf's uplink: a switch no
route ever crossed, polluting ``switches``/``links`` (each with live
forwarder processes and per-switch telemetry callbacks) and skewing
per-switch utilisation reports.  The tree now collapses to the leaf
crossbar alone; the first size that genuinely needs the root (8) keeps
it.
"""

from __future__ import annotations

import pytest

from repro.config import DAWNING_3000
from repro.hw.network import build_network
from repro.sim import Environment
from repro.telemetry.metrics import MetricsRegistry

from tests.conftest import all_routes


def _net(n):
    return build_network(Environment(), DAWNING_3000, n,
                         topology="switch_tree")


@pytest.mark.parametrize("n", [1, 2, 7])
def test_single_leaf_tree_has_no_root(n):
    net = _net(n)
    assert [sw.name for sw in net.switches] == ["leaf0"]
    # Only host links — no uplink to a phantom root.
    assert len(net.links) == n
    assert all(len(route) == 1 for route in all_routes(net).values())


def test_eight_hosts_bring_the_root_back():
    net = _net(8)
    assert {sw.name for sw in net.switches} == {"leaf0", "leaf1", "root"}
    # 8 host links + 2 uplinks.
    assert len(net.links) == 10
    assert net.route(0, 7) == (7, 1, 0)       # leaf0 up, root, leaf1 down


def test_no_dead_switch_in_metrics():
    """Every registered per-switch series belongs to a live switch."""
    net = _net(4)
    registry = MetricsRegistry()
    net.register_metrics(registry)
    rendered = registry.render_prometheus()
    assert "root" not in rendered
    assert 'switch="leaf0"' in rendered
