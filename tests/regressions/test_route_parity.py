"""Route parity guard for the source-route model.

Pins a sha256 of the all-pairs ``Network.route()`` map for every
routing-invariant topology size at three ECMP seeds, and for the
1024-rank fat-tree at seed 1.  The digests were captured from the
all-pairs route table that routes are now composed on demand in place
of: any drift means a packet would take a different path, which moves
simulated results and event digests.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.config import DAWNING_3000
from repro.hw.network import build_network
from repro.sim import Environment

from tests.test_routing_invariants import TOPOLOGY_SIZES


def route_digest(net) -> str:
    """sha256 over ``src,dst:ports;`` for every ordered pair, in order.

    The route memo is dropped after each source so a thousand-rank
    digest does not hold a million memoized routes at once.
    """
    h = hashlib.sha256()
    for src in range(net.n_nodes):
        for dst in range(net.n_nodes):
            if src != dst:
                ports = ",".join(map(str, net.route(src, dst)))
                h.update(f"{src},{dst}:{ports};".encode())
        net._memo.clear()
    return h.hexdigest()


EXPECTED = {
    # (topology, n_nodes, ecmp_seed) -> sha256 of the all-pairs routes
    ("single_switch", 1, 1):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("single_switch", 1, 2):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("single_switch", 1, 99):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("single_switch", 2, 1):
        "ddffb090d86c471634b3ec4bce511a4c20a0b6dbf91433267f56b84f56a03e72",
    ("single_switch", 2, 2):
        "ddffb090d86c471634b3ec4bce511a4c20a0b6dbf91433267f56b84f56a03e72",
    ("single_switch", 2, 99):
        "ddffb090d86c471634b3ec4bce511a4c20a0b6dbf91433267f56b84f56a03e72",
    ("single_switch", 9, 1):
        "34da85596f12311b324f16e5c1ca17e667611283a6b075d58df0290d031ff7d3",
    ("single_switch", 9, 2):
        "34da85596f12311b324f16e5c1ca17e667611283a6b075d58df0290d031ff7d3",
    ("single_switch", 9, 99):
        "34da85596f12311b324f16e5c1ca17e667611283a6b075d58df0290d031ff7d3",
    ("switch_tree", 1, 1):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("switch_tree", 1, 2):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("switch_tree", 1, 99):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("switch_tree", 7, 1):
        "5d72ce96ed38ba670d9a1a44cea8b5cef4f27554c1caeca8f7d8cd2f74bba39d",
    ("switch_tree", 7, 2):
        "5d72ce96ed38ba670d9a1a44cea8b5cef4f27554c1caeca8f7d8cd2f74bba39d",
    ("switch_tree", 7, 99):
        "5d72ce96ed38ba670d9a1a44cea8b5cef4f27554c1caeca8f7d8cd2f74bba39d",
    ("switch_tree", 8, 1):
        "23c854d17589a4d9b319b4cb6f37ced2305f629523627f0a42b607a59095d257",
    ("switch_tree", 8, 2):
        "23c854d17589a4d9b319b4cb6f37ced2305f629523627f0a42b607a59095d257",
    ("switch_tree", 8, 99):
        "23c854d17589a4d9b319b4cb6f37ced2305f629523627f0a42b607a59095d257",
    ("switch_tree", 20, 1):
        "414df974431c6ccf6aad87a3351a91f00902044c8117aa9a98a1d5a38b2b5470",
    ("switch_tree", 20, 2):
        "414df974431c6ccf6aad87a3351a91f00902044c8117aa9a98a1d5a38b2b5470",
    ("switch_tree", 20, 99):
        "414df974431c6ccf6aad87a3351a91f00902044c8117aa9a98a1d5a38b2b5470",
    ("mesh2d", 1, 1):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("mesh2d", 1, 2):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("mesh2d", 1, 99):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("mesh2d", 4, 1):
        "465532b1cdbc284b4d3013da593be6838064f9d17520fdb4706f325d7b3931f2",
    ("mesh2d", 4, 2):
        "465532b1cdbc284b4d3013da593be6838064f9d17520fdb4706f325d7b3931f2",
    ("mesh2d", 4, 99):
        "465532b1cdbc284b4d3013da593be6838064f9d17520fdb4706f325d7b3931f2",
    ("mesh2d", 9, 1):
        "842de6261e7805c1b2f267e54ee6257efb7a3fd5a6383abca3e51f8c6953125a",
    ("mesh2d", 9, 2):
        "842de6261e7805c1b2f267e54ee6257efb7a3fd5a6383abca3e51f8c6953125a",
    ("mesh2d", 9, 99):
        "842de6261e7805c1b2f267e54ee6257efb7a3fd5a6383abca3e51f8c6953125a",
    ("mesh2d", 12, 1):
        "14c480e952320d91c2645ef8f5530d3a1bfbac3611c2f48dcd6dce3e795ef623",
    ("mesh2d", 12, 2):
        "14c480e952320d91c2645ef8f5530d3a1bfbac3611c2f48dcd6dce3e795ef623",
    ("mesh2d", 12, 99):
        "14c480e952320d91c2645ef8f5530d3a1bfbac3611c2f48dcd6dce3e795ef623",
    ("fat_tree", 2, 1):
        "64d1794df976271da86d78360bffa82c09ac33bb9a1d38d4419dff5b1fce7f4f",
    ("fat_tree", 2, 2):
        "64d1794df976271da86d78360bffa82c09ac33bb9a1d38d4419dff5b1fce7f4f",
    ("fat_tree", 2, 99):
        "64d1794df976271da86d78360bffa82c09ac33bb9a1d38d4419dff5b1fce7f4f",
    ("fat_tree", 4, 1):
        "5d6b040a6f3324e567a86bfa829f832c51c1ce833fa624fa8cbe5021c794eae6",
    ("fat_tree", 4, 2):
        "6262b56db628c85b6f345c82d8bf8adf9f7b6f54a87a34b66a85043cfc9e278f",
    ("fat_tree", 4, 99):
        "5d6b040a6f3324e567a86bfa829f832c51c1ce833fa624fa8cbe5021c794eae6",
    ("fat_tree", 16, 1):
        "822d054c896b3309fc50021ed2e2b99b5c7e50a4e06855c7cfb78362c033f951",
    ("fat_tree", 16, 2):
        "14cf90fd146ff8860b96ac67b7afdf9b523dd33297586640e2a2d9ab094a3358",
    ("fat_tree", 16, 99):
        "2c4203bb009925742300783ea492512c9773b49b67fdd47725b839432c02ce40",
    ("fat_tree", 17, 1):
        "0a28983841809f460804c02ab9629adf09e1fff296c8599ab59c4d30a6b50b1b",
    ("fat_tree", 17, 2):
        "a6c47c2c32eca36c2ff4ab8c04f946cba21d1720e8b392627cf6d22cfe914f11",
    ("fat_tree", 17, 99):
        "c692fdeb043818bcbc0ac589a40f423c98b8b0ab7c2de7cffbf945a9122a894f",
    ("fat_tree", 54, 1):
        "c82b5d910c7ad3cb6bff2a8fc7ce72e5d565d5afcddc5672f017e8789a95d1a3",
    ("fat_tree", 54, 2):
        "0512986449d5eb4b3e29845bb9165196961325691d62346bba4fa745e7d30a22",
    ("fat_tree", 54, 99):
        "52f1ffa91cf4e7e2487147a3d77efa2e8b745eaa471db7ec7075372a00d62c46",
    ("fat_tree", 60, 1):
        "646164924fd992daa6b5e467ddfa24d8ef5a9d34b4e46fbbe80a3064bb736c78",
    ("fat_tree", 60, 2):
        "2ee2761e73fdc9af43f44ac82191303684eaa7f0aeba3f9b27d19f0dad3477af",
    ("fat_tree", 60, 99):
        "06427ceb6d8bc79bc35474f5341caf16085bef2dfd0ea3197de4f55764beb0d9",
    ("fat_tree", 1024, 1):
        "9d5be22060fbc4029cd684876ddd92d0df2de588a73809f51337462342da9752",
}


@pytest.mark.parametrize("topology,n", TOPOLOGY_SIZES)
@pytest.mark.parametrize("seed", [1, 2, 99])
def test_route_map_unchanged(topology, n, seed):
    cfg = DAWNING_3000.replace(ecmp_seed=seed)
    net = build_network(Environment(), cfg, n, topology=topology)
    assert route_digest(net) == EXPECTED[(topology, n, seed)]


def test_thousand_rank_fat_tree_routes_unchanged():
    net = build_network(Environment(), DAWNING_3000, 1024,
                        topology="fat_tree")
    assert route_digest(net) == EXPECTED[("fat_tree", 1024, 1)]
