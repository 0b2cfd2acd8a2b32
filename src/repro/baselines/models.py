"""Table 2 comparison protocols, assembled from the simulated stacks.

The paper compares BCL against GM, AM-II and BIP on the same Myrinet.
We re-derive the comparison rather than quoting numbers:

* **GM** — Myricom's message layer: our user-level baseline as-is
  (mmap'd NIC, doorbells, NIC-side translation, reliable firmware).
  "GM doesn't provide special support for SMP", so no intra-node row.
* **BIP** — "a very low latency [but] doesn't provide the functionality
  of flow control and error correction.  Its bandwidth is lower than
  that of BCL": the user-level stack with the reliability engine turned
  off (``reliable=False`` strips the 5.65 us of MCP protocol work) and
  a small 1 KB MTU, whose per-packet overheads cap the bandwidth.
* **AM-II** — Active Messages as a remote-handler abstraction: modelled
  as the user-level stack plus one extra payload copy on the receive
  side and a handler dispatch cost ("it is meaningless to compare the
  bandwidth ... since AM-II needs an extra memory copy"), applied as a
  documented analytic adjustment on the measured user-level numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from repro.cluster import Cluster
from repro.config import DAWNING_3000, CostModel

__all__ = ["ProtocolPreset", "table2_presets", "AM2_HANDLER_DISPATCH_US"]

#: AM-II: request/handler dispatch cost on the receiving host
AM2_HANDLER_DISPATCH_US = 6.0


@dataclass(frozen=True)
class ProtocolPreset:
    """How to measure one Table 2 row."""

    name: str
    #: builds a fresh cluster configured for this protocol (two nodes
    #: unless given ``n_nodes``); its architecture picks the library
    #: that drives it
    make_cluster: Callable[..., Cluster]
    #: measure the intra-node row too (only BCL supports SMP specially)
    smp_support: bool
    #: analytic latency adjustment (us) applied to measured numbers
    latency_adjust_us: float = 0.0
    #: extra receive-side copy (AM-II) — bytes/us rate of the copy,
    #: None for no extra copy
    extra_copy_mb_s: Optional[float] = None
    notes: str = ""


def table2_presets(cfg: CostModel = DAWNING_3000) -> list[ProtocolPreset]:
    gm_cluster = partial(Cluster, cfg=cfg, architecture="user_level")
    # No flow control / error correction; small packets.
    bip_cfg = cfg.replace(mtu=1024, mcp_send_proc_us=1.20,
                          mcp_recv_proc_us=1.10, pipeline_chunk_bytes=512)
    return [
        ProtocolPreset(
            name="BCL", smp_support=True,
            make_cluster=partial(Cluster, cfg=cfg, architecture="semi_user"),
            notes="semi-user-level; reliable; SMP intra-node path"),
        ProtocolPreset(
            name="GM", smp_support=False,
            make_cluster=gm_cluster,
            notes="user-level (Myricom GM class); reliable firmware"),
        ProtocolPreset(
            name="AM-II", smp_support=False,
            make_cluster=gm_cluster,
            latency_adjust_us=AM2_HANDLER_DISPATCH_US,
            extra_copy_mb_s=cfg.memcpy_mb_s,
            notes="active messages: +handler dispatch, +1 recv-side copy"),
        ProtocolPreset(
            name="BIP", smp_support=False,
            make_cluster=partial(Cluster, cfg=bip_cfg,
                                 architecture="user_level", reliable=False),
            notes="no flow control / error correction; 1 KB packets"),
    ]
