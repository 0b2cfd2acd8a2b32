"""Calibrated cost model for the simulated DAWNING-3000 testbed.

Every timing in the reproduction comes from one :class:`CostModel`
instance.  The default calibration, :data:`DAWNING_3000`, is derived
from the numbers the paper reports directly (PIO word costs, wire rate)
plus a stage decomposition chosen so the simulated stack lands on the
paper's measured figures.  The decomposition satisfies, exactly:

* send-side host overhead (0-byte, pin-down hit)
  = compose + trap-enter + security check + pin-down lookup + trap-exit
    + 15-word descriptor PIO fill
  = 0.45 + 0.90 + 0.87 + 0.40 + 0.82 + 15*0.24 = **7.04 us** (paper Fig 5),
  with the PIO fill (3.60 us) "more than half" of it, as the paper notes;
* receive-side host overhead = poll + event check = 0.58 + 0.43
  = **1.01 us** (paper Fig 6);
* 0-byte one-way = 7.04 (host send) + 2.83 (MCP send) + 1.45 (wire
  inject + 8 B header) + 2.05 (switch + 2 links) + 2.82 (MCP recv)
  + 1.10 (completion-event DMA) + 1.01 (recv poll) = **18.30 us**
  (paper Fig 7 / 5);
* MCP reliable-protocol share = 2.83 + 2.82 = **5.65 us** (paper 5.2:
  "the other 5.65 us is to perform the reliable transmission");
* the semi-user extra versus the user-level baseline (which writes a
  compact 4-word virtual-address descriptor + doorbell from user space
  and pays a per-message NIC context check instead):
  7.04 - (0.45 + 4*0.24 + 0.24) - 0.40 = **4.17 us ~= 22 %** of 18.3 us
  (paper 5.2/5.4);
* steady-state wire stage per 4 KB packet = 1.40 + (4096+8)*6.25 ns
  + 0.25 inter-packet gap = 27.30 us -> ~**146-150 MB/s** class peak
  bandwidth, ~91 % of the 160 MB/s physical wire (paper Fig 9 / 5.4);
* intra-node 0-byte = 0.45 + 0.80 + 0.58 + 0.87 = **2.70 us**, and the
  pipelined two-copy shared-memory path peaks at the 391 MB/s memcpy
  rate (paper 5.3).

Units: all ``*_us`` fields are microseconds, ``*_mb_s`` fields are
decimal MB/s (the unit the paper uses: 131072 B / 898 us = 146 MB/s).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

from repro.sim.time import bytes_per_second_to_ns_per_byte, us

__all__ = ["CostModel", "DAWNING_3000", "DNET_MESH", "LOSSY_DAWNING",
           "dawning_3000", "dnet_mesh", "lossy_dawning"]


@dataclass(frozen=True)
class CostModel:
    """All tunable costs of the simulated platform and protocol stack."""

    # ---------------------------------------------------------------- host
    n_cpus_per_node: int = 4
    cpu_mhz: float = 375.0
    #: Reference frequency the *_us host costs were calibrated at.  Host
    #: software costs scale by (cpu_ref_mhz / cpu_mhz); see the "a faster
    #: CPU will reduce these overheads" ablation.
    cpu_ref_mhz: float = 375.0
    #: raw cache-warm copy rate; the *effective* intra-node peak lands
    #: near the paper's 391 MB/s after per-chunk setup and ring costs
    memcpy_mb_s: float = 425.0
    memcpy_setup_us: float = 0.30
    page_size: int = 4096

    # ----------------------------------------------------------------- PCI
    pio_write_word_us: float = 0.24   # paper 5.1 (measured on the testbed)
    pio_read_word_us: float = 0.98    # paper 5.1
    pio_word_bytes: int = 4
    dma_setup_us: float = 1.00
    dma_mb_s: float = 264.0           # 64-bit / 33 MHz PCI burst rate

    # -------------------------------------------------------------- kernel
    trap_enter_us: float = 0.90
    trap_exit_us: float = 0.82
    security_check_us: float = 0.87
    pindown_lookup_us: float = 0.40       # pin-down page-table hit
    pindown_insert_us: float = 0.50       # install one entry on miss
    pindown_remove_us: float = 0.30       # drop one entry on eviction
    pin_page_us: float = 1.20             # pin one page on miss
    unpin_page_us: float = 0.80
    translate_page_us: float = 0.12       # per-page table walk on miss
    interrupt_dispatch_us: float = 2.50   # kernel-level baseline only
    interrupt_handler_us: float = 3.00
    wakeup_us: float = 1.50
    pindown_capacity_pages: int = 8192    # kernel pin-down table capacity

    # ------------------------------------------------ BCL user library
    compose_us: float = 0.45          # build the send request in user space
    recv_poll_us: float = 0.58        # poll the completion queue
    event_check_us: float = 0.43      # decode/validate one event record
    send_complete_us: float = 0.82    # reap a send-completion event (paper)
    #: entries per user-space completion queue (None = unbounded)
    completion_queue_entries: int = 256
    descriptor_base_words: int = 15   # semi-user descriptor: phys page list
    descriptor_words_per_page: int = 2

    # ------------------------------------------------------ NIC / firmware
    nic_sram_bytes: int = 1 << 20     # LANai local memory (1 MB class)
    send_ring_entries: int = 64
    staging_buffers: int = 2          # double buffering host-DMA vs wire
    mcp_fetch_request_us: float = 0.82  # MCP reads a request from the ring
    mcp_send_proc_us: float = 2.83    # reliable-protocol send processing
    mcp_recv_proc_us: float = 2.82    # reliable-protocol recv processing
    mcp_ack_proc_us: float = 0.60     # handle one ack (off critical path)
    event_record_bytes: int = 32
    mtu: int = 4096
    #: cut-through granularity: wire injection starts once this much of
    #: a fragment is staged, and the receive-side scatter DMA overlaps
    #: packet reception except for this trailing remainder
    pipeline_chunk_bytes: int = 1024
    retransmit_timeout_us: float = 1000.0
    send_window: int = 8              # go-back-N window per destination
    #: receiver NACKs the first arrival after a gap, triggering a fast
    #: retransmit instead of a full timeout wait
    nack_enabled: bool = True

    # ---------------------------------------------------------------- wire
    wire_mb_s: float = 160.0          # paper 5.4: Myrinet "around 160 MB/s"
    wire_inject_us: float = 1.40      # wire-DMA engine start per packet
    wire_gap_us: float = 0.25         # inter-packet gap (same source NIC)
    wire_header_bytes: int = 8
    switch_latency_us: float = 0.55   # cut-through fall-through
    link_propagation_us: float = 0.75 # cable + serialisation per hop

    # ----------------------------------------------- user-level baseline
    #: GM-class descriptors are compact (virtual address, length,
    #: destination, flags) — unlike BCL's 15-word physical page list
    ul_descriptor_words: int = 4
    ul_doorbell_words: int = 1
    #: per-message protection/context validation the NIC must do when
    #: user processes talk to it directly (BCL moves this into the kernel)
    ul_context_check_us: float = 0.40
    nic_tlb_entries: int = 256        # NIC-side translation cache
    #: warm per-page lookup, matched to BCL's 2-words-per-page descriptor
    #: PIO (0.48 us) so the semi-user extra stays ~constant with size,
    #: as the paper reports ("only 4.17 us is added to 898 us")
    nic_tlb_hit_us: float = 0.48
    nic_tlb_miss_us: float = 4.00     # fetch mapping from host page table

    # ---------------------------------------------- kernel-level baseline
    kl_proto_send_us: float = 3.00    # per-datagram protocol processing
    kl_proto_recv_us: float = 3.00
    kl_checksum_mb_s: float = 200.0   # software checksum rate
    kl_mtu: int = 4096

    # ----------------------------------------------------- intra-node path
    shm_post_us: float = 0.80         # enqueue message header + flag
    shm_check_us: float = 0.87        # sequence check + dequeue
    shm_chunk_bytes: int = 8192       # pipelining granularity
    shm_ring_slots: int = 16

    # ------------------------------------------------------------- fabric
    #: fat-tree arity override (even, >= 2).  0 = auto: the smallest
    #: even k whose 3-level Clos capacity k^3/4 holds ``n_nodes`` hosts.
    fat_tree_k: int = 0
    #: seed mixed into the deterministic ECMP hash that picks among
    #: equal-cost fat-tree uplinks; same seed => same routes, always
    ecmp_seed: int = 1
    #: validate every source-route piece against switch radix and
    #: physical connectivity at build_network time (fail fast instead of
    #: silently dropping packets at forwarding time)
    strict_routes: bool = True

    # ------------------------------------------- NIC-offloaded collectives
    #: fan-in/fan-out arity of the NIC collective tree over nodes
    coll_fanout: int = 4
    #: MCP processing per collective packet handled in firmware (fan-in
    #: combine / fan-out replicate step; LANai-resident, no host trap)
    mcp_coll_proc_us: float = 1.20
    #: largest payload the firmware reduces/broadcasts NIC-side; bigger
    #: collectives fall back to the host algorithms (LANai SRAM budget)
    nic_coll_max_bytes: int = 4096

    # -------------------------------------------------------- upper layers
    eadi_eager_threshold: int = 4096  # <= goes through the system channel
    eadi_segment_bytes: int = 65536   # rendezvous segment grant size
    mpi_send_us: float = 0.95
    mpi_recv_us: float = 0.95
    mpi_match_us: float = 2.15       # matching + posted/unexpected queues
    mpi_inter_extra_us: float = 0.30  # envelope handling on the remote path
    mpi_inter_segment_us: float = 4.40  # per-segment library processing
    pvm_send_us: float = 1.15
    pvm_recv_us: float = 1.15
    pvm_match_us: float = 2.15
    pvm_inter_extra_us: float = 0.00
    pvm_inter_segment_us: float = 6.00

    # ------------------------------------------------------------- serving
    #: front-switch dispatch per admitted/shed request at the server:
    #: header parse + admission decision + queue insert (host CPU)
    serve_dispatch_us: float = 0.80
    #: worker pickup/handoff overhead per serviced request (dequeue,
    #: context, reply setup) — charged on the worker, not the intake CPU
    serve_worker_overhead_us: float = 0.50

    # -------------------------------------------------------------- helpers
    def scaled_host_us(self, us_value: float) -> float:
        """Host software cost, scaled for CPU frequency ablations."""
        return us_value * self.host_scale

    # Derived values, computed once per cost model so that per-operation
    # code does not convert the same constant on every call.  Each one
    # rounds exactly as the per-call conversion it replaces.
    @cached_property
    def host_scale(self) -> float:
        """Factor on host software costs: ``cpu_ref_mhz / cpu_mhz``."""
        return self.cpu_ref_mhz / self.cpu_mhz

    @cached_property
    def ns(self) -> SimpleNamespace:
        """Every ``*_us`` field in integer nanoseconds, without the
        suffix: ``cfg.ns.wire_inject == us(cfg.wire_inject_us)``.

        Only a fixed delay may be read here.  A cost computed from a
        field (``words * pio_write_word_us``, a scaled host cost) must
        still be rounded once, after the arithmetic.
        """
        return SimpleNamespace(**{
            f.name[:-3]: us(getattr(self, f.name))
            for f in dataclasses.fields(self) if f.name.endswith("_us")})

    @cached_property
    def dma_ns_per_byte(self) -> float:
        """Host DMA time per byte; ``round(n * dma_ns_per_byte)`` is
        ``transfer_time_ns(n, dma_mb_s)``."""
        return bytes_per_second_to_ns_per_byte(self.dma_mb_s)

    @cached_property
    def wire_ns_per_byte(self) -> float:
        """Wire serialization time per byte; ``round(n *
        wire_ns_per_byte)`` is ``transfer_time_ns(n, wire_mb_s)``."""
        return bytes_per_second_to_ns_per_byte(self.wire_mb_s)

    def pio_write_us(self, words: int) -> float:
        return words * self.pio_write_word_us

    def descriptor_words(self, n_pages: int) -> int:
        """Send-descriptor size for a buffer spanning ``n_pages`` pages.

        The 15-word base descriptor covers control fields plus the
        physical address/length of the first page; each additional page
        appends an (address, length) pair.
        """
        extra = max(0, n_pages - 1)
        return self.descriptor_base_words + extra * self.descriptor_words_per_page

    def replace(self, **changes) -> "CostModel":
        """Return a copy with ``changes`` applied (ablation helper)."""
        return dataclasses.replace(self, **changes)

    def validate(self) -> None:
        """Sanity-check the calibration's internal consistency."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (int, float)) and value < 0:
                raise ValueError(f"{f.name} must be non-negative, got {value}")
        if self.mtu <= self.wire_header_bytes:
            raise ValueError("mtu must exceed the wire header size")
        if self.page_size & (self.page_size - 1):
            raise ValueError("page_size must be a power of two")
        if self.fat_tree_k and (self.fat_tree_k < 2 or self.fat_tree_k % 2):
            raise ValueError("fat_tree_k must be an even value >= 2 (or 0)")
        if self.coll_fanout < 2:
            raise ValueError("coll_fanout must be >= 2")


def dawning_3000() -> CostModel:
    """The default calibration (see module docstring for the derivation)."""
    model = CostModel()
    model.validate()
    return model


def dnet_mesh() -> CostModel:
    """The paper's second SAN: the custom nwrc 2-D mesh ("Dnet").

    "The key technique of nwrc 2-D mesh is a routing chip called
    nwrc1032 ... works at 40 MHz ... 6 data channels with 32 bits data
    for each path.  The network interface, called PMI960, is a 33 MHz,
    32 bits PCI adapter with an Intel i960 microprocessor as the DMA
    engine and communication co-processor."

    Relative to the Myrinet calibration: a 32-bit/33 MHz PCI (half the
    burst rate), a slower communication co-processor (i960 vs LANai:
    scaled firmware costs), and 40 MHz x 32-bit links (160 MB/s raw,
    like Myrinet, but with a different per-hop router profile).  Use
    with ``topology="mesh2d"``.
    """
    model = CostModel(
        dma_mb_s=132.0,            # 32-bit / 33 MHz PCI
        mcp_fetch_request_us=1.10,
        mcp_send_proc_us=3.80,     # i960 runs the control program slower
        mcp_recv_proc_us=3.75,
        mcp_ack_proc_us=0.85,
        wire_mb_s=160.0,           # 32 bit @ 40 MHz
        wire_inject_us=1.80,
        switch_latency_us=0.35,    # wormhole router fall-through
        link_propagation_us=0.40,  # short 2-inch AMP cables
    )
    model.validate()
    return model


def lossy_dawning() -> CostModel:
    """The default calibration tuned for fault-injection campaigns.

    Identical hardware to :func:`dawning_3000`, but with the go-back-N
    retransmission timer shortened from its conservative 1 ms default to
    200 us.  Under injected loss the timer dominates every recovery that
    NACK fast-retransmit cannot handle (e.g. a dropped *last* packet of
    a message leaves no later arrival to trigger the NACK), so the
    resilience sweep would otherwise spend most of its simulated time
    idle inside timeout waits.  The shorter timer is still an order of
    magnitude above the loaded round-trip time, so it never fires
    spuriously.
    """
    model = CostModel(retransmit_timeout_us=200.0)
    model.validate()
    return model


DAWNING_3000: CostModel = dawning_3000()
DNET_MESH: CostModel = dnet_mesh()
LOSSY_DAWNING: CostModel = lossy_dawning()
