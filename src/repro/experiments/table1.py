"""Table 1 — comparison of the three communication architectures.

The paper's table compares kernel-level, user-level and semi-user-level
messaging by the number of OS trappings and interrupt-handling episodes
on the critical path, and by where the NIC is accessed from.  We
*count* these events with the kernel/interrupt instrumentation while
one steady-state message crosses each stack (setup traps — port or
socket creation — excluded, as the paper's "critical path" is the
per-message path).  One crossing, through the BCL port calls of
:func:`repro.baselines.library_for`, counts all three stacks.
"""

from __future__ import annotations

from repro.baselines import library_for
from repro.cluster import Cluster
from repro.config import CostModel
from repro.experiments.common import ExperimentResult
from repro.firmware.packet import ChannelKind
from repro.sim import Store

__all__ = ["count_architecture", "merge_counts"]

#: message size used for the counted crossing
MESSAGE_BYTES = 64

#: row order and the paper's qualitative claims for each architecture
_ARCHITECTURES = (
    ("kernel_level", "kernel-level", ">=2", ">=1", "kernel"),
    ("user_level", "user-level", "0", "0", "user space"),
    ("semi_user", "semi-user-level", "1 (send only)", "0", "kernel"),
)


def count_architecture(cfg: CostModel, architecture: str) -> dict:
    """Run one message over ``architecture``'s stack (a cell); return
    the counter deltas accumulated strictly between send-start and
    receive-completion."""
    cluster = Cluster(n_nodes=2, cfg=cfg, architecture=architecture)
    env = cluster.env
    lib_cls = library_for(architecture)
    sync: Store = Store(env)
    out = {}

    def snapshot():
        return [node.kernel.counters.snapshot() for node in cluster.nodes]

    def deltas(before):
        return [node.kernel.counters.delta(b)
                for node, b in zip(cluster.nodes, before)]

    def receiver():
        proc = cluster.spawn(1)
        port = yield from lib_cls(proc).create_port()
        buf = proc.alloc(MESSAGE_BYTES)
        yield from port.post_recv(0, buf, MESSAGE_BYTES)
        sync.try_put(port.address)
        out["before"] = snapshot()
        yield from port.wait_recv()
        out["after"] = deltas(out["before"])

    def sender():
        proc = cluster.spawn(0)
        port = yield from lib_cls(proc).create_port()
        address = yield sync.get()
        buf = proc.alloc(MESSAGE_BYTES)
        proc.write(buf, b"x" * MESSAGE_BYTES)
        dest = address.with_channel(ChannelKind.NORMAL, 0)
        yield from port.send(dest, buf, MESSAGE_BYTES)

    done = env.process(receiver(), name="t1.recv")
    env.process(sender(), name="t1.send")
    env.run(until=done)
    return _merge(out["after"])


def _merge(deltas):
    """Combine the two nodes' counter deltas into one path summary."""
    merged = {
        "traps": sum(d.traps for d in deltas),
        "traps_send": sum(d.traps_send_path for d in deltas),
        "traps_recv": sum(d.traps_recv_path for d in deltas),
        "interrupts": sum(d.interrupts for d in deltas),
        "copies": sum(d.data_copies for d in deltas),
    }
    kernel = sum(d.nic_accesses_from_kernel for d in deltas)
    user = sum(d.nic_accesses_from_user for d in deltas)
    if kernel and user:
        merged["nic_access"] = "kernel+user"
    elif kernel:
        merged["nic_access"] = "kernel"
    elif user:
        merged["nic_access"] = "user space"
    else:
        merged["nic_access"] = "none"
    return merged


def merge_counts(cfg: CostModel, counts: list[dict]) -> ExperimentResult:
    """Assemble the table from per-architecture counts (cell payloads),
    ordered as :data:`_ARCHITECTURES`."""
    result = ExperimentResult(
        experiment_id="Table 1",
        title="Comparison of three communication architectures "
              "(counted on one message's critical path)",
        columns=["architecture", "os_trappings", "send_traps", "recv_traps",
                 "interrupts", "host_copies", "nic_accessed_from",
                 "paper_trappings", "paper_interrupts", "paper_nic_access"],
        notes="Counted by instrumentation while one 64-byte message "
              "crosses each stack; port/socket setup excluded.")
    for (_, label, p_traps, p_irqs, p_nic), c in zip(_ARCHITECTURES, counts):
        result.add(architecture=label, os_trappings=c["traps"],
                   send_traps=c["traps_send"], recv_traps=c["traps_recv"],
                   interrupts=c["interrupts"], host_copies=c["copies"],
                   nic_accessed_from=c["nic_access"],
                   paper_trappings=p_traps, paper_interrupts=p_irqs,
                   paper_nic_access=p_nic)
    return result
