"""Every output the one-way harness feeds, pinned by digest.

The digests were recorded while the reproduction still had two BCL-API
ping-pongs (a user-level copy next to ``measure_one_way``), a
hand-rolled two-process harness in the NACK ablation, and call sites
that chose between ``measure_intra_node`` and ``measure_one_way``
themselves.  One harness now drives both libraries, picked by the
cluster's architecture, and a one-node cluster means intra-node; all of
these must reproduce byte for byte:

* ``.format()`` of Tables 1-3, the Section 5 overheads and the
  pin-down, NIC-TLB, NACK, CPU-frequency and shm-chunk ablations, now
  computed through ``run_all(only=[name])``, the runner path
  ``repro evaluate`` takes (the pin-down and NIC-TLB ablations no
  longer rotate buffers in a ping-pong of their own, but through
  ``measure_one_way(..., buffers=n)``);
* ``curves.measure_point`` at 0, 4096 and 131072 B, intra and inter;
* one lossy inter-node ``measure_resilience_point``;
* the stdout of the one-way latency command for ``--architecture
  user_level`` and ``--intra-node``, and of the intra-node bandwidth
  sweep.  ``repro observe`` now prints both: the latency line is
  rebuilt from its bandwidth row;
* the cluster utilisation report of ``repro observe --report``,
  recorded while a report module of its own still re-read every
  component's tallies field by field.

The kernel-level socket stack later joined the same harness, behind the
BCL port calls.  Its pins were recorded through its old socket harness
before the fold: the stdout of the latency command for ``--architecture
kernel_level`` at 0 B, and the per-message samples at 0, 4096, 10000
and 65536 B.

The PIO and reliability ablations and Figures 8 and 9 had no pin of
their own; theirs were recorded through the runner before the serial
``run*()`` copies of every experiment were deleted.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import cli
from repro.cluster import Cluster
from repro.config import DAWNING_3000
from repro.experiments import curves, resilience
from repro.experiments.runner import run_all
from repro.instrument.measure import measure_one_way


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


#: digest key -> runner experiment name, where the two differ
RUNNER_NAMES = {"abl-cpu-frequency": "abl-cpu"}

EXPERIMENT_DIGESTS = {
    "abl-cpu-frequency":
        "d63f8b4e519ed605618283b3af0655e1659db6feba49b3249d305f08f0a1f240",
    "abl-nack":
        "b80cce9cf65f7339f74af37995e6a67afa0ecaa17676bb157c2f7bc0fa188d5d",
    "abl-nic-tlb":
        "6d5c21f8774d41685e738d4a1912811a85944162a32e57edc31e53f029fa267a",
    "abl-pindown":
        "3e6d478225bc96ba75c911528eba4e2040c295a9bd9832177d884469524149dd",
    "abl-pio":
        "3b98302e0b03ed05291a1cc289ad191bc15c61c3a2c30c7dde762725c99782f4",
    "abl-reliability":
        "a14c97e3a9df9c2bd3ffd68a26a7aba5c39eed2d197cfa0b9c315adad3d2f9c6",
    "abl-shm-chunk":
        "8808d89de903cf882bbb7403c9e28cd71bdc78a2b7697e7d87376129f4470454",
    "fig8":
        "b4d96748e546a209a14e0b0aee5e99bdcac988efe4981fc4fbb682503f57301d",
    "fig9":
        "5a6937fa4fa81765c41c24284035d65a6b7c82032a0c10747b4c044d05947218",
    "overheads":
        "3a8e62b33abde52575c68a0a7db65ee9629a53d176a99ac514532503a11a4cdb",
    "table1":
        "074ac4cb24ccc3a159ac485538976f7874fef4cd0769f2b21f61b53aa2203587",
    "table2":
        "1af797dca7e121cc7beab9f21418b89a67cbde579a74f8be974ea978d5c12004",
    "table3":
        "960dd772dd5177d62e7b6bca8c836936a197c58f6767826177cee09290c59f98",
}


@pytest.mark.parametrize("name", sorted(EXPERIMENT_DIGESTS))
def test_experiment_digest(name):
    result, = run_all(only=[RUNNER_NAMES.get(name, name)])
    assert _sha(result.format()) == EXPERIMENT_DIGESTS[name]


POINT_DIGESTS = {
    "inter-0":
        "ae7f1dd65e6da337e3998c1a54d2250fc96b73a5b6132999a5519dcaf4f6c707",
    "inter-131072":
        "f79adb72f2e146f341fcfee96d32e9b06d9414bec1855400c5bc5ed79c7f0f65",
    "inter-4096":
        "7681b690f4b66b9279dc3ed06559c3a6bb50e5df5e39087cfff15364c0379385",
    "intra-0":
        "196b6e562f9bf4a2cdb6a075eba34fd10e03247ec303c2314152b7cb020fcf2f",
    "intra-131072":
        "2d9052657b1ffe1f7fdb374520e0a42f96af29c2d58aab026fb45ecf7b867c0b",
    "intra-4096":
        "300afb407598d7e5a713afd6ba2a059bd8bf8e59d41c67257652a55cc71ac950",
}


@pytest.mark.parametrize("intra", [False, True], ids=["inter", "intra"])
@pytest.mark.parametrize("nbytes", [0, 4096, 131072])
def test_curve_point_digest(nbytes, intra):
    point = curves.measure_point(DAWNING_3000, nbytes, intra)
    key = f"{'intra' if intra else 'inter'}-{nbytes}"
    assert _sha(json.dumps(point, sort_keys=True)) == POINT_DIGESTS[key]


def test_lossy_resilience_point_digest():
    point = resilience.measure_resilience_point(DAWNING_3000, 5.0, 16384,
                                                intra=False)
    assert point["retransmissions"] > 0
    assert _sha(json.dumps(point, sort_keys=True)) == \
        "2e4018a2f12f2e67e9c4416b9aab49581672b147fec352da058690bf3f707771"


#: kernel-level samples (us), 2 warm-up then 3 measured messages; 10000 B
#: is three datagrams, and its first sample still pays the cold path
KERNEL_LEVEL_SAMPLES = {
    0: [27.696] * 3,
    4096: [123.89] * 3,
    10000: [184.722, 179.222, 179.222],
    65536: [701.16] * 3,
}


@pytest.mark.parametrize("nbytes", sorted(KERNEL_LEVEL_SAMPLES))
def test_kernel_level_samples(nbytes):
    sample = measure_one_way(Cluster(n_nodes=2, architecture="kernel_level"),
                             nbytes, repeats=3, warmup=2)
    assert sample.samples_us == KERNEL_LEVEL_SAMPLES[nbytes]
    assert sample.received_payloads_ok


#: ``repro observe`` arguments of each pinned point-to-point command.
#: The 0-byte commands ran with 2 warm-up messages and the observe run
#: has 1, but the samples are identical either way.
COMMANDS = {
    "latency-kernel-level": ["--architecture", "kernel_level"],
    "latency-user-level": ["--architecture", "user_level"],
    "latency-intra": ["--intra-node"],
    "bandwidth-intra": ["--intra-node", "--bytes", "1024", "4096", "16384",
                        "65536", "131072", "--messages", "2"],
    # the cluster utilisation report, from its header line to the end
    # (the summary above it names message ids, which count up across
    # clusters): one with interrupts, one with recovery and injected
    # faults
    "report-8192": ["--bytes", "8192", "--messages", "3", "--report"],
    "report-kernel-level": ["--architecture", "kernel_level",
                            "--messages", "3", "--report"],
    "report-drop": ["--bytes", "65536", "--messages", "8", "--drop", "0.1",
                    "--seed", "3", "--report"],
}

COMMAND_DIGESTS = {
    "bandwidth-intra":
        "926f9b9701ec75ff1de6d1f3bcd20e4ad39806b4713bc779005f95f182c6d981",
    "latency-intra":
        "7a16e3e6fd50905ddded03d77a2099ed0fa70e2f38fb4ddf65d56070c1a5fa1b",
    "latency-kernel-level":
        "6bb3cab0a763fd9766722fa7a98c84ee75e605b5b9e35dcfb93c8c0708efae4c",
    "latency-user-level":
        "529e2539e52017d12048dcc533a4cca452833ae7f65140789916385d641e14f9",
    "report-8192":
        "4c331722d8df71ace8825fb16cadb79245d283412a4d60f8cf8ae1966d2aee60",
    "report-drop":
        "2cbcf2c5437ace528de82b60b900cabfe9c3f005d34286cb64cd4a613a95bea2",
    "report-kernel-level":
        "bece8e9ccc9ad2ba44503b4c2c04add3d2ed4b725baee5d908e9a521332891a4",
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_digest(name, capsys):
    argv = COMMANDS[name]
    if name.startswith("latency"):
        argv = [*argv, "--messages", "3"]
    assert cli.main(["observe", *argv]) == 0
    out = capsys.readouterr().out
    if name.startswith("latency"):
        # the pinned one-line form, rebuilt from the bandwidth row
        nbytes, latency, _mb_s = out.splitlines()[1].split()
        where = "intra-node" if "--intra-node" in argv else argv[1]
        out = f"{nbytes}-byte one-way latency ({where}): {latency} us\n"
    elif name.startswith("report"):
        out = out[out.index("cluster report"):]
    assert _sha(out) == COMMAND_DIGESTS[name]


#: ``repro observe --bytes 65536 --messages 8 --drop 0.1 --seed 3``:
#: the fault plan and recovery lines, as the fault-campaign command
#: printed them before ``observe`` took it over
FAULT_LINES = """\
plan: FaultPlan(seed=3, drop_rate=0.1)
  data_packets             144
  retransmissions          24
  retx_amplification       1.17
  fast_retransmits         6
  retransmit_timeouts      0
  duplicate_drops          0
  out_of_order_drops       17
  corrupt_drops            0
  injected_losses          7
  injected_drops           7
  injected_burst_drops     0
  injected_brownout_drops  0
  injected_scripted_drops  0
  injected_corruptions     0
  injected_duplicates      0
  injected_reorders        0
  loss_episodes            6
  recovered_episodes       6
  unrecovered_episodes     0
  ttr_mean_us              131.85
  ttr_max_us               200.12
"""


def test_fault_recovery_lines(capsys):
    assert cli.main(["observe", "--bytes", "65536", "--messages", "8",
                     "--drop", "0.1", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["65536", "538.74", "121.6"]
    assert lines[3] == "payloads intact"
    assert "\n".join([lines[2], *lines[4:25]]) + "\n" == FAULT_LINES
