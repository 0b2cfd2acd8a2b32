"""Figures 5-7, the Section 5 overheads and the observe flow arrows,
pinned by digest.

The digests were recorded while Figures 5-7 still read their message
through a hand-written splice of the last anonymous receive poll and
``repro observe --spans-out`` still had an exporter of its own.  The
figures now read :meth:`SpanBuilder.records_for` and the observe export
is the tracer exporter with ``flows``; both must reproduce byte for
byte:

* Figures 5-7 and the overheads as ``.format()`` (computed through
  ``run_all(only=[name])``, as ``repro evaluate`` runs them), and
  ``repro timeline`` stdout;
* the flow events (``ph`` ``s``/``f``) of ``repro observe --spans-out``
  for four ping-pongs, keyed by row name rather than tid, with message
  ids renumbered by first appearance (they are process-global).
"""

from __future__ import annotations

import hashlib
import json
import re

import pytest

from repro import cli
from repro.experiments.runner import run_all


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


FIGURE_DIGESTS = {
    "fig5":
        "81e4810e464d1f5b9b444f0b99d0fbf74bc7c0e069638701fd7f827b017092d4",
    "fig6":
        "e0db09f3e8e5ff96c1e5c66b7e811169618cce335e90b1d4779bebe0d01558ea",
    "fig7":
        "5fafcfddff2d6e267e24981d6f7485f451dec96041734a2fd9a39b5c7096fde4",
    "overheads":
        "3a8e62b33abde52575c68a0a7db65ee9629a53d176a99ac514532503a11a4cdb",
}

@pytest.mark.parametrize("name", sorted(FIGURE_DIGESTS))
def test_figure_digest(name):
    result, = run_all(only=[name])
    assert _sha(result.format()) == FIGURE_DIGESTS[name]


def test_timeline_command_digest(capsys):
    assert cli.main(["timeline"]) == 0
    assert _sha(capsys.readouterr().out) == \
        "e7aec5b24deda91d4d374f32ab5a03954ee50342874f20b7029c9dc8a436fe26"


def _flow_events(path) -> list[tuple]:
    """The export's flow events with rows named and ids renumbered."""
    events = json.loads(path.read_text())["traceEvents"]
    row = {e["tid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
    renumber: dict[str, str] = {}

    def message(match) -> str:
        return renumber.setdefault(match.group(), str(len(renumber)))

    return [(e["ph"], re.sub(r"(?<=message-)\d+", message, e["name"]),
             re.sub(r"(?<=msg)\d+", message, e["id"]), e["cat"],
             row[e["tid"]], e["ts"], e.get("bp"))
            for e in events if e["ph"] in ("s", "f")]


OBSERVE_FLOWS = {
    "default": (
        [], 106,
        "bc5f7e6665eacd53e657922920d0fd794e00bf23d92111d219f1213b1722c62f"),
    "drop": (
        ["--drop", "0.15", "--seed", "3"], 114,
        "37344a08c38797d2b03592a1ddc383b2bf9bf4a8716cff6216ff805ac0b99991"),
    "intra-node": (
        ["--intra-node"], 10,
        "c74433fa2134fcff2a736a57eed5bc83acb8f2603bf0cd191e677c0bbe48a094"),
    "64k": (
        ["--bytes", "65536"], 1198,
        "315811ebb1e355794a72301176f745694e103899cb93e001a8cce2e7c97eb8d6"),
}


@pytest.mark.parametrize("variant", sorted(OBSERVE_FLOWS))
def test_observe_flow_digest(variant, tmp_path, capsys):
    argv, count, digest = OBSERVE_FLOWS[variant]
    path = tmp_path / "spans.json"
    assert cli.main(["observe", *argv, "--spans-out", str(path)]) == 0
    capsys.readouterr()
    flows = _flow_events(path)
    assert len(flows) == count
    assert _sha(json.dumps(flows)) == digest
