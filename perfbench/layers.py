"""Per-layer host-time profile for traced runs.

Two deterministic profilers (``cProfile``) split each operation at its
first simulated event: the *build* profiler runs from the start of the
operation, the *run* profiler from the first ``Environment.run`` entry
(see :class:`harness.PhaseClock`).  Self time is charged to the layer
(a ``repro`` package) of the function that spent it:

* ``cluster`` - ``repro/cluster.py``; ``sim``, ``hw``, ``firmware``,
  ``kernel``, ``bcl``, ``upper``, ``serve``, ``workloads`` - the
  package of that name;
* ``trace`` - the program's own observers: ``repro/sim/trace.py``, the
  scale/serve ``_StageAggregator`` and ``critical_path.canonical_stage``;
* builtins, the standard library and third-party code have no layer of
  their own: their self time goes to the layers of their callers, in
  proportion to the time each caller spent in them, up the call graph
  until a ``repro`` function is reached;
* ``other`` - every other ``repro`` module (experiment drivers,
  measurement helpers, config), the benchmark's own code, and time
  whose caller the profiler did not record.
"""

from __future__ import annotations

import cProfile

LAYERS = ("cluster", "sim", "trace", "hw", "firmware", "kernel", "bcl",
          "upper", "serve", "workloads", "other")
_PACKAGES = frozenset(LAYERS) - {"cluster", "trace", "other"}
_STAGE_AGGREGATOR = frozenset({"__init__", "_on_record", "table"})

#: profiler entries counted as simulated work: (module tail, function)
ROUTE_WALK = ("repro/hw/network.py", "walk_route")
PACKET_HOP = ("repro/firmware/packet.py", "hop")


class PhaseProfiles:
    """A build and a run profiler, switched by the phase clock."""

    def __init__(self):
        self.build = cProfile.Profile()
        self.run = cProfile.Profile()
        self._active = None

    def _switch(self, prof) -> None:
        if self._active is not None:
            self._active.disable()
        self._active = prof
        if prof is not None:
            prof.enable()

    def enter_build(self) -> None:
        self._switch(self.build)

    def enter_run(self) -> None:
        self._switch(self.run)

    def leave(self) -> None:
        self._switch(None)


def layer_of(key: tuple) -> str | None:
    """The layer a profiler entry belongs to; ``None`` for code with no
    layer of its own (builtins, stdlib, third party)."""
    filename, _line, func = key
    path = filename.replace("\\", "/")
    if "/perfbench/" in path:
        return "other"
    at = path.rfind("/repro/")
    if at < 0:
        return None
    rel = path[at + len("/repro/"):]
    if rel == "sim/trace.py":
        return "trace"
    if rel == "telemetry/critical_path.py" and func == "canonical_stage":
        return "trace"
    if rel == "experiments/scale.py" and func in _STAGE_AGGREGATOR:
        return "trace"
    if rel == "cluster.py":
        return "cluster"
    package = rel.split("/", 1)[0]
    return package if package in _PACKAGES else "other"


def charge(stats: dict) -> tuple[dict, dict]:
    """``(self_s, calls)`` per layer from a ``cProfile`` stats dict."""
    shares: dict[tuple, dict] = {}

    def share(key, visiting) -> dict:
        """Fractions of ``key``'s time that belong to each layer."""
        if key in shares:
            return shares[key]
        layer = layer_of(key)
        if layer is not None:
            shares[key] = {layer: 1.0}
            return shares[key]
        callers = stats[key][4] if key in stats else {}
        weights: dict[str, float] = {}
        total = 0.0
        for caller, edge in callers.items():
            weight = edge[3] or edge[2] or float(edge[1])
            if caller in visiting or weight <= 0:
                continue
            for lay, frac in share(caller, visiting | {key}).items():
                weights[lay] = weights.get(lay, 0.0) + weight * frac
            total += weight
        result = ({lay: w / total for lay, w in weights.items()}
                  if total > 0 else {"other": 1.0})
        if not visiting:
            shares[key] = result     # cycle-free answers only
        return result

    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for key, (_cc, nc, tt, _ct, _callers) in stats.items():
        for layer, frac in share(key, frozenset()).items():
            self_s[layer] += tt * frac
        layer = layer_of(key)
        if layer is not None:
            calls[layer] += nc
    return self_s, calls


def call_count(stats: dict, target: tuple) -> int:
    tail, func = target
    return sum(v[1] for (filename, _line, name), v in stats.items()
               if name == func and filename.replace("\\", "/").endswith(tail))


def profile_stats(profiles: PhaseProfiles) -> tuple[dict, dict]:
    """``(build_stats, run_stats)`` dicts of the two profilers."""
    out = []
    for prof in (profiles.build, profiles.run):
        prof.create_stats()
        out.append(prof.stats)
    return out[0], out[1]
