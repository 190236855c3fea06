"""Outside-in span tracer for the zkbs layers.

``Tracer.install`` wraps every function a layer module lists in
``__all__``, plus ``semigroup.phi`` and ``RegularizedFlux.__call__``,
and rebinds each wrapped name in every loaded ``zkbs.*`` module (and in
module-level dicts such as the generator table) that held the original,
so calls between layers, e.g. ``dynamics`` -> ``to_grid``, are caught.  Nothing under ``src/``
changes.

Each call inside the traced window records a span (function, start,
end, parent) in flat in-memory lists.  ``dump`` writes them out once the
run ends; ``summarize`` derives per-function ``calls`` and ``self_s``
(duration minus the time covered by child spans).  Calls are synchronous
and single-threaded, so child spans nest and never overlap.

A few wrapped functions carry a probe that reads a count from the call
(flux inputs beyond the cutoff, Picard sweeps, bytes written).  Probe
time is itself recorded as a ``trace.probe`` span, so it stays out of
the self time of the function that made the call.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

LAYERS = ("domain", "semigroup", "dynamics", "functionals", "initial_data",
          "io", "trajectory", "cli")

PROBE = "trace.probe"

# module functions traced although the module does not export them
EXTRA = {"semigroup": ("phi",)}


def _flux_probe(counters, args, kwargs, result):
    import numpy as np

    flux, u = args[0], np.asarray(args[1])
    counters["flux_points"] = counters.get("flux_points", 0) + u.size
    if flux.h is not None:
        active = int(np.count_nonzero(np.abs(u) > 1.0 / flux.h))
        counters["flux_active"] = counters.get("flux_active", 0) + active


def _picard_probe(counters, args, kwargs, result):
    counters["picard_sweeps"] = counters.get("picard_sweeps", 0) + result[1].iterations


def _bytes_probe(counters, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counters["bytes_written"] = counters.get("bytes_written", 0) + os.path.getsize(path)


PROBES = {
    "dynamics.RegularizedFlux.__call__": _flux_probe,
    "dynamics.picard_solve": _picard_probe,
    "io.write_snapshot": _bytes_probe,
    "io.write_diagnostics_csv": _bytes_probe,
    "io.write_json": _bytes_probe,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fid: list[int] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.counters: dict[str, int] = {}
        self.active = False
        self._stack: list[int] = []

    def _open(self, fid: int) -> int:
        idx = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        probe = PROBES.get(name)
        probe_fid = self.names.index(PROBE) if probe else -1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if probe is not None:
                pidx = self._open(probe_fid)
                try:
                    probe(self.counters, args, kwargs, result)
                finally:
                    self._close(pidx)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layer functions and rebind them across zkbs modules."""
        self.names.append(PROBE)
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"zkbs.{layer}"]
            for attr in (*getattr(mod, "__all__", ()), *EXTRA.get(layer, ())):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        flux_cls = sys.modules["zkbs.dynamics"].RegularizedFlux
        flux_cls.__call__ = self.wrap("dynamics.RegularizedFlux.__call__",
                                      flux_cls.__call__)
        for modname, mod in list(sys.modules.items()):
            if modname != "zkbs" and not modname.startswith("zkbs."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in replaced:
                    setattr(mod, attr, replaced[id(val)])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if id(item) in replaced:
                            val[key] = replaced[id(item)]

    def dump(self, path) -> None:
        payload = {"names": self.names, "fid": self.fid, "parent": self.parent,
                   "start": self.start, "end": self.end, "counters": self.counters}
        with open(path, "w") as fh:
            json.dump(payload, fh)


def summarize(spans: dict) -> dict[str, dict]:
    """Per-function {"calls", "self_s"} from a dumped span record."""
    names, fid, parent = spans["names"], spans["fid"], spans["parent"]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    child = [0] * len(dur)
    for idx, par in enumerate(parent):
        if par >= 0:
            child[par] += dur[idx]
    out = {name: {"calls": 0, "self_s": 0.0} for name in names}
    for idx, f in enumerate(fid):
        row = out[names[f]]
        row["calls"] += 1
        row["self_s"] += (dur[idx] - child[idx]) * 1e-9
    return out
