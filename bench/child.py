"""One workload in one fresh process; run by bench/run.py, not by hand.

    python3 bench/child.py WORKLOAD SEED OUT_DIR TRACE(0|1) SPAWN_NS [--setup-only]

SPAWN_NS is the parent's CLOCK_MONOTONIC reading taken just before it
started this process, so ``setup_s`` covers interpreter start, the zkbs
imports and the workload's set-up: the argv of a CLI workload (the CLI
builds its config, domain and initial data inside the timed call), or
the domain and initial field of the library workload.  The result
(timings, CPU and peak memory of this process up to the end of the
solve, gate outcomes, library versions) goes to OUT_DIR/result.json;
with TRACE=1 the spans go to OUT_DIR/spans.json.

Exit codes: 0 the workload ran (its gates may still have failed),
4 zkbs could not be imported from this checkout's src/.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv):
    name, seed, out, trace, spawn_ns = argv[:5]
    setup_only = "--setup-only" in argv[5:]
    seed, trace, spawn_ns = int(seed), trace == "1", int(spawn_ns)
    out = Path(out)

    sys.path.insert(0, str(SRC))
    try:
        import zkbs
        import zkbs.cli  # noqa: F401
    except ImportError as exc:
        print(f"cannot import zkbs from {SRC}: {exc}", file=sys.stderr)
        return 4
    if Path(zkbs.__file__).resolve().parent != SRC / "zkbs":
        print(f"zkbs resolved outside {SRC}: {zkbs.__file__}", file=sys.stderr)
        return 4
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    work = out / "work"
    ctx = wl.setup(seed, work)
    setup_s = (time.monotonic_ns() - spawn_ns) * 1e-9
    result = {"setup_s": setup_s}
    if not setup_only:
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            tracer.active = True
        t0 = time.perf_counter()
        output = wl.solve(ctx)
        solve_s = time.perf_counter() - t0
        usage = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.active = False
            tracer.dump(out / "spans.json")
        import numpy
        import scipy

        result.update({
            "solve_s": solve_s,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,   # ru_maxrss is KiB on Linux
            "checks": wl.check(ctx, output),
            "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                         "scipy": scipy.__version__, "zkbs": zkbs.__version__},
        })
    (out / "result.json").write_text(json.dumps(result, default=repr))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
