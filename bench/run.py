"""zkbs benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the checkout root is the parent of
this file's directory and zkbs is imported from its ``src/``.  Workloads
run one process at a time, each in a fresh ``python3 bench/child.py``
process with BLAS/OpenMP threads capped at the CPU count.

--trace 0  repeats the workload in untraced processes for about S
           seconds and reports the end-to-end metrics: medians over the
           repetitions, ``setup_s`` over every process started.
--trace 1  measures the import breakdown with ``-X importtime``, then
           alternates untraced and traced processes and reports the
           per-layer metrics (medians over traced processes) and the
           tracing overhead.

Every repetition runs the workload's correctness gates; the last stdout
line is {"correct", "attempted", "failed", "metrics"}.  A full record
(samples, gate outcomes, provenance) goes to
.bench_build/results/<workload>-seed<N>-trace<T>.json.  Exits 2 without
a result when the checkout holds no zkbs sources, 3 when no repetition
produced timings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
sys.path.insert(0, str(HERE))

from tracer import LAYERS, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 3            # untraced repetitions per --trace 0 run
MIN_SETUP_SAMPLES = 6   # fresh processes timed for setup_s per --trace 0 run
MIN_TRACED = 2          # traced (and untraced) repetitions per --trace 1 run
CHILD_TIMEOUT_S = 60
OVERRUN_S = 60         # stop repeating this long past --seconds even below the minimum

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "step_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
}

# (span name, reported fields); see bench/README.md for what each should move
TRACED_FUNCTIONS = (
    ("domain.to_grid", ("calls", "self_s")),
    ("domain.to_spectral", ("calls", "self_s")),
    ("domain.grid_quadrature", ("calls", "self_s")),
    ("dynamics.simulate", ("self_s",)),
    ("dynamics.RegularizedFlux.__call__", ("calls", "self_s")),
    ("dynamics.eta", ("calls", "self_s")),
    ("dynamics.picard_solve", ("self_s",)),
    ("semigroup.duhamel_solve", ("self_s",)),
    ("semigroup.apply_semigroup", ("calls", "self_s")),
    ("semigroup.phi", ("calls", "self_s")),
    ("semigroup.symbol", ("calls",)),
    ("io.write_diagnostics_csv", ("self_s",)),
    ("io.write_snapshot", ("calls", "self_s")),
    ("functionals.audit_identity", ("self_s",)),
    ("cli.main", ("self_s",)),
)
IMPORT_MODULES = ("zkbs",) + LAYERS + ("calibration",)


def per_layer_units() -> dict[str, str]:
    units = {}
    for name, fields in TRACED_FUNCTIONS:
        for f in fields:
            units[f"{name}.{f}"] = "count" if f == "calls" else "s"
    units["domain.to_grid.calls_per_step"] = "count/step"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({
        "dynamics.flux.active_frac": "frac",
        "dynamics.picard_solve.sweeps": "count",
        "io.bytes_written": "bytes",
    })
    for mod in IMPORT_MODULES:
        units[f"{mod}.import_s"] = "s"
    units.update({
        "import.process_s": "s",
        "trace.solve_s": "s",
        "trace.overhead_frac": "frac",
        "trace.self_sum_frac": "frac",
    })
    return units


PER_LAYER = per_layer_units()


# ------------------------------------------------------------ processes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = nproc
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env.pop("PYTHONPATH", None)
    return env


def spawn(name: str, seed: int, out: Path, trace: bool, env: dict,
          setup_only: bool = False) -> dict | None:
    """Run one child process; its result dict, or None if it crashed."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    with open(out / "log.txt", "w") as log:
        spawn_ns = time.monotonic_ns()
        cmd = [sys.executable, str(HERE / "child.py"), name, str(seed), str(out),
               "1" if trace else "0", str(spawn_ns)] + (["--setup-only"] if setup_only else [])
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                cwd=str(ROOT))
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
    result_file = out / "result.json"
    if code == 4:
        sys.stderr.write((out / "log.txt").read_text())
        raise SystemExit(2)
    if code != 0 or not result_file.is_file():
        return None
    return json.loads(result_file.read_text())


def import_breakdown(env: dict) -> dict[str, float]:
    """Cumulative import seconds per zkbs module, from -X importtime."""
    ienv = dict(env, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import zkbs.cli"],
                          capture_output=True, text=True, env=ienv, cwd=str(ROOT),
                          timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"import zkbs.cli failed:\n{proc.stderr}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m:
            cumulative[m.group(3)] = int(m.group(2)) * 1e-6
    out = {f"{mod}.import_s": cumulative.get(mod if mod == "zkbs" else f"zkbs.{mod}", 0.0)
           for mod in IMPORT_MODULES}
    out["import.process_s"] = wall
    return out


# ------------------------------------------------------------ provenance


def git_hash() -> str | None:
    """HEAD commit of the checkout, or None when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int, env: dict, versions: dict) -> dict:
    threads = {k: env[k] for k in sorted(env) if k.endswith("_NUM_THREADS")}
    return {"nproc": len(os.sched_getaffinity(0)), "versions": versions,
            "git_hash": git_hash(), "src_sha256": src_digest(), "seed": seed,
            "threads": threads}


# ------------------------------------------------------------ measurement


class Run:
    """Samples and gate counts gathered over one benchmark run."""

    def __init__(self, name: str, seed: int, trace: bool):
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.trace = trace
        self.env = child_env()
        self.dir = BUILD / "runs" / f"{name}-seed{seed}-trace{int(trace)}"
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.samples: dict[str, list[float]] = {}
        self.versions: dict = {}

    def add(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def process(self, traced: bool = False, setup_only: bool = False) -> dict | None:
        self.count += 1
        out = self.dir / f"p{self.count:03d}"
        res = spawn(self.wl.name, self.seed, out, traced, self.env, setup_only)
        if setup_only:
            if res is not None:
                self.add("setup_s", res["setup_s"])
            return res
        names = self.wl.check_names()
        self.attempted += len(names)
        if res is None:   # a crash fails every gate of the repetition
            self.failed += len(names)
            self.failures.append({"process": out.name, "crashed": True})
            return None
        got = {g["name"]: g for g in res["checks"]}
        for name in names:
            if not (name in got and got[name]["passed"]):
                self.failed += 1
                self.failures.append({"process": out.name, "gate": got.get(name, name)})
        self.versions = res["versions"]
        self.add("setup_s", res["setup_s"])
        prefix = "traced." if traced else ""
        for key in ("solve_s", "cpu_s", "peak_rss_mb"):
            self.add(prefix + key, res[key])
        if traced:
            self.add_layers(json.loads((out / "spans.json").read_text()), res["solve_s"])
        return res

    def add_layers(self, spans: dict, solve_s: float) -> None:
        table = summarize(spans)
        empty = {"calls": 0, "self_s": 0.0}
        for name, fields in TRACED_FUNCTIONS:
            for f in fields:
                self.add(f"{name}.{f}", table.get(name, empty)[f])
        self.add("domain.to_grid.calls_per_step",
                 table.get("domain.to_grid", empty)["calls"] / self.wl.steps())
        for layer in LAYERS:
            self.add(f"{layer}.self_s", sum(row["self_s"] for fn, row in table.items()
                                            if fn.startswith(layer + ".")))
        counters = spans["counters"]
        self.add("dynamics.flux.active_frac",
                 counters.get("flux_active", 0) / max(counters.get("flux_points", 0), 1))
        self.add("dynamics.picard_solve.sweeps", counters.get("picard_sweeps", 0))
        self.add("io.bytes_written", counters.get("bytes_written", 0))
        self.add("trace.self_sum_frac",
                 sum(row["self_s"] for row in table.values()) / solve_s)

    def sample_count(self, metric: str) -> int:
        """Number of processes a reported metric was taken over."""
        if metric in self.samples:
            return len(self.samples[metric])
        return len(self.samples["traced.solve_s" if self.trace else "solve_s"])

    def median(self, key: str) -> float:
        return statistics.median(self.samples[key])

    def measure(self, seconds: float) -> None:
        if self.dir.exists():
            shutil.rmtree(self.dir)
        # warm-up: byte-compile src/ and fill the page cache; not counted
        if spawn(self.wl.name, self.seed, self.dir / "warmup", False, self.env,
                 setup_only=True) is None:
            raise SystemExit(3)
        start = time.monotonic()
        if self.trace:
            for key, value in import_breakdown(self.env).items():
                self.add(key, value)
        durations = []
        while True:
            t0 = time.monotonic()
            if self.trace:
                # adjacent pairs share the machine's load, so their ratio is
                # steadier than a ratio of medians
                plain, traced = self.process(traced=False), self.process(traced=True)
                if plain is not None and traced is not None:
                    self.add("trace.overhead_frac", traced["solve_s"] / plain["solve_s"] - 1.0)
            else:
                self.process()
            durations.append(time.monotonic() - t0)
            done = len(durations) >= (MIN_TRACED if self.trace else MIN_REPS)
            if done and time.monotonic() + statistics.median(durations) > start + seconds:
                break
            if time.monotonic() > start + seconds + OVERRUN_S:
                break
        if not self.trace:
            for _ in range(MIN_SETUP_SAMPLES - len(self.samples.get("setup_s", []))):
                self.process(setup_only=True)

    def metrics(self) -> dict[str, float]:
        if "solve_s" not in self.samples or (self.trace and "trace.overhead_frac" not in self.samples):
            raise SystemExit(3)
        pass_frac = (self.attempted - self.failed) / self.attempted
        if not self.trace:
            solve = self.median("solve_s")
            return {"setup_s": self.median("setup_s"), "solve_s": solve,
                    "step_ms": 1e3 * solve / self.wl.steps(),
                    "cpu_s": self.median("cpu_s"), "peak_rss_mb": self.median("peak_rss_mb"),
                    "pass_frac": pass_frac}
        out = {key: self.median(key) for key in PER_LAYER if key in self.samples}
        out["trace.solve_s"] = self.median("traced.solve_s")
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zkbs" / "__init__.py").is_file():
        print(f"no zkbs sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, bool(args.trace))
    run.measure(args.seconds)
    metrics = run.metrics()
    units = PER_LAYER if run.trace else END_TO_END
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "provenance": provenance(args.seed, run.env, run.versions),
        "attempted": run.attempted, "failed": run.failed, "failures": run.failures,
        "samples": run.samples,
        "metrics": {k: {"value": v, "unit": units[k], "n": run.sample_count(k)}
                    for k, v in metrics.items()},
    }
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=repr))
    print(json.dumps({"provenance": record["provenance"], "failures": run.failures[:5]},
                     default=repr))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
