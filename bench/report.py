"""Run every workload untraced and traced, print every metric, self-check.

    python3 bench/report.py [--seconds S]

For each workload of BENCHMARK.json, with seed SEED, this runs ``bench/run.py`` with ``--trace 0`` and then
``--trace 1`` and prints each end-to-end and per-layer metric by name,
with its value, unit and the number of processes it was taken over.
The default ``--seconds 1`` makes it a smoke run (the minimum number of
repetitions).  It then checks that:

  * every run passed its correctness gates;
  * each run emitted exactly the metric names and units that
    BENCHMARK.json declares;
  * the traced self times of the layers sum to the traced ``solve_s``
    within SELF_SUM_TOL, so the layer numbers explain the end-to-end one.

Exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS  # noqa: E402

SELF_SUM_TOL = 0.05
SEED = 1


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(ROOT))
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_build" / "results" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result, record = run(name, SEED, args.seconds, trace)
            print(f"\n== {name}  --trace {trace}  gates {result['attempted'] - result['failed']}"
                  f"/{result['attempted']} passed")
            for metric, row in record["metrics"].items():
                print(f"  {metric:42s} {row['value']:>14.6g} {row['unit']:<11s} n={row['n']}")
            if not result["correct"]:
                problems.append(f"{name}: gates failed: {record['failures'][:3]}")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != declared[trace]:
                missing = sorted(set(declared[trace]) - set(emitted))
                extra = sorted(set(emitted) - set(declared[trace]))
                problems.append(f"{name} --trace {trace}: metrics differ from BENCHMARK.json "
                                f"(missing {missing}, extra {extra}, or units)")
            if trace:
                m = result["metrics"]
                layers = sum(m[f"{layer}.self_s"]["value"] for layer in LAYERS)
                frac = layers / m["trace.solve_s"]["value"]
                print(f"  layer self_s sum / traced solve_s = {frac:.4f}")
                if abs(frac - 1.0) > SELF_SUM_TOL:
                    problems.append(f"{name}: layer self_s sum is {frac:.4f} of solve_s")
    for p in problems:
        print(f"[FAIL] {p}")
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
