"""Every subcommand's output bytes against a committed record of their sha256.

A change that claims no behaviour change must leave every byte a run
writes where it was: each output file, stdout and the exit code.  The
record also names the numpy version and platform it was made on; on any
other, floating-point results may differ in the last bit, so the test
skips and names both.  A change that moves a byte on purpose re-records
with

    PYTHONPATH=src python tests/test_output_digests.py

and states the drift in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import platform
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import zkbs.cli
from zkbs.cli import main

RECORD = Path(__file__).with_name("output_digests.json")

# the CLI tests' compact desk geometry, and linear-verify's smallest grid for its fixed modes
SMALL = ["--t-end", "0.05"]
SMALL_CONFIG = "nx = 64\nny = 16\n"
LINEAR_CONFIG = "nx = 34\nny = 6\n"
# the desk bump at amplitude 3 with h = 1: at t = 0, 20 grid points sit on the
# flux table's band 1 < |u| < 2 and 18 on its linear tail
H1_ACTIVE_CONFIG = SMALL_CONFIG + "amplitude = 3\n"

# run name -> (config text, or None for the defaults; the command line)
RUNS = {
    "simulate-desk": (None, ["simulate"]),
    "simulate": (SMALL_CONFIG, ["simulate", *SMALL]),
    "audit": (SMALL_CONFIG, ["audit", *SMALL]),
    "audit-h1": (SMALL_CONFIG, ["audit", *SMALL, "--h", "1"]),
    "simulate-h1-active": (H1_ACTIVE_CONFIG, ["simulate", *SMALL, "--h", "1"]),
    "decay": (SMALL_CONFIG, ["decay", *SMALL]),
    "picard": (SMALL_CONFIG, ["picard", *SMALL]),
    "linear-verify": (LINEAR_CONFIG, ["linear-verify", *SMALL]),
}


def environment() -> dict:
    return {"numpy": np.__version__, "platform": f"{platform.system()}-{platform.machine()}"}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(name: str, root: Path) -> dict:
    """The exit code and the sha256 of stdout and of every output file of one run.

    A run that makes forced linear solves (linear-verify) also records the
    sha256 of their final snapshots, in call order: its report holds only
    oracle errors at rounding level, which a last-bit change to the solve
    need not move.
    """
    text, argv = RUNS[name]
    work = root / name
    out = work / "out"
    out.mkdir(parents=True)
    if text is not None:
        (work / "run.cfg").write_text(text)
        argv = [*argv, "--config", str(work / "run.cfg")]
    finals, solve = [], zkbs.cli.duhamel_solve

    def recording_solve(u0, forcing, *args, **kwargs):
        traj = solve(u0, forcing, *args, **kwargs)
        if forcing is not None:
            finals.append(traj.snapshots[-1].tobytes())
        return traj

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            mock.patch.object(zkbs.cli, "duhamel_solve", recording_solve):
        code = main([*argv, "--out", str(out)])
    files = {p.name: sha256(p.read_bytes()) for p in sorted(out.iterdir())}
    digests = {"exit": code, "stdout": sha256(stdout.getvalue().encode()), "files": files}
    if finals:
        digests["forced_finals"] = sha256(b"".join(finals))
    return digests


def test_record_covers_every_run():
    assert sorted(json.loads(RECORD.read_text())["runs"]) == sorted(RUNS)


@pytest.mark.parametrize("name", RUNS)
def test_outputs_match_the_recorded_digests(name, tmp_path):
    record = json.loads(RECORD.read_text())
    here = environment()
    if record["environment"] != here:
        pytest.skip(f"digests recorded on {record['environment']}, running on {here}")
    assert run_digests(name, tmp_path) == record["runs"][name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: run_digests(name, Path(tmp)) for name in RUNS}
    RECORD.write_text(json.dumps({"environment": environment(), "runs": runs},
                                 indent=2, sort_keys=True) + "\n")
