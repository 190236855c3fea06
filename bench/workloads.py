"""The five benchmark workloads: inputs, the timed call into zkbs, and gates.

Each workload splits into three parts that run in one fresh process:

  setup   the inputs of the solve (after the imports): the CLI argv, or
          for the library workload the domain and the initial field;
  solve   the one call into zkbs that ``solve_s`` times;
  check   correctness gates on what the solve produced.

This module imports no numpy or zkbs at top level: the benchmark driver
imports it for workload names, step counts and check names without
paying for the numerical stack.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

DESK_DT = 1e-3

# Relative tolerances of the reference gates.  Rounding-level drift (a
# reordered FFT, real-FFT storage) moves final norms by ~1e-13 relative;
# a wrong step (first-order scheme, flipped dispersion, dropped
# nonlinear term) moves them by 1e-5 or more.
NORM_RTOL = 1e-8
# Audit residuals are truncation errors of ~1e-9 on O(1) energies, so
# rounding moves them by ~1e-7 relative; a wrong step moves them by O(1).
RESIDUAL_RTOL = 1e-5
# The first Picard contraction ratio per window is a quotient of two
# successive differences far above rounding.
RATIO_RTOL = 1e-6
# Regularized flux against the adaptive-quadrature oracle.
ORACLE_ABS = 1e-11
ORACLE_SAMPLES = 64

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def gate(name: str, passed: bool, value, threshold) -> dict:
    return {"name": name, "passed": bool(passed), "value": value,
            "threshold": threshold}


def rel_gate(name: str, got: float, want: float, rtol: float) -> dict:
    err = abs(got - want) / max(abs(want), 1e-300)
    return gate(name, err <= rtol, err, rtol)


class Workload:
    """Base: a CLI subcommand run through ``zkbs.cli.main``.

    ``flags`` holds the RunConfig fields the workload sets away from
    their defaults; they become CLI flags.  Set-up only builds the argv:
    the CLI loads its config, plans the domain and builds the initial
    data itself, inside the timed call.
    """

    name = ""
    subcommand = ""
    flags: dict = {}
    cli_checks: tuple[str, ...] = ()
    summary_file = ""

    def argv(self, seed: int, out: Path) -> list[str]:
        flags = [f for key, val in self.flags.items()
                 for f in (f"--{key.replace('_', '-')}", repr(val))]
        return [self.subcommand, *flags, "--seed", str(seed),
                "--out", str(out), "--tolerance-profile", "default"]

    def check_names(self) -> list[str]:
        return (["exit_code", "profile_default"]
                + [f"cli.{c}" for c in self.cli_checks] + self.reference_names())

    def reference_names(self) -> list[str]:
        return []

    def steps(self) -> int:
        raise NotImplementedError

    def setup(self, seed: int, out: Path) -> dict:
        return {"argv": self.argv(seed, out), "out": out}

    def solve(self, ctx: dict):
        from zkbs import cli

        return cli.main(ctx["argv"])

    def check(self, ctx: dict, code) -> list[dict]:
        out = ctx["out"]
        gates = [gate("exit_code", code == 0, code, 0)]
        path = out / self.summary_file
        summary = json.loads(path.read_text()) if path.is_file() else {}
        gates.append(gate("profile_default", summary.get("profile") == "default",
                          summary.get("profile"), "default"))
        by_name = {c["name"]: c for c in summary.get("checks", [])}
        for name in self.cli_checks:
            item = by_name.get(name)
            gates.append(gate(f"cli.{name}", bool(item and item["passed"]),
                              item["value"] if item else "missing", "[ok]"))
        gates.extend(self.reference_gates(ctx, summary))
        return gates

    def reference_gates(self, ctx: dict, summary: dict) -> list[dict]:
        return []


def _read_snapshot(path: Path, nx: int, ny: int):
    """Snapshot payload parsed with numpy alone (16-byte header, <f8 rows)."""
    import numpy as np

    raw = path.read_bytes()
    if raw[:4] != b"ZKBS" or len(raw) != 16 + 8 * nx * ny:
        raise ValueError(f"{path.name}: not a {nx}x{ny} snapshot")
    return np.frombuffer(raw[16:], dtype="<f8").reshape(nx, ny)


def snapshot_moments(u, X: float, L: float) -> tuple[list[float], list[float]]:
    """Moments of a grid field, and the same with absolute integrands.

    The moments are mass, energy, x-weighted energy (transport direction),
    the cubic integral, and the two lowest x-Fourier projections on the
    first wall mode (dispersion phase).  The absolute versions give each
    moment the scale its tolerance is relative to.
    """
    import numpy as np

    nx, ny = u.shape
    x = (-X + 2.0 * X * np.arange(nx) / nx)[:, None]
    y = (L * np.arange(1, ny + 1) / (ny + 1))[None, :]
    w = (2.0 * X / nx) * (L / (ny + 1))
    s1 = np.sin(np.pi * y / L)
    cx, sx = np.cos(np.pi * x / X), np.sin(np.pi * x / X)
    au = np.abs(u)
    terms = [(u, au), (u**2, u**2), (x * u**2, np.abs(x) * u**2),
             (u**3, au**3), (u * cx * s1, au), (u * sx * s1, au)]
    vals = [w * float(np.sum(t)) for t, _ in terms]
    scales = [w * float(np.sum(a)) for _, a in terms]
    return vals, scales


class SimulateDesk(Workload):
    """The desk scenario's ms per step: transform-bound ETD2 with full recording."""

    name = "simulate_desk"
    subcommand = "simulate"
    flags = {"t_end": 0.2}
    summary_file = "summary.json"
    cli_checks = ("l2_monotone_decay", "flux_orthogonality")

    def steps(self):
        return round(self.flags["t_end"] / DESK_DT)

    def reference_names(self):
        return ["ref.final_l2", "ref.csv_rows", "ref.final_h1", "ref.final_h2",
                "ref.snapshots", "ref.final_moments"]

    def reference_gates(self, ctx, summary):
        from zkbs.cli import load_config

        ref = load_reference()[self.name]
        out, cfg = ctx["out"], load_config(None, self.flags)
        gates = [rel_gate("ref.final_l2", float(summary.get("final_l2", math.nan)),
                          ref["final_l2"], NORM_RTOL)]
        csv = out / "diagnostics.csv"
        rows = csv.read_text().splitlines()[1:] if csv.is_file() else []
        gates.append(gate("ref.csv_rows", len(rows) == self.steps() + 1,
                          len(rows), self.steps() + 1))
        last = rows[-1].split(",") if rows else ["nan"] * 4
        gates.append(rel_gate("ref.final_h1", float(last[2]), ref["final_h1"], NORM_RTOL))
        gates.append(rel_gate("ref.final_h2", float(last[3]), ref["final_h2"], NORM_RTOL))
        names = sorted(p.name for p in out.glob("snapshot_*.zkbs"))
        want = [f"snapshot_{0:06d}.zkbs", f"snapshot_{self.steps():06d}.zkbs"]
        gates.append(gate("ref.snapshots", names == want, names, want))
        if names == want:
            u = _read_snapshot(out / want[-1], cfg.nx, cfg.ny)
            vals, scales = snapshot_moments(u, cfg.X, cfg.L)
            err = max(abs(v - r) / s for v, r, s in zip(vals, ref["final_moments"], scales))
        else:
            err = math.inf
        gates.append(gate("ref.final_moments", err <= NORM_RTOL, err, NORM_RTOL))
        return gates


class AuditDesk(Workload):
    """Desk stepping at dt and dt/2 that uses every recorded series."""

    name = "audit_desk"
    subcommand = "audit"
    flags = {"t_end": 0.06}
    summary_file = "audit.json"
    cli_checks = ("mass_abs_residual", "mass_refinement_factor",
                  "h1_3_15_refinement_factor", "h2_3_29_refinement_factor")
    identities = ("mass_3_3", "h1_3_15", "combined_3_23", "h2_3_29")

    def steps(self):
        n = round(self.flags["t_end"] / DESK_DT)
        return n + 2 * n

    def reference_names(self):
        return [f"ref.{i}.residuals" for i in self.identities]

    def reference_gates(self, ctx, summary):
        ref = load_reference()[self.name]
        table = summary.get("identities", {})
        gates = []
        for ident in self.identities:
            got = table.get(ident, {})
            want = ref[ident]
            err = max(abs(got.get(k, math.nan) - want[k]) / abs(want[k])
                      for k in ("max_residual_coarse", "max_residual_fine"))
            gates.append(gate(f"ref.{ident}.residuals", err <= RESIDUAL_RTOL,
                              err, RESIDUAL_RTOL))
        return gates


class PicardWindow(Workload):
    """Whole-window Picard sweeps; the working set grows with the window."""

    name = "picard_window"
    subcommand = "picard"
    flags = {"dt": 5e-4}
    summary_file = "picard.json"
    cli_checks = ("contraction_ratios_below_one", "picard_matches_etd2")
    windows = (0.0125, 0.025, 0.05)   # the grid hard-wired in cmd_picard

    def steps(self):
        # each window, then the ETD2 reference over the first one
        dt = self.flags["dt"]
        window_steps = sum(max(1, round(t0 / dt)) for t0 in self.windows)
        return window_steps + max(1, round(self.windows[0] / dt))

    def reference_names(self):
        return [f"ref.window_{t0:g}" for t0 in self.windows]

    def reference_gates(self, ctx, summary):
        ref = load_reference()[self.name]
        rows = {row["t0"]: row for row in summary.get("grid", [])}
        gates = []
        for t0, want in zip(self.windows, ref["windows"]):
            row = rows.get(t0, {})
            sweeps = row.get("iterations", -1)
            ratio = (row.get("ratios") or [math.nan])[0]
            err = abs(ratio - want["first_ratio"]) / want["first_ratio"]
            ok = (row.get("converged") is True and abs(sweeps - want["iterations"]) <= 1
                  and err <= RATIO_RTOL)
            gates.append(gate(f"ref.window_{t0:g}", ok,
                              {"sweeps": sweeps, "first_ratio_rel_err": err},
                              {"sweeps": f"{want['iterations']} +- 1",
                               "first_ratio_rtol": RATIO_RTOL}))
        return gates


class LinearVerify(Workload):
    """linear-verify on its defaults: the forced linear solve (semigroup layer)."""

    name = "linear_verify"
    subcommand = "linear-verify"
    summary_file = "linear_verify.json"
    cli_checks = ("propagator_single_modes", "propagator_superpositions",
                  "semigroup_property", "linearity", "duhamel_vs_oracle_constant",
                  "duhamel_vs_oracle_cubic", "duhamel_vs_oracle_smooth",
                  "linear_mass_refinement_order")

    def steps(self):
        # three forced solves over T = 1 at dt, then the homogeneous
        # refinement pair over 0.5 at 2e-3 and 1e-3 (see cmd_linear_verify)
        return 3 * round(1.0 / DESK_DT) + round(0.5 / 2e-3) + round(0.5 / 1e-3)


class CutoffActive(Workload):
    """Library simulate with most of the grid on the flux's band or tail path.

    It calls the library, not the CLI, because the CLI's
    flux_orthogonality check holds only for h = none.  The seed's
    random_band field is scaled so that the same share of grid points
    starts beyond 1/h for every seed (peak |u| comes out near 8): the
    flux's cost and temporaries grow with that share, and a fixed share
    keeps the seed from moving the timings.
    """

    name = "cutoff_active"
    h = 1.0
    active_share = 0.7
    nsteps = 4

    def check_names(self):
        return ["no_blowup", "completed_steps", "l2_nonincreasing", "flux_matches_oracle"]

    def steps(self):
        return self.nsteps

    def setup(self, seed, out):
        import numpy as np
        from zkbs.cli import RunConfig
        from zkbs.domain import GridField
        from zkbs.dynamics import RegularizedFlux, StepperConfig
        from zkbs.initial_data import random_band

        d = RunConfig().domain()
        u = random_band(d, seed, amplitude=1.0).values
        scale = (1.0 / self.h) / np.quantile(np.abs(u), 1.0 - self.active_share)
        u0 = GridField(u * scale)
        return {"d": d, "u0": u0, "T": self.nsteps * DESK_DT,
                "stepper": StepperConfig(dt=DESK_DT), "flux": RegularizedFlux(h=self.h)}

    def solve(self, ctx):
        from zkbs.dynamics import simulate

        return simulate(ctx["u0"], ctx["T"], ctx["stepper"], ctx["flux"], ctx["d"])

    def check(self, ctx, traj):
        import numpy as np
        from zkbs.cli import PROFILES
        from zkbs.domain import SpectralField, to_grid
        from zkbs.dynamics import g_h

        flux, d = ctx["flux"], ctx["d"]
        gates = [gate("no_blowup", traj.blowup_time is None, traj.blowup_time, None),
                 gate("completed_steps", len(traj.times) == self.nsteps + 1,
                      len(traj.times), self.nsteps + 1)]
        slack = PROFILES["default"]["monotone_slack"] * max(1.0, float(traj.l2[0]))
        jump = float(np.max(np.diff(traj.l2), initial=0.0))
        gates.append(gate("l2_nonincreasing", jump <= slack, jump, slack))

        # a fixed, evenly spaced sample of the final state's in-band values
        final = to_grid(SpectralField(traj.snapshots[-1]), d).values.ravel()
        band = np.sort(final[(np.abs(final) > 1.0 / flux.h) & (np.abs(final) < 2.0 / flux.h)])
        pick = band[np.linspace(0, band.size - 1, min(ORACLE_SAMPLES, band.size)).astype(int)] \
            if band.size else band
        if pick.size:
            dev = float(np.max(np.abs(flux(pick) - np.array([g_h(v, flux) for v in pick]))))
        else:
            dev = math.inf
        gates.append(gate("flux_matches_oracle", dev <= ORACLE_ABS,
                          {"max_abs_dev": dev, "samples": int(pick.size)}, ORACLE_ABS))
        return gates


WORKLOADS = {w.name: w for w in (SimulateDesk(), AuditDesk(), CutoffActive(),
                                 PicardWindow(), LinearVerify())}
