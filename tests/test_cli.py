import json
import subprocess
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import zkbs.cli
import zkbs.semigroup
from zkbs import SpectralField, duhamel_solve, simulate, symbol, to_grid
from zkbs.cli import ConfigError, RunConfig, load_config, main
from zkbs.domain import _pad_band
from zkbs.functionals import decay_fit
from zkbs.io import read_diagnostics_csv, write_diagnostics_csv


SMALL = """
# compact desk geometry for fast checks
L = 3.141592653589793
X = 50.26548245743669
nx = 64
ny = 16
delta = 0.5
dt = 1e-3
generator = gaussian_bump
amplitude = 0.5
sigma_x = 2.0
t_end = 0.05
"""

# the grid values overflow in the first step
BLOWUP = "generator = traveling_mode\namplitude = 1e120\n"

# the desk bump with most of its peak beyond the cutoff's 1/h
CUTOFF = "amplitude = 3\nh = 1\nt_end = 0.05\n"

# the figures each subcommand adds to experiment, profile, checks and passed
FIGURES = {
    "linear-verify": ("linear_verify.json", set()),
    "simulate": ("summary.json", {"final_time", "final_l2", "blowup_time"}),
    "audit": ("audit.json", {"identities"}),
    "decay": ("decay.json", {"rate_bound", "fits", "threshold_time"}),
    "picard": ("picard.json", {"grid"}),
}


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestConfigParsing:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg == RunConfig()
        assert cfg.h is None

    def test_file_values_and_comments(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SMALL))
        assert cfg.nx == 64 and cfg.ny == 16
        assert cfg.t_end == 0.05
        assert cfg.generator == "gaussian_bump"

    def test_overrides_win(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SMALL),
                          {"dt": 5e-4, "t_end": None})
        assert cfg.dt == 5e-4
        assert cfg.t_end == 0.05  # None overrides are ignored

    def test_h_spellings(self, tmp_path):
        assert load_config(write_cfg(tmp_path, "h = none")).h is None
        assert load_config(write_cfg(tmp_path, "h = off", "b.cfg")).h is None
        assert load_config(write_cfg(tmp_path, "h = 0.5", "c.cfg")).h == 0.5

    def test_dealias_is_an_unknown_key(self, tmp_path):
        # products are always dealiased; an old config that turns it off fails loudly
        cfg = write_cfg(tmp_path, SMALL + "dealias = false\n")
        with pytest.raises(ConfigError, match="unknown config key 'dealias'"):
            load_config(cfg)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert not (tmp_path / "o").exists()

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(write_cfg(tmp_path, "viscosity = 2"))

    def test_bad_value(self, tmp_path):
        with pytest.raises(ConfigError, match="bad value"):
            load_config(write_cfg(tmp_path, "nx = sixty"))

    def test_missing_equals(self, tmp_path):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            load_config(write_cfg(tmp_path, "just words"))

    def test_geometry_validated(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, "nx = 7"))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/run.cfg")


class TestExitCodes:
    def test_simulate_ok(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert code == 0
        assert "[ok] l2_monotone_decay" in out
        assert "[ok] flux_orthogonality" in out
        assert (tmp_path / "o" / "diagnostics.csv").is_file()
        assert (tmp_path / "o" / "summary.json").is_file()

    def test_simulate_blowup_is_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL + (
            "generator = random_band\namplitude = 2000\ndt = 0.1\nt_end = 5\n"))
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "blowup" in capsys.readouterr().out
        import json
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["passed"] is False
        assert summary["blowup_time"] > 0

    def test_audit_gate_failure_is_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL + "amplitude = 1.0\ndt = 2e-2\nt_end = 0.2\n")
        code = main(["audit", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "[FAIL] mass_abs_residual" in capsys.readouterr().out

    def test_missing_config_is_3(self, capsys):
        assert main(["simulate", "--config", "/nonexistent/run.cfg"]) == 3
        assert "config error" in capsys.readouterr().err

    def test_bad_flag_choice_is_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL)
        code = main(["simulate", "--config", cfg, "--tolerance-profile", "lax"])
        assert code == 3

    def test_bad_h_override_is_3(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL)
        assert main(["simulate", "--config", cfg, "--h", "2.5"]) == 3

    @pytest.mark.parametrize("command,report", [
        ("audit", "audit.json"), ("decay", "decay.json"), ("picard", "picard.json")])
    def test_blowup_is_2_with_one_line_and_its_time(self, tmp_path, capsys, command,
                                                    report):
        cfg = write_cfg(tmp_path, SMALL + BLOWUP)
        code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 2
        summary = json.loads((tmp_path / "o" / report).read_text())
        assert set(summary) == {"experiment", "passed", "blowup_time"}
        assert summary["experiment"] == command and summary["passed"] is False
        assert captured.out == f"[FAIL] blowup at t = {summary['blowup_time']:.6g}\n"
        assert captured.err == ""


class TestSimulateOutputs:
    def test_csv_is_deterministic(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL + "generator = random_band\nseed = 31\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
        b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
        assert a == b

    def test_csv_contents_match_trajectory_shape(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        table = read_diagnostics_csv(tmp_path / "o" / "diagnostics.csv")
        assert len(table["t"]) == 51
        assert table["t"][0] == 0.0
        assert np.isclose(table["t"][-1], 0.05)
        assert np.all(np.diff(table["l2"]) <= 1e-12)

    def test_csv_matches_a_full_recording_run(self, tmp_path, capsys):
        # the CLI records norms only; its CSV must equal a full run's
        cfg_path = write_cfg(tmp_path, SMALL)
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0
        cfg = load_config(cfg_path)
        d = cfg.domain()
        traj = simulate(cfg.initial(d), cfg.t_end, cfg.stepper(), cfg.flux(), d,
                        snapshot_stride=cfg.snapshot_stride)
        assert traj.cube is not None
        write_diagnostics_csv(tmp_path / "full.csv", traj)
        assert ((tmp_path / "o" / "diagnostics.csv").read_bytes()
                == (tmp_path / "full.csv").read_bytes())

    def test_snapshots_written_with_stride(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL + "snapshot_stride = 10\nt_end = 0.03\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        names = sorted(p.name for p in (tmp_path / "o").glob("snapshot_*.zkbs"))
        assert names == [
            "snapshot_000000.zkbs",
            "snapshot_000010.zkbs",
            "snapshot_000020.zkbs",
            "snapshot_000030.zkbs",
        ]


class TestOtherCommands:
    def test_decay_does_not_read_the_snapshot_stride(self, tmp_path, capsys):
        # decay fits every boundary's recorded norms, so the stride of
        # simulate's snapshot files changes nothing, even past the run's 50 steps
        outputs = []
        for stride in (0, 1, 200):
            cfg = write_cfg(tmp_path, SMALL + f"snapshot_stride = {stride}\n")
            out = tmp_path / f"o{stride}"
            assert main(["decay", "--config", cfg, "--out", str(out)]) == 0
            outputs.append((capsys.readouterr().out, (out / "decay.json").read_bytes()))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_decay_csv_reproduces_every_fit(self, tmp_path, capsys):
        # decay.csv holds every norm decay fits, so each fit in decay.json,
        # the half orders included, is redone from the output directory bit for bit
        out = tmp_path / "o"
        assert main(["decay", "--config", write_cfg(tmp_path, SMALL), "--out", str(out)]) == 0
        header, *lines = (out / "decay.csv").read_text().splitlines()
        assert header == "t,l2,h1,h2,h_half,h3_half"
        columns = dict(zip(header.split(","), np.array(
            [[float(v) for v in line.split(",")] for line in lines]).T))
        traj = SimpleNamespace(times=columns["t"], **columns)
        fits = json.loads((out / "decay.json").read_text())["fits"]
        assert len(fits) == 5
        for s in (0.0, 0.5, 1.0, 1.5, 2.0):
            fit = decay_fit(traj, s)
            assert fits[f"s={s:g}"] == {"slope": fit.slope, "rms": fit.fit_rms,
                                        "window": list(fit.window), "n": fit.n_samples}

    def test_decay_skips_zero_data(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL + "generator = eigenmode\namplitude = 0\n")
        code = main(["decay", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        assert capsys.readouterr().out == "[n/a] decay_fits: zero initial data\n"
        report = json.loads((tmp_path / "o" / "decay.json").read_text())
        assert report["checks"] == [
            {"name": "decay_fits", "passed": True, "not_applicable": "zero initial data"}]

    def test_audit_skips_zero_data(self, tmp_path, capsys):
        # zero data gives exactly zero residuals, whose refinement factor
        # and order are 0/0
        cfg = write_cfg(tmp_path, SMALL + "nx = 32\nny = 8\n"
                        "generator = eigenmode\namplitude = 0\n")
        code = main(["audit", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        assert capsys.readouterr().out == "[n/a] energy_identities: zero initial data\n"
        report = json.loads((tmp_path / "o" / "audit.json").read_text())
        assert report["checks"] == [{"name": "energy_identities", "passed": True,
                                     "not_applicable": "zero initial data"}]

    def test_simulate_overflowing_data_is_a_blowup_without_warnings(self, tmp_path,
                                                                   capsys):
        cfg = write_cfg(tmp_path, SMALL + "nx = 32\nny = 8\n"
                        "generator = eigenmode\namplitude = 1e200\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "[FAIL] blowup at t = 0\n"
        assert captured.err == ""

    def test_linear_verify_forcing_samples_are_real_fields(self, tmp_path, capsys,
                                                          monkeypatch):
        # every forcing sample must be the spectrum of a real field, so each
        # one synthesizes through to_grid
        samples = []

        def checked_solve(u0, forcing, T, dt, S, **kwargs):
            def sample(t):
                f = forcing(t)
                samples.append(to_grid(SpectralField(f), S.domain).values)
                return f
            return duhamel_solve(u0, None if forcing is None else sample, T, dt, S, **kwargs)

        monkeypatch.setattr(zkbs.cli, "duhamel_solve", checked_solve)
        cfg = write_cfg(tmp_path, SMALL)
        code = main(["linear-verify", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0, capsys.readouterr()
        assert samples

    def test_picard_passes_on_small_amplitude(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL + "amplitude = 0.1\n")
        code = main(["picard", "--config", cfg, "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert code == 0
        assert "[ok] picard_matches_etd2" in out
        assert (tmp_path / "o" / "picard.json").is_file()

    def test_picard_matches_etd2_on_huge_exact_solution(self, tmp_path, capsys):
        # an eigenmode does no flux work, so Picard and ETD2 differ by rounding
        # only, which at amplitude 1e50 is far above any absolute threshold
        text = SMALL.replace("generator = gaussian_bump", "generator = eigenmode")
        cfg = write_cfg(tmp_path, text.replace("amplitude = 0.5", "amplitude = 1e50"))
        code = main(["picard", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        assert "[ok] picard_matches_etd2" in capsys.readouterr().out

    @pytest.mark.parametrize("profile, old_abs", [("default", 1e-6), ("strict", 1e-7)])
    def test_picard_desk_threshold_is_tighter_than_the_old_absolute_one(
            self, tmp_path, capsys, profile, old_abs):
        code = main(["picard", "--out", str(tmp_path / "o"), "--tolerance-profile", profile])
        assert code == 0, capsys.readouterr()
        report = json.loads((tmp_path / "o" / "picard.json").read_text())
        check, = (c for c in report["checks"] if c["name"] == "picard_matches_etd2")
        assert check["passed"] and 0.0 < check["threshold"] < old_abs


@pytest.mark.parametrize("command", sorted(FIGURES))
def test_every_line_is_a_check_and_main_writes_every_report(tmp_path, capsys, command):
    report, figures = FIGURES[command]
    code = main([command, "--config", write_cfg(tmp_path, SMALL), "--out", str(tmp_path / "o")])
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads((tmp_path / "o" / report).read_text())
    assert set(summary) == {"experiment", "profile", "checks", "passed"} | figures
    assert summary["experiment"] == command and summary["profile"] == "default"
    assert code == (0 if summary["passed"] else 1)
    assert all(line.startswith(("[ok] ", "[FAIL] ", "[n/a] ")) for line in lines), lines
    assert [line.split(":")[0].split("] ")[1] for line in lines] == [
        check["name"] for check in summary["checks"]]


@pytest.mark.parametrize("flags", [[], ["--tolerance-profile", "strict", "--dt", "5e-4"]],
                         ids=["default", "strict"])
@pytest.mark.parametrize("command,u2_only", [
    ("simulate", "flux_orthogonality"), ("audit", "combined_3_23")])
def test_cutoff_run_passes_and_skips_the_u2_only_check(tmp_path, capsys, command, u2_only,
                                                       flags):
    # the mass audit pairs against the flux work, so it holds for every h
    report, _ = FIGURES[command]
    code = main([command, "--config", write_cfg(tmp_path, CUTOFF),
                 "--out", str(tmp_path / "o"), *flags])
    out = capsys.readouterr().out
    assert code == 0, out
    assert f"[n/a] {u2_only}: holds for the u^2/2 flux (h = none) only\n" in out
    summary = json.loads((tmp_path / "o" / report).read_text())
    assert {"name": u2_only, "passed": True,
            "not_applicable": "holds for the u^2/2 flux (h = none) only"} in summary["checks"]
    if command == "audit":
        assert u2_only not in summary["identities"]
        assert 3.0 <= summary["identities"]["mass_3_3"]["refinement_factor"] <= 5.0


def test_module_entry_point(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL)
    proc = subprocess.run(
        [sys.executable, "-m", "zkbs", "simulate", "--config", str(cfg),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "[ok]" in proc.stdout


# command, config lines, extra flags, exit code, text its one line must name (a
# tuple, one text per line, for a run that fails more than one check); {file}
# is a regular file, so a directory cannot be made under it
ROBUSTNESS = [
    pytest.param("picard", "picard_max_iter = 1\n", [], 1,
                 ("[FAIL] contraction_ratios_below_one: value='contraction failed, reduce t0",
                  "[FAIL] every_window_converged: value=[0.0125, 0.025, 0.05]"),
                 id="stalled-picard"),
    pytest.param("picard", "picard_max_iter = 4\n", [], 1,
                 "[FAIL] every_window_converged: value=[0.05] threshold=[]",
                 id="stalled-later-picard-window"),
    pytest.param("simulate", "", ["--out", "{file}/x"], 3, "{file}/x", id="out-unusable"),
    # --identities is gone, so any value of it, a known name or none, is refused
    pytest.param("audit", "", ["--identities", "foo"], 3, "--identities foo",
                 id="identities-unknown"),
    pytest.param("audit", "", ["--identities", ""], 3, "--identities", id="identities-empty"),
    pytest.param("simulate", "t_end = inf\n", [], 3, "t_end", id="t_end-inf"),
    pytest.param("simulate", "", ["--t-end", "inf"], 3, "t_end", id="t_end-inf-flag"),
    pytest.param("simulate", "dt = nan\n", [], 3, "dt", id="dt-nan"),
    pytest.param("simulate", "t_end = 1e300\ndt = 1e-10\n", [], 3, "2**53",
                 id="steps-overflow"),
    pytest.param("simulate", "t_end = 1e3\ndt = 1e-10\n", [], 3, "10000000000000 steps",
                 id="steps-unrecordable"),
    # no machine holds one array of either grid, and it is refused before one is made
    pytest.param("simulate", f"nx = {2**40}\nny = 4\n", [], 3, "grid cannot be held",
                 id="grid-too-large-nx"),
    pytest.param("simulate", f"nx = {2**24}\nny = {2**24}\n", [], 3, "grid cannot be held",
                 id="grid-too-large-square"),
    pytest.param("simulate", "generator = traveling_mode\namplitude = 1e120\n", [], 2,
                 "blowup", id="first-step-blowup"),
    *(pytest.param(command, BLOWUP, [], 2, "blowup", id=f"first-step-blowup-{command}")
      for command in ("audit", "decay", "picard")),
    pytest.param("audit", "generator = eigenmode\namplitude = 1e103\n", [], 1,
                 "mass_abs_residual", id="overflowing-audit-series"),
    pytest.param("simulate", "delta = nan\n", [], 3, "delta", id="delta-nan"),
    pytest.param("simulate", "snapshot_stride = -2\n", [], 3, "snapshot_stride",
                 id="snapshot_stride-negative"),
    pytest.param("linear-verify", "", ["--seed", "-1"], 3, "seed", id="seed-negative"),
    # linear-verify's fixed modes reach row 16 and sine column 6: on 32 x 6 row
    # 16 is the Nyquist row, and 5 columns cannot take the semigroup block
    pytest.param("linear-verify", "nx = 32\nny = 6\n", [], 3, "nx >= 34 and ny >= 6",
                 id="linear-verify-nyquist-mode"),
    pytest.param("linear-verify", "nx = 34\nny = 5\n", [], 3, "got 34 x 5",
                 id="linear-verify-narrow"),
    pytest.param("simulate", "dealias = false\n", [], 3, "dealias", id="dealias-removed"),
    pytest.param("simulate", "scheme = picard\n", [], 3, "scheme", id="scheme-removed"),
    pytest.param("simulate", "", ["--scheme", "picard"], 3, "--scheme",
                 id="scheme-flag-removed"),
    pytest.param("decay", "t_end = 0.005\n", [], 1, "decay window", id="decay-fit-window"),
]


@pytest.mark.parametrize("command,lines,flags,code,named", ROBUSTNESS)
def test_bad_input_exits_with_its_code_and_one_line(tmp_path, command, lines, flags,
                                                    code, named):
    (tmp_path / "file").write_text("")
    fill = str(tmp_path / "file")
    argv = [command, "--config", write_cfg(tmp_path, SMALL + lines),
            "--out", str(tmp_path / "o"), *(f.replace("{file}", fill) for f in flags)]
    proc = subprocess.run([sys.executable, "-m", "zkbs", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    reasons = proc.stderr.splitlines() + [
        line for line in proc.stdout.splitlines() if line.startswith("[FAIL]")]
    named = (named,) if isinstance(named, str) else named
    assert len(reasons) == len(named), reasons
    for reason, text in zip(reasons, named):
        assert text.replace("{file}", fill) in reason


def test_overflowing_audit_report_is_strict_json(tmp_path):
    # the overflowed u^2 (u_xx + u_yy) series makes combined_3_23's residuals
    # non-finite; the report spells them as strings, not bare NaN tokens
    cfg = write_cfg(tmp_path, SMALL + "generator = eigenmode\namplitude = 1e103\n")
    assert main(["audit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    report = json.loads((tmp_path / "o" / "audit.json").read_text(), parse_constant=refuse)
    assert report["identities"]["combined_3_23"]["max_residual_coarse"] == "nan"


def test_overflowing_flux_bound_passes_silently(tmp_path):
    # x-independent data do no flux work, so the run survives although
    # its flux bound, a multiple of l2**3, overflows to inf
    argv = ["simulate", "--config", write_cfg(tmp_path, SMALL + (
        "generator = eigenmode\namplitude = 1e120\n")), "--out", str(tmp_path / "o")]
    proc = subprocess.run([sys.executable, "-m", "zkbs", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout
    assert proc.stderr == ""


def test_package_exports_every_module_list():
    import zkbs

    modules = (zkbs.domain, zkbs.dynamics, zkbs.functionals, zkbs.initial_data, zkbs.io,
               zkbs.semigroup, zkbs.trajectory)
    names = {name for mod in modules for name in mod.__all__}
    assert set(zkbs.__all__) == names | {"phi"}
    assert zkbs.GENERATORS is zkbs.initial_data.GENERATORS
    assert zkbs.CSV_COLUMNS is zkbs.io.CSV_COLUMNS


def test_cli_and_its_runs_load_no_scipy(tmp_path):
    # the solver runs on numpy alone; only the g_h oracle and the tests use scipy
    code = (
        "import sys\n"
        "import zkbs.cli\n"
        "def report():\n"
        "    print('scipy modules:', sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "report()\n"
        "for command in ('simulate', 'linear-verify'):\n"
        "    zkbs.cli.main([command, '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "    report()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, write_cfg(tmp_path, SMALL),
                           str(tmp_path / "o")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    reports = [line for line in proc.stdout.splitlines() if line.startswith("scipy modules:")]
    assert reports == ["scipy modules: []"] * 3, proc.stdout


def test_only_a_cutoff_flux_builds_the_gauss_rule(tmp_path):
    # a Gauss rule's eigensolver wakes OpenBLAS's worker: the flux table's 96-node
    # rule is built by the first cutoff flux alone, once per process, and never by
    # an import or an h = none run, and no subcommand builds a rule of its own
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import numpy.linalg as la\n"
        "import numpy.polynomial.legendre as leg\n"
        "rules, solves = [], []\n"
        "real_rule, real_solve = leg.leggauss, la.eigvalsh\n"
        "leg.leggauss = lambda deg: rules.append(deg) or real_rule(deg)\n"
        "la.eigvalsh = lambda *args, **kw: solves.append(1) or real_solve(*args, **kw)\n"
        "def report(label):\n"
        "    print('spy', label, rules, len(solves))\n"
        "import zkbs.cli\n"
        "report('import')\n"
        "for command in ('simulate', 'audit', 'decay', 'picard', 'linear-verify'):\n"
        "    zkbs.cli.main([command, '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "    report(command)\n"
        "from zkbs.dynamics import RegularizedFlux\n"
        "RegularizedFlux(h=1.0)\n"
        "report('cutoff')\n"
        "RegularizedFlux(h=0.5)(np.linspace(0.0, 5.0, 11))\n"
        "report('second')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, write_cfg(tmp_path, SMALL),
                           str(tmp_path / "o")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    reports = [line for line in proc.stdout.splitlines() if line.startswith("spy ")]
    assert reports == [
        "spy import [] 0", "spy simulate [] 0", "spy audit [] 0", "spy decay [] 0",
        "spy picard [] 0", "spy linear-verify [] 0", "spy cutoff [96] 1", "spy second [96] 1",
    ], proc.stdout


def test_forced_oracle_rule_is_numpys_16_node_rule_bit_for_bit():
    # _forced_mode_oracle writes out the positive half of leggauss(16) and mirrors
    # it, which gives the whole rule only because leggauss returns it symmetric
    x, w = np.polynomial.legendre.leggauss(16)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    half = zkbs.cli._GAUSS16_HALF
    assert np.array_equal(half.view(np.uint64), np.array([x[8:], w[8:]]).view(np.uint64))


# the boundary and interval series every linear solve records
LINEAR_SERIES = ("l2", "h1", "h2", "diss_l2", "diss_h1", "e2_mixed",
                 "mid_diss0", "mid_diss1", "mid_diss2")


# on the desk grid, as on defaults, the series are bit-identical; on a tall
# grid the configured grid's (series, modes) contraction adds the same 21
# non-negative terms in another order (BLAS blocks and lanes follow the
# layout), so each sum is within 20 eps relative of the exact one either way
@pytest.mark.parametrize("nx,ny,eps", [(256, 64, 0.0), (34, 2047, 40 * np.finfo(float).eps)],
                         ids=["desk", "tall"])
def test_linear_verify_solves_on_their_active_modes_as_on_the_configured_grid(
        tmp_path, capsys, monkeypatch, nx, ny, eps):
    # linear-verify runs its forced and homogeneous solves on a domain that
    # holds just the modes they excite; the same solves on the configured
    # grid must give the same final snapshot on those modes, bit for bit,
    # zero on every other mode, and the same series
    d = RunConfig(nx=nx, ny=ny).domain()
    S = symbol(d)
    solves = []

    def on_both(u0, forcing, T, dt, Sa, **kwargs):
        got = duhamel_solve(u0, forcing, T, dt, Sa, **kwargs)
        u0_full = _pad_band(u0.coeffs, d)
        full = duhamel_solve(SpectralField(u0_full), None if forcing is None else (
            lambda t: _pad_band(forcing(t), d)), T, dt, S, **kwargs)
        active = u0_full != 0
        snap = _pad_band(got.snapshots[-1], d)
        assert np.array_equal(full.snapshots[-1][active].view(np.uint64),
                              snap[active].view(np.uint64))
        assert not np.any(full.snapshots[-1][~active])
        for name in LINEAR_SERIES:
            want = getattr(got, name)
            assert np.all(np.abs(getattr(full, name) - want) <= eps * want), name
        solves.append(forcing is not None)
        return got

    monkeypatch.setattr(zkbs.cli, "duhamel_solve", on_both)
    cfg = write_cfg(tmp_path, f"nx = {nx}\nny = {ny}\nt_end = 0.05\n")
    code = main(["linear-verify", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 0, capsys.readouterr()
    assert solves == [True, True, True, False, False]


def test_linear_verify_builds_one_propagator_per_time(tmp_path, capsys, monkeypatch):
    # each propagator check builds exp(m t) once per distinct time, shared by
    # all of its cases (20 single modes at 9 times, 5 superpositions at 3),
    # not once per case and time; only the semigroup-property and linearity
    # checks' six apply_semigroup calls build one each after them
    times = []
    build = zkbs.semigroup.SymbolTable.propagator

    def spy(self, t):
        times.append(t)
        return build(self, t)

    monkeypatch.setattr(zkbs.semigroup.SymbolTable, "propagator", spy)
    cfg = write_cfg(tmp_path, "nx = 34\nny = 6\nt_end = 0.05\n")
    assert main(["linear-verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert times == [*np.linspace(0.0, 2.0, 9), 0.5, 1.3, 2.0, 0.4, 0.35, 0.75, 0.6, 0.6, 0.6]


PROPAGATOR_CHECKS = ("propagator_single_modes", "propagator_superpositions")


def propagator_tags(capsys) -> list[str]:
    """The [tag] of each propagator check line a run printed, in order."""
    return [line.split()[0] for line in capsys.readouterr().out.splitlines()
            if any(f"] {name}:" in line for name in PROPAGATOR_CHECKS)]


@pytest.mark.parametrize("scale,code,tag", [(1.0, 0, "[ok]"), (1.0 + 1e-9, 1, "[FAIL]")],
                         ids=["kernel", "kernel-off-by-1e-9"])
def test_propagator_checks_see_the_steps_band_kernel(tmp_path, capsys, monkeypatch, scale,
                                                     code, tag):
    # the closed form checks the synthesis every step uses: a relative error
    # of 1e-9 in the step's kernel alone must fail both propagator checks
    kernel = zkbs.cli._band_to_grid
    monkeypatch.setattr(zkbs.cli, "_band_to_grid",
                        lambda band, d, work: kernel(band, d, work) * scale)
    cfg = write_cfg(tmp_path, "nx = 34\nny = 6\nt_end = 0.05\n")
    assert main(["linear-verify", "--config", cfg, "--out", str(tmp_path / "o")]) == code
    assert propagator_tags(capsys) == [tag, tag]


def test_propagator_checks_pass_at_their_threshold_and_fail_one_ulp_above(
        tmp_path, capsys, monkeypatch):
    tol = zkbs.cli.PROFILES["default"]["propagator_rel"]
    cfg = write_cfg(tmp_path, "nx = 34\nny = 6\nt_end = 0.05\n")
    for err, tag in ((tol, "[ok]"), (np.nextafter(tol, 1.0), "[FAIL]")):
        monkeypatch.setattr(zkbs.cli, "_propagator_error", lambda *args, e=err: e)
        main(["linear-verify", "--config", cfg, "--out", str(tmp_path / "o")])
        assert propagator_tags(capsys) == [tag, tag]


def test_working_set_beyond_memory_is_exit_3_with_one_line(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, SMALL)
    need = zkbs.cli._working_set_bytes(load_config(cfg))
    monkeypatch.setattr(zkbs.cli, "_memory_bytes", lambda: need - 1)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "64 x 16 grid cannot be held" in err[0], err
    monkeypatch.setattr(zkbs.cli, "_memory_bytes", lambda: need)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_a_grid_that_fits_once_but_not_as_a_run_is_refused_unallocated(tmp_path,
                                                                      monkeypatch):
    # one 16384 x 16384 float64 array (2 GiB) fits in 7.8 GiB; the run's
    # grid, spectra and sine block do not, and nothing of them is made
    monkeypatch.setattr(zkbs.cli, "_memory_bytes", lambda: 7.8 * 2**30)
    cfg = write_cfg(tmp_path, SMALL + "nx = 16384\nny = 16384\n")
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="grid cannot be held"):
            load_config(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_working_set_bounds_every_subcommands_measured_peak(tmp_path, capsys):
    # the counted working set against the peak of what each subcommand
    # allocates (tracemalloc sees numpy's arrays); with every step's snapshot
    # kept, simulate's count is the largest, and the bound is loose by at most 2x
    cfg = write_cfg(tmp_path, SMALL + "nx = 128\nny = 64\nsnapshot_stride = 1\n")
    need = zkbs.cli._working_set_bytes(load_config(cfg))
    peaks = {}
    for command in zkbs.cli.COMMANDS:
        tracemalloc.start()
        try:
            main([command, "--config", cfg, "--out", str(tmp_path / command)])
            peaks[command] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert max(peaks.values()) <= need <= 2 * max(peaks.values()), (need, peaks)


def test_working_set_bounds_picards_measured_peak(tmp_path, capsys):
    # on this grid picard's count is the largest: its one window stack (51
    # rows of the kept band) outweighs decay's and audit's spectra, so the
    # bound pins the stack count; two stacks would read about 1.7x the peak.
    # Smaller grids are avoided: their fixed allocations skew the ratio.
    # About 0.7 s.
    cfg = write_cfg(tmp_path, SMALL + "nx = 512\nny = 128\nt_end = 0.01\n")
    need = zkbs.cli._working_set_bytes(load_config(cfg))
    tracemalloc.start()
    try:
        assert main(["picard", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= need <= 1.5 * peak, (need, peak)
