import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

import zkbs.cli
from zkbs import SpectralField, duhamel_solve, simulate, to_grid
from zkbs.cli import ConfigError, RunConfig, load_config, main
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

# the per-step fixed point stalls at the first step
STALLED = "scheme = picard\npicard_max_iter = 1\namplitude = 3\n"

# the grid values overflow in the first step
BLOWUP = "generator = traveling_mode\namplitude = 1e120\n"


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestConfigParsing:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg == RunConfig()
        assert cfg.h is None and cfg.scheme == "etd2"

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
        code = main(["audit", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--identities", "mass_3_3"])
        assert code == 1
        assert "[FAIL] mass_abs_residual" in capsys.readouterr().out

    def test_missing_config_is_3(self, capsys):
        assert main(["simulate", "--config", "/nonexistent/run.cfg"]) == 3
        assert "config error" in capsys.readouterr().err

    def test_bad_flag_choice_is_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL)
        code = main(["simulate", "--config", cfg, "--scheme", "rk4"])
        assert code == 3

    def test_bad_h_override_is_3(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL)
        assert main(["simulate", "--config", cfg, "--h", "2.5"]) == 3

    @pytest.mark.parametrize("command,report", [
        ("simulate", "summary.json"), ("audit", "audit.json"), ("decay", "decay.json")])
    def test_stalled_contraction_is_1_with_a_report(self, tmp_path, capsys, command, report):
        cfg = write_cfg(tmp_path, SMALL + STALLED)
        code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("[FAIL] stepper: contraction failed")
        summary = json.loads((tmp_path / "o" / report).read_text())
        assert summary["experiment"] == command and summary["passed"] is False
        assert summary["error"] in out

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

    @pytest.mark.parametrize("identities", ["foo", "mass_3_3,foo"])
    def test_unknown_identity_is_rejected_before_stepping(self, tmp_path, monkeypatch,
                                                          identities):
        def no_stepping(*args, **kwargs):
            raise AssertionError("simulate ran before the identities were checked")

        monkeypatch.setattr(zkbs.cli, "simulate", no_stepping)
        cfg = write_cfg(tmp_path, SMALL)
        assert main(["audit", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--identities", identities]) == 3


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
    def test_decay_skips_zero_data(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL + "generator = eigenmode\namplitude = 0\n")
        code = main(["decay", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        assert "[skip]" in capsys.readouterr().out

    def test_audit_skips_zero_data(self, tmp_path, capsys):
        # zero data gives exactly zero residuals, whose refinement factor
        # and order are 0/0
        cfg = write_cfg(tmp_path, SMALL + "nx = 32\nny = 8\n"
                        "generator = eigenmode\namplitude = 0\n")
        code = main(["audit", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        assert "[skip]" in capsys.readouterr().out
        report = json.loads((tmp_path / "o" / "audit.json").read_text())
        assert report["skipped"] == "zero initial data"

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


def test_module_entry_point(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL)
    proc = subprocess.run(
        [sys.executable, "-m", "zkbs", "simulate", "--config", str(cfg),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "[ok]" in proc.stdout


# command, config lines, extra flags, exit code, text its one line must name;
# {file} is a regular file, so a directory cannot be made under it
ROBUSTNESS = [
    pytest.param("simulate", STALLED, [], 1, "contraction failed", id="stalled-simulate"),
    pytest.param("audit", STALLED, [], 1, "contraction failed", id="stalled-audit"),
    pytest.param("decay", STALLED, [], 1, "contraction failed", id="stalled-decay"),
    pytest.param("simulate", "", ["--out", "{file}/x"], 3, "{file}/x", id="out-unusable"),
    pytest.param("audit", "", ["--identities", "foo"], 3, "'foo'", id="identities-unknown"),
    pytest.param("audit", "", ["--identities", ""], 3, "--identities", id="identities-empty"),
    pytest.param("simulate", "t_end = inf\n", [], 3, "t_end", id="t_end-inf"),
    pytest.param("simulate", "", ["--t-end", "inf"], 3, "t_end", id="t_end-inf-flag"),
    pytest.param("simulate", "dt = nan\n", [], 3, "dt", id="dt-nan"),
    pytest.param("simulate", "t_end = 1e300\ndt = 1e-10\n", [], 3, "2**53",
                 id="steps-overflow"),
    pytest.param("simulate", "t_end = 1e3\ndt = 1e-10\n", [], 3, "10000000000000 steps",
                 id="steps-unrecordable"),
    pytest.param("simulate", "generator = traveling_mode\namplitude = 1e120\n", [], 2,
                 "blowup", id="first-step-blowup"),
    *(pytest.param(command, BLOWUP, [], 2, "blowup", id=f"first-step-blowup-{command}")
      for command in ("audit", "decay", "picard")),
    pytest.param("audit", "generator = eigenmode\namplitude = 1e103\n", [], 1,
                 "mass_abs_residual", id="overflowing-audit-series"),
    pytest.param("simulate", "delta = nan\n", [], 3, "delta", id="delta-nan"),
    pytest.param("simulate", "snapshot_stride = -2\n", [], 3, "snapshot_stride",
                 id="snapshot_stride-negative"),
    pytest.param("simulate", "dealias = false\n", [], 3, "dealias", id="dealias-removed"),
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
    assert len(reasons) == 1, reasons
    assert named.replace("{file}", fill) in reasons[0]


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


def test_cli_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate is imported only by the commands and oracles that use it
    code = "import sys, zkbs.cli; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
