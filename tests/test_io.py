import json
import math
import struct

import numpy as np
import pytest

from zkbs import (
    RegularizedFlux,
    StepperConfig,
    gaussian_bump,
    read_diagnostics_csv,
    read_snapshot,
    simulate,
    write_diagnostics_csv,
    write_json,
    write_snapshot,
)
from zkbs.io import CSV_COLUMNS, SNAPSHOT_MAGIC


@pytest.fixture(scope="module")
def short_traj(small_domain):
    d = small_domain
    u0 = gaussian_bump(d, 0.0, 2.0, 1, 0.3)
    return simulate(u0, 0.01, StepperConfig(dt=1e-3), RegularizedFlux(h=None), d)


class TestSnapshots:
    def test_roundtrip_is_exact(self, tmp_path, rng):
        vals = rng.standard_normal((12, 7))
        p = tmp_path / "field.zkbs"
        write_snapshot(p, vals)
        back = read_snapshot(p)
        assert back.shape == (12, 7)
        assert np.array_equal(back, vals)

    def test_rejects_non_grid(self, tmp_path):
        with pytest.raises(ValueError, match="2-d"):
            write_snapshot(tmp_path / "x.zkbs", np.zeros(5))

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.zkbs"
        p.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(p)

    def test_bad_version(self, tmp_path, rng):
        p = tmp_path / "v9.zkbs"
        write_snapshot(p, rng.standard_normal((4, 4)))
        raw = bytearray(p.read_bytes())
        raw[4] = 9
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            read_snapshot(p)

    def test_truncation(self, tmp_path, rng):
        p = tmp_path / "cut.zkbs"
        write_snapshot(p, rng.standard_normal((6, 5)))
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(ValueError, match="truncated"):
            read_snapshot(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "head.zkbs"
        p.write_bytes(b"ZKBS\x01\x00")
        with pytest.raises(ValueError, match="truncated snapshot header"):
            read_snapshot(p)

    @pytest.mark.parametrize("side", [2**31, 2**20], ids=["overflows", "asks-8-TiB"])
    def test_header_claiming_more_than_the_file_holds(self, tmp_path, side):
        # the header alone, claiming side x side samples: checked against the
        # file's size before anything is read or allocated
        p = tmp_path / "huge.zkbs"
        p.write_bytes(SNAPSHOT_MAGIC + struct.pack("<III", 1, side, side))
        with pytest.raises(ValueError, match=f"truncated snapshot payload: a {side} x {side}"):
            read_snapshot(p)

    def test_trailing_bytes(self, tmp_path, rng):
        p = tmp_path / "long.zkbs"
        write_snapshot(p, rng.standard_normal((6, 5)))
        p.write_bytes(p.read_bytes() + bytes(8))
        with pytest.raises(ValueError, match="trailing bytes: a 6 x 5 snapshot is 256 bytes, "
                                             "the file is 264"):
            read_snapshot(p)


class TestDiagnosticsCsv:
    def test_roundtrip(self, tmp_path, short_traj):
        p = tmp_path / "diag.csv"
        write_diagnostics_csv(p, short_traj)
        back = read_diagnostics_csv(p)
        assert set(back) == set(CSV_COLUMNS)
        assert np.array_equal(back["t"], short_traj.times)
        assert np.array_equal(back["l2"], short_traj.l2)
        assert np.array_equal(back["nonlin_flux"], short_traj.nonlin_flux)

    def test_rewrite_is_byte_identical(self, tmp_path, short_traj):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_diagnostics_csv(a, short_traj)
        write_diagnostics_csv(b, short_traj)
        assert a.read_bytes() == b.read_bytes()

    def test_header_only_file_reads_as_empty_columns(self, tmp_path):
        p = tmp_path / "diag.csv"
        p.write_text(",".join(CSV_COLUMNS) + "\n")
        back = read_diagnostics_csv(p)
        assert set(back) == set(CSV_COLUMNS)
        assert all(len(col) == 0 for col in back.values())

    def test_header_validation(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,l2\n0,1\n")
        with pytest.raises(ValueError, match="columns"):
            read_diagnostics_csv(p)


class TestJson:
    def test_sorted_and_stable(self, tmp_path):
        p = tmp_path / "s.json"
        write_json(p, {"b": 2, "a": {"z": 1, "y": [1, 2]}})
        text = p.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"b": 2, "a": {"z": 1, "y": [1, 2]}}
        q = tmp_path / "t.json"
        write_json(q, {"a": {"y": [1, 2], "z": 1}, "b": 2})
        assert p.read_bytes() == q.read_bytes()

    def test_non_finite_floats_are_strings(self, tmp_path):
        p = tmp_path / "n.json"
        write_json(p, {"a": [math.nan, (math.inf, -math.inf)],
                       "b": {"c": np.float64(math.nan), "d": 1.5}})

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        assert json.loads(p.read_text(), parse_constant=refuse) == {
            "a": ["nan", ["inf", "-inf"]], "b": {"c": "nan", "d": 1.5}}


def test_snapshot_magic_is_stable():
    assert SNAPSHOT_MAGIC == b"ZKBS"
