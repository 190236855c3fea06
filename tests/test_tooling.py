"""Checks that read the package's source and README instead of running a solve."""

import argparse
import ast
import re
from dataclasses import fields
from pathlib import Path

import pytest

from zkbs import plan_domain, semigroup
from zkbs.cli import RunConfig, _build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "zkbs"
README = (ROOT / "README.md").read_text()
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (a name listed in __all__ counts as read)."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names if a.name != "*"}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(bound - used)


def scipy_imports(source: str) -> list[str | None]:
    """The function that holds each scipy import, in order; None for one at module level."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            elif isinstance(child, ast.Import):
                found.extend(func for a in child.names if a.name.split(".")[0] == "scipy")
            elif isinstance(child, ast.ImportFrom):
                if (child.module or "").split(".")[0] == "scipy":
                    found.append(func)
            else:
                visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_scan_finds_every_scipy_import():
    source = "import os, scipy.fft\nif os:\n    from scipy import linalg\n" \
             "class A:\n    def f(self):\n        from scipy.integrate import quad\n" \
             "        import numpy\n"
    assert scipy_imports(source) == [None, None, "f"]


def test_scipy_is_imported_only_by_the_g_h_oracle():
    # the solver runs on numpy alone: no module imports scipy at load time
    found = [(path.name, func) for path in sorted(SRC.glob("*.py"))
             for func in scipy_imports(path.read_text())]
    assert found == [("dynamics.py", "g_h")]


def test_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom math import pi, tau\n" \
             "__all__ = ['tau']\nprint(sys.argv)\n"
    assert unused_imports(source) == ["os", "pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_readme_config_keys_are_run_config_fields():
    block = re.search(r"```ini\n(.*?)```", README, re.S).group(1)
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]
    known = {f.name for f in fields(RunConfig)}
    assert keys and set(keys) <= known, set(keys) - known


def test_readme_common_flags_are_simulate_flags():
    sentence = re.search(r"Common flags:(.*?)\.\s", README, re.S).group(1)
    named = set(re.findall(r"`(--[a-z-]+)", sentence))
    subparsers, = (a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    accepted = set(subparsers.choices["simulate"]._option_string_actions)
    assert named and named <= accepted, named - accepted


def test_readme_block_figures_are_linear_verifys(monkeypatch):
    # "advances N steps per block" and "the block's S·N + C half spectra" on the
    # 8 x 4 modes that linear-verify's forced solves run on
    paragraph = re.search(r"On those 8×4 modes(.*?)half\s+spectra", README, re.S).group(1)
    steps = int(re.search(r"advances\s+(\d+)\s+steps\s+per\s+block", paragraph).group(1))
    per_step, of_steps, carried = map(int, re.search(
        r"block's\s+(\d+)·(\d+)\s*\+\s*(\d+)\s*$", paragraph).groups())
    c = RunConfig()
    modes = plan_domain(c.L, c.X, 14, 4, c.delta)
    assert steps == of_steps == semigroup._block_steps(modes)
    # the budget that just holds S·B + C half spectra gives B steps, one byte less B - 1
    state = 16 * modes.spectral_shape[0] * modes.spectral_shape[1]
    for B in (1, 2, 10, semigroup._MAX_BLOCK):
        monkeypatch.setattr(semigroup, "_BLOCK_BYTES", (per_step * B + carried) * state)
        assert semigroup._block_steps(modes) == B
        monkeypatch.setattr(semigroup, "_BLOCK_BYTES", (per_step * B + carried) * state - 1)
        assert semigroup._block_steps(modes) == max(B - 1, 1)


def test_readme_names_every_bench_record():
    records = sorted(p.name for p in ROOT.glob("BENCH_*.json"))
    assert records and [name for name in records if f"`{name}`" not in README] == []


def calls_by_function(source: str, names: set[str]) -> list[tuple[str | None, str]]:
    """(enclosing top-level function or None, callee) for each call of a name in names."""
    found = []
    for node in ast.parse(source).body:
        func = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        found.extend((func, call.func.id) for call in ast.walk(node)
                     if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                     and call.func.id in names)
    return found


def test_scan_finds_every_call_and_its_function():
    source = "x = f(1)\ndef a():\n    def b():\n        return g(f)\n    return f(g(2))\n" \
             "class C:\n    def m(self):\n        return h(3)\n"
    assert calls_by_function(source, {"f", "g"}) == [(None, "f"), ("a", "f"), ("a", "g"),
                                                      ("a", "g")]


def test_step_transforms_only_inside_the_nonlinear_core():
    # every integral of a product in the step is a kept-band pairing, so the
    # band transforms serve the nonlinear term alone and no grid quadrature is taken
    source = (SRC / "dynamics.py").read_text()
    found = calls_by_function(source, {"_band_to_grid", "_band_to_spectral", "grid_quadrature"})
    assert sorted(found) == [("_nonlinear_core", "_band_to_grid"),
                             ("_nonlinear_core", "_band_to_spectral")]


def test_linear_verify_checks_the_steps_synthesis_not_to_grid():
    # the closed-form propagator checks synthesize through the step's band
    # kernel, so that they check the kernel every step uses
    source = (SRC / "cli.py").read_text()
    found = calls_by_function(source, {"_band_to_grid", "to_grid"})
    assert [call for call in found if call[1] == "_band_to_grid"] == [
        ("_propagator_error", "_band_to_grid")]
    assert ("_propagator_error", "to_grid") not in found


def conjugations(source: str) -> list[str]:
    """The callee of each call that conjugates, conj or conjugate, bare or as an attribute."""
    return sorted(name for call in ast.walk(ast.parse(source)) if isinstance(call, ast.Call)
                  for name in [getattr(call.func, "id", getattr(call.func, "attr", None))]
                  if name in ("conj", "conjugate"))


def test_scan_finds_every_conjugation():
    source = "import numpy as np\nx = np.conj(a)\ny = b.conjugate()\nz = f(conj(c))\n" \
             "w = np.conjugate\nq = 'np.conj(d)'\n"
    assert conjugations(source) == ["conj", "conj", "conjugate"]


def test_pairings_conjugate_only_in_the_recorder():
    # every pairing of a state with a right-hand side, work series or not, is
    # the recorder's, so no other module conjugates a spectrum
    found = {path.name: names for path in sorted(SRC.glob("*.py"))
             if (names := conjugations(path.read_text()))}
    assert found == {"trajectory.py": ["conjugate"]}


def audit_definitions(source: str) -> list[str]:
    """Functions and methods named audit*, balance or cumulative_* (leading _ ignored)."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and re.fullmatch(r"_*(audit\w*|balance|cumulative_\w*)", node.name)]


def test_scan_finds_every_audit_definition():
    source = "def audit_x(): pass\ndef _balance(): pass\nclass T:\n" \
             "    def cumulative_midpoint(self): pass\n    def balanced(self): pass\n" \
             "def _check_audit(): pass\n"
    assert audit_definitions(source) == ["audit_x", "_balance", "cumulative_midpoint"]


def test_energy_audits_and_their_time_rules_live_in_functionals():
    # one module decides how every energy identity is integrated in time
    found = {path.name: names for path in MODULES
             if (names := audit_definitions(path.read_text()))}
    assert found == {"functionals.py": ["_cumulative_midpoint", "_cumulative_trapezoid",
                                        "_balance", "audit_identity"]}, found


def test_package_defines_one_public_audit():
    # every identity, nonlinear or linear, forced or not, audits through one function
    public = [name for path in MODULES for name in audit_definitions(path.read_text())
              if name.startswith("audit")]
    assert public == ["audit_identity"]


# public names that no module or bench script reads, each kept for a reader outside them
UNREAD_PUBLIC = {
    "read_snapshot": "reader for the snapshot files the CLI writes",
    "read_diagnostics_csv": "reader for the diagnostics CSV the CLI writes",
}


def all_names(source: str) -> list[str]:
    """The names a module lists in __all__."""
    return [name for node in ast.parse(source).body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)]


def public_members(source: str) -> list[str]:
    """Public methods and properties of the classes a module lists in __all__."""
    listed = set(all_names(source))
    return [f.name for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) and node.name in listed
            for f in node.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not f.name.startswith("_")]


def read_names(source: str) -> set[str]:
    """Every name a module reads, bare or as an attribute (__all__ strings do not count)."""
    tree = ast.parse(source)
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
             and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_scan_finds_listed_and_read_names():
    source = "import m\n__all__ = ['f', 'g']\ndef f():\n    return m.h(g)\ng = 1\n"
    assert all_names(source) == ["f", "g"]
    assert read_names(source) == {"m", "h", "g"}


def test_scan_finds_public_methods_and_properties_of_listed_classes():
    source = "__all__ = ['A']\nclass A:\n    x: int = 0\n    def f(self): pass\n" \
             "    @property\n    def p(self): pass\n    def _g(self): pass\n" \
             "    def __call__(self): pass\nclass B:\n    def h(self): pass\n"
    assert public_members(source) == ["f", "p"]


def test_every_public_name_has_a_reader_in_the_package_or_the_bench():
    # a name, method or property that only tests call belongs in the tests
    sources = [p.read_text() for p in (*SRC.glob("*.py"), *(ROOT / "bench").glob("*.py"))]
    read = set().union(*map(read_names, sources))
    listed = {name for path in MODULES
              for name in (*all_names(path.read_text()), *public_members(path.read_text()))}
    assert sorted(listed - read) == sorted(UNREAD_PUBLIC)
