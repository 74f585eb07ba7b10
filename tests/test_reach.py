"""The library is what it uses, and what it exports exists.

A profile hook records every function of the package that ``verify-all`` and
the ``resolve``, ``particle`` and ``string --residuals`` commands call.  Each
function or method the package's source defines must be among those, be one
the traced benchmark run wraps (``TRACED`` in ``perfbench/layers.py``), or be
listed in ``KEPT`` with the reason it stays.  A second form that nothing
calls fails here, and so does a ``KEPT`` entry that has come into use or
been deleted.
"""

import importlib
import importlib.util
import inspect
import json
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import cliffdyn
from cliffdyn.cli import main
from cliffdyn.clifford import hermitian_to_json
from cliffdyn.worldsheet import make_mode_spec, mode_spec_to_json

PACKAGE = Path(cliffdyn.__file__).parent
MODULES = ["cliffdyn", *(f"cliffdyn.{m.name}" for m in pkgutil.iter_modules(cliffdyn.__path__))]


def _layers():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = {f"{layer}.{name}" for layer, table in _layers().TRACED.items() for name in table}

PAPER = "paper identity: a test checks the paper's formula with it"
EDGE = "the GeneratorSpace public edge: its signature and block accessors"
IMPORT = "runs at import, before the hook is set"
BENCH = "the benchmark's workloads write their input files with it"
COVARIANT = ("the matrix path of covariant_evolve, which the benchmark traces: a connection "
             "that need not commute with H cannot be stepped in H's eigenbasis")

# Functions that no command reaches and the benchmark does not trace, each
# with the reason it stays.
KEPT = {
    "acceptance._criterion": IMPORT,
    "acceptance._criterion.<locals>.wrap": IMPORT,
    "spinors._probe_gradient_maps": IMPORT,
    "current_algebra._pairing_table": IMPORT,
    "current_algebra._jj_pattern_constants": IMPORT,
    "current_algebra._poincare_constants": IMPORT,
    "cli._json_dumps.<locals>.default": "JSON for numpy scalars and complex values, such as "
                                        "a complex closure_constant in a FAIL row's details",
    "errors.VerificationError.__init__": "raised only when a check fails; tests raise it "
                                         "through the algebra-suite FAIL rows",
    "clifford.hermitian_to_json": BENCH,
    "worldsheet.mode_spec_to_json": BENCH,
    "tolerances.Tolerances.with_overrides": "the Tolerances override; tests route "
                                            "tolerances through the checks with it",
    "clifford.GeneratorSpace.__repr__": EDGE,
    "clifford.GeneratorSpace.block_slice": EDGE,
    "clifford.GeneratorSpace.n_neg": EDGE,
    "clifford.GeneratorSpace.n_pos": EDGE,
    "particle.ParticleState.mass_shell": PAPER,
    "particle._velocity_contraction": PAPER,
    "particle.lagrangian_c2": PAPER,
    "particle.polyakov_lagrangian": PAPER,
    "particle.conjugate_momentum_norm": PAPER,
    "particle.hamiltonian_c5": PAPER,
    "particle.canonical_rhs": PAPER,
    "matrixmech.schrodinger_gauge": PAPER,
    "matrixmech.born_sample": PAPER,
    "matrixmech.nonrelativistic_rate": PAPER,
    "worldsheet.arc_curve": PAPER,
    "matrixmech._commutator_flows": COVARIANT,
    "matrixmech._commutator_flows.<locals>.rhs": COVARIANT,
    "matrixmech.evolve_state.<locals>.rhs": "the stage of evolve_state, which the benchmark "
                                            "traces: RK4 under a constant connection matrix",
}


def _key(code) -> tuple[str, int, str]:
    return str(Path(code.co_filename).resolve()), code.co_firstlineno, code.co_qualname


def _defined() -> dict[tuple[str, int, str], str]:
    """Every function and method in the package's source, by code-object key,
    named module.qualname; lambdas, comprehensions and class bodies are left out."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(), str(path.resolve()), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if inspect.iscode(c))
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                found[_key(code)] = f"{path.stem}.{code.co_qualname}"
    return found


def _write_inputs(work: Path) -> None:
    """Small inputs for resolve (H.json), particle (p.json) and string (s.json)."""
    H = np.array([[1.0, 0.5j, 0.0], [-0.5j, -2.0, 0.0], [0.0, 0.0, 0.0]])
    (work / "H.json").write_text(json.dumps(hermitian_to_json(H)))
    (work / "p.json").write_text(json.dumps({
        "mass": 1.3, "einbein": {"type": "linear", "params": {"a": 0.5, "b": 0.1}},
        "tau0": 0.0, "tau_end": 1.0, "steps": 40,
        "gram": {"x": [0.1, 0.0, 0.2, 0.0], "p": [1.3328162810305625, 0.2, 0.2, 0.0],
                 "M": {"mu": 0.7}}}))
    spec = make_mode_spec(mass=1.1, modes=(1, -1), k_block=0.2 * np.eye(2),
                          a_self={1: np.diag([0.1, 0.05]), -1: np.diag([0.04, 0.08])},
                          a_cross={1: 0.05 * np.eye(2)})
    (work / "s.json").write_text(json.dumps(mode_spec_to_json(spec)))


@pytest.mark.skipif(sys.version_info < (3, 11), reason="names functions by co_qualname (3.11+)")
def test_every_function_is_reached_or_kept(tmp_path, capsys):
    _write_inputs(tmp_path)
    # a cached function's body runs only on a miss, so earlier tests' hits are cleared
    for module in MODULES:
        for obj in vars(importlib.import_module(module)).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    calls = set()

    def record(frame, event, arg):
        if event == "call":
            calls.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        codes = [main(["resolve", "--input", str(tmp_path / "H.json"), "--out", str(tmp_path)]),
                 main(["particle", "--config", str(tmp_path / "p.json"), "--out", str(tmp_path)]),
                 main(["string", "--config", str(tmp_path / "s.json"), "--out", str(tmp_path),
                       "--residuals"]),
                 main(["verify-all", "--seed", "0", "--out", str(tmp_path)])]
    finally:
        sys.setprofile(previous)
    assert codes == [0, 0, 0, 0], capsys.readouterr()
    reached = {_key(code) for code in calls}
    unreached = {name for key, name in _defined().items() if key not in reached}
    assert sorted(unreached - TRACED - set(KEPT)) == []
    assert sorted(set(KEPT) - unreached) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
