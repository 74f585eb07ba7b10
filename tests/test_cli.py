"""CLI exit codes, file outputs, and determinism."""

import copy
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cliffdyn import worldsheet
from cliffdyn.acceptance import _acceptance_mode_spec, string_suite
from cliffdyn.cli import main
from cliffdyn.clifford import hermitian_to_json
from cliffdyn.sampling import random_hermitian
from cliffdyn.spinors import spinor_to_vec
from cliffdyn.worldsheet import make_mode_spec, mode_spec_to_json


def _write_json(path, obj):
    path.write_text(json.dumps(obj))


def test_resolve_diagonal(tmp_path):
    _write_json(tmp_path / "H.json", hermitian_to_json(np.diag([1.0, -1.0])))
    code = main(["resolve", "--input", str(tmp_path / "H.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    payload = json.loads((tmp_path / "out" / "resolution.json").read_text())
    assert payload["gram_residual"] < 1e-10
    assert len(payload["vectors"]) == 2


def test_resolve_random_seeded(tmp_path):
    rng = np.random.default_rng(123)
    H = random_hermitian(rng, 6, n_zero=1)
    _write_json(tmp_path / "H.json", hermitian_to_json(H))
    code = main(["resolve", "--input", str(tmp_path / "H.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 0


def test_resolve_rejects_non_hermitian(tmp_path):
    _write_json(tmp_path / "H.json",
                {"n": 2, "re": [[0, 1], [1, 0]], "im": [[0, 1], [1, 0]]})
    code = main(["resolve", "--input", str(tmp_path / "H.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_resolve_rejects_non_finite(tmp_path, capsys, bad):
    _write_json(tmp_path / "H.json",
                {"n": 2, "re": [[1.0, bad], [bad, 0.0]], "im": [[0, 0], [0, 0]]})
    code = main(["resolve", "--input", str(tmp_path / "H.json"),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "non-finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _particle_config(mu=0.7):
    return {
        "mass": 1.3,
        "einbein": {"type": "const", "params": {"e0": 0.5}},
        "tau0": 0.0,
        "tau_end": 1.0,
        "steps": 400,
        "gram": {"x": [0.1, 0.0, 0.2, 0.0],
                 "p": [1.3328162810305625, 0.2, 0.2, 0.0],
                 "M": {"mu": mu}},
    }


def test_particle_run_reports_conservation(tmp_path):
    _write_json(tmp_path / "p.json", _particle_config())
    code = main(["particle", "--config", str(tmp_path / "p.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "conservation.json").read_text())
    assert report["straight_line_residual"] < 1e-8
    assert report["constraint_drift"] < 1e-8
    csv_text = (tmp_path / "out" / "trajectory.csv").read_text()
    assert csv_text.splitlines()[0].startswith("tau,taubar,x0")
    assert len(csv_text.splitlines()) == 402


def test_particle_refuses_mu_zero_window(tmp_path):
    _write_json(tmp_path / "p.json", _particle_config(mu=0.0))
    code = main(["particle", "--config", str(tmp_path / "p.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 3


def test_particle_rejects_bad_config(tmp_path):
    _write_json(tmp_path / "p.json", {"mass": 1.0})
    code = main(["particle", "--config", str(tmp_path / "p.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 2


@pytest.mark.parametrize("field,bad", [
    pytest.param("e0", float("nan"), id="nan"),
    pytest.param("e0", float("inf"), id="inf"),
    *(pytest.param(field, bad, id=f"{field}-{bad}")
      for field in ("mass", "tau0", "tau_end") for bad in (float("nan"), float("inf"))),
    *(pytest.param("M", bad, id=f"M-{bad}")
      for bad in (float("nan"), float("inf"), float("-inf")))])
def test_particle_rejects_non_finite_einbein(tmp_path, capsys, recwarn, field, bad):
    cfg = _particle_config()
    if field == "e0":
        cfg["einbein"]["params"]["e0"] = bad
    elif field == "M":
        cfg["gram"]["M"] = {"mu": bad}
    else:
        cfg[field] = bad
    _write_json(tmp_path / "p.json", cfg)
    code = main(["particle", "--config", str(tmp_path / "p.json"),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "must be finite" in err
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "out").exists()


def test_particle_flow_overflow_exits_1_with_one_line(tmp_path, capsys, recwarn):
    # finite input whose flow overflows: integrate raises ArithmeticError mid-run
    cfg = {"mass": 1.0, "einbein": {"type": "linear", "params": {"a": 1.0, "b": 5e153}},
           "tau0": 0.0, "tau_end": 1.0, "steps": 3000,
           "gram": {"x": [0.1, 0.2, 0.3, 0.4], "p": [1.5, 0.3, 0.2, 0.1], "M": {"mu": 0.7}}}
    _write_json(tmp_path / "p.json", cfg)
    code = main(["particle", "--config", str(tmp_path / "p.json"),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1
    assert "integration produced non-finite values at step" in err
    assert "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "cliffdyn", "verify-all", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "--seed" in done.stdout


def _string_config():
    spec = make_mode_spec(mass=1.1, modes=(1, -1),
                          k_block=0.2 * np.eye(2),
                          a_self={1: np.diag([0.1, 0.05]), -1: np.diag([0.04, 0.08])},
                          a_cross={1: 0.05 * np.eye(2)})
    return mode_spec_to_json(spec)


def test_string_run_with_residuals(tmp_path):
    _write_json(tmp_path / "s.json", _string_config())
    code = main(["string", "--config", str(tmp_path / "s.json"),
                 "--out", str(tmp_path / "out"), "--residuals"])
    assert code == 0
    fields = (tmp_path / "out" / "fields.csv").read_text()
    assert fields.splitlines()[0] == "tau,sigma,x0,x1,x2,x3,phi,T00,T01,T11"
    report = json.loads((tmp_path / "out" / "residuals.json").read_text())
    assert report["f51_max_residual"] < 1e-6
    assert 1.8 <= report["f90_order"] <= 2.2


def test_string_residuals_match_string_suite(tmp_path):
    _write_json(tmp_path / "s.json", mode_spec_to_json(_acceptance_mode_spec()))
    assert main(["string", "--config", str(tmp_path / "s.json"),
                 "--out", str(tmp_path / "out"), "--residuals"]) == 0
    report = json.loads((tmp_path / "out" / "residuals.json").read_text())
    details = string_suite(0).details
    for name in ("box", "f51", "f52", "f90"):
        assert report[f"{name}_max_residual"] == details[f"{name}_residual"]
        assert report[f"{name}_order"] == details[f"{name}_order"]


def test_string_fields_csv_matches_per_value_formatting(tmp_path):
    _write_json(tmp_path / "s.json", _string_config())
    assert main(["string", "--config", str(tmp_path / "s.json"),
                 "--out", str(tmp_path / "out")]) == 0
    state = worldsheet.build_wave_state(worldsheet.mode_spec_from_json(_string_config()))
    taus, sigmas = (g.ravel() for g in np.meshgrid(
        np.linspace(0.0, 1.0, 11), np.linspace(0.0, math.pi, 17), indexing="ij"))
    xs = spinor_to_vec(worldsheet.eval_x(state, taus, sigmas)).real
    phis = worldsheet.dilaton(state, taus, sigmas)
    Ts = worldsheet.energy_momentum(state, taus, sigmas)
    lines = ["tau,sigma,x0,x1,x2,x3,phi,T00,T01,T11"]
    for row in zip(taus, sigmas, *xs.T, phis, Ts[:, 0, 0], Ts[:, 0, 1], Ts[:, 1, 1]):
        lines.append(",".join(f"{value:.17g}" for value in row))
    assert (tmp_path / "out" / "fields.csv").read_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("residuals", [[], ["--residuals"]], ids=["plain", "residuals"])
@pytest.mark.parametrize("where", ["mass", "gram"])
def test_string_rejects_non_finite_spec(tmp_path, capsys, where, residuals):
    cfg = _string_config()
    if where == "mass":
        cfg["mass"] = float("nan")
    else:
        cfg["gram"]["k.0|k.0"] = [float("nan"), 0.0]
    _write_json(tmp_path / "s.json", cfg)
    code = main(["string", "--config", str(tmp_path / "s.json"),
                 "--out", str(tmp_path / "out"), *residuals])
    err = capsys.readouterr().err
    assert code == 2
    assert "must be finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_string_rejects_bad_spec(tmp_path):
    _write_json(tmp_path / "s.json", {"mass": 1.0, "modes": [0], "gram": {}})
    code = main(["string", "--config", str(tmp_path / "s.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 2


def _resolve_payload():
    return hermitian_to_json(np.diag([1.0, -1.0]))


def _complex_m_particle_config():
    cfg = _particle_config()
    cfg["gram"]["M"] = {"re": [[0.7, 0.1], [0.1, 0.8]], "im": [[0.0, 0.05], [-0.05, 0.0]]}
    return cfg


_VALID = {"resolve": _resolve_payload, "particle": _particle_config,
          "particle-M": _complex_m_particle_config, "string": _string_config}


def _argv(kind, config, out, extra=()):
    command = kind.split("-")[0]
    flag = "--input" if command == "resolve" else "--config"
    return [command, flag, str(config), "--out", str(out), *extra]


def _replaced(obj, path, value):
    """A copy of obj with the entry at the key path set to value."""
    if not path:
        return value
    obj = copy.deepcopy(obj)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return obj


# Particle config fields that take a JSON number; a boolean is not one.
_NUMBER_FIELDS = [("mass",), ("tau0",), ("tau_end",), ("steps",), ("einbein", "params", "e0"),
                  ("gram", "M", "mu")]


@pytest.mark.parametrize("kind,path,value,extra", [
    pytest.param("string", ("gram",), {"l.0|l.0": 5}, (), id="string-gram-value-not-a-pair"),
    pytest.param("string", ("gram",), [1, 2], (), id="string-gram-not-an-object"),
    pytest.param("particle", ("gram", "x"), [0.1, 0.0, 0.2], (), id="particle-x-three-entries"),
    pytest.param("particle", ("einbein",), "const", (), id="particle-einbein-not-an-object"),
    pytest.param("particle", ("gram", "M"), {"re": [[1, 0], [0, 1]], "im": [[0, 0]]}, (),
                 id="particle-M-im-broadcasts"),
    *(pytest.param("string", ("modes", 0), mode, (), id=f"string-mode-{mode!r}")
      for mode in ("1", 1.7, True)),
    pytest.param("particle", ("einbein",), {"re": [[1.0]]}, (), id="particle-einbein-unknown-key"),
    pytest.param("particle", ("einbein", "params"), {"a": 2.0}, (),
                 id="particle-einbein-const-takes-a"),
    *(pytest.param("particle", path, True, (), id=f"particle-{path[-1]}-true")
      for path in _NUMBER_FIELDS),
    pytest.param("particle", ("steps",), 2.7, (), id="particle-steps-not-an-integer"),
    pytest.param("resolve", (), None, ("--tol", "nan"), id="resolve-tol-nan"),
    pytest.param("resolve", (), None, ("--tol", "-1"), id="resolve-tol-negative")])
def test_malformed_input_exits_2(tmp_path, capsys, kind, path, value, extra):
    cfg = _VALID[kind]()
    _write_json(tmp_path / "cfg.json", _replaced(cfg, path, value) if path else cfg)
    code = main(_argv(kind, tmp_path / "cfg.json", tmp_path / "out", extra))
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path,value", [(path, True) for path in _NUMBER_FIELDS]
                         + [(("steps",), 2.7), (("mass",), "1.3")])
def test_particle_config_error_names_the_field(tmp_path, capsys, path, value):
    _write_json(tmp_path / "cfg.json", _replaced(_particle_config(), path, value))
    assert main(_argv("particle", tmp_path / "cfg.json", tmp_path / "out")) == 2
    assert f"{path[-1]} must be a" in capsys.readouterr().err


def _key_paths(obj, path=()):
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _key_paths(value, path + (key,))


# Malformed kinds: wrong type, wrong length, nested, non-finite.  None of them is
# a large number, so no field can ask for a large allocation.
_MALFORMED = [None, True, "abc", {}, [], [1.0] * 3, [1.0] * 5, [[1.0]], [[[0.5, 0.5]]],
              {"re": [[1.0]]}, float("nan"), float("inf"), float("-inf"), [float("nan")] * 4]
_FIELDS = [(kind, path) for kind, make in _VALID.items() for path in _key_paths(make())]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(field=st.sampled_from(_FIELDS), bad=st.sampled_from(_MALFORMED))
def test_cli_fuzz_one_malformed_field(field, bad):
    kind, path = field
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.json"
        _write_json(config, _replaced(_VALID[kind](), path, bad))
        assert main(_argv(kind, config, Path(tmp) / "out")) in (0, 1, 2, 3)


def test_outputs_byte_identical_for_same_config(tmp_path):
    _write_json(tmp_path / "p.json", _particle_config())
    for tag in ("a", "b"):
        assert main(["particle", "--config", str(tmp_path / "p.json"),
                     "--out", str(tmp_path / tag)]) == 0
    assert (tmp_path / "a" / "trajectory.csv").read_bytes() \
        == (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert (tmp_path / "a" / "conservation.json").read_bytes() \
        == (tmp_path / "b" / "conservation.json").read_bytes()


def test_verify_all_smoke(tmp_path, capsys):
    code = main(["verify-all", "--seed", "7", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 8
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload["passed"] is True
    assert payload["seed"] == 7


def test_verify_all_reports_failed_algebra_check(capsys, monkeypatch):
    from cliffdyn import current_algebra
    from cliffdyn.errors import VerificationError

    def broken(*args, **kwargs):
        raise VerificationError("Poincare structure constants mismatch 1.000e-03",
                                poincare_mismatch=1e-3, offending_triple=("M12", "P1", "P2"))

    monkeypatch.setattr(current_algebra, "poincare_check", broken)
    code = main(["verify-all", "--seed", "7", "--json"])
    captured = capsys.readouterr()
    rows = [line for line in captured.out.splitlines() if line.startswith("[")]
    assert code == 1
    assert len(rows) == 8
    assert [r for r in rows if r.startswith("[FAIL]")] == [rows[-1]]
    assert rows[-1].startswith("[FAIL] algebra suite")
    assert "offending_triple=('M12', 'P1', 'P2')" in rows[-1]
    payload = json.loads(captured.out[captured.out.index("{"):])
    details = payload["criteria"][-1]["details"]
    assert details["poincare_mismatch"] == 1e-3
    assert details["error"].startswith("Poincare structure constants mismatch")
    assert "1 criteria FAILED" in captured.err


def test_verify_all_json_deterministic(tmp_path):
    assert main(["verify-all", "--seed", "3", "--out", str(tmp_path / "x")]) == 0
    assert main(["verify-all", "--seed", "3", "--out", str(tmp_path / "y")]) == 0
    assert (tmp_path / "x" / "verify.json").read_bytes() \
        == (tmp_path / "y" / "verify.json").read_bytes()
