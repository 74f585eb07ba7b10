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

from cliffdyn import clifford, worldsheet
from cliffdyn.acceptance import _acceptance_mode_spec, string_suite
from cliffdyn.cli import _json_dumps, main
from cliffdyn.clifford import allocate, bullet_gram, hermitian_to_json, resolve_hermitian
from cliffdyn.sampling import random_hermitian
from cliffdyn.spinors import spinor_to_vec
from cliffdyn.tolerances import DEFAULT
from cliffdyn.worldsheet import make_mode_spec, mode_spec_to_json


def _write_json(path, obj):
    # the string "1e400" is written as a bare literal, which json reads as inf
    path.write_text(json.dumps(obj).replace('"1e400"', "1e400"))


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


def test_resolve_builds_each_gram_once(tmp_path, monkeypatch):
    # the realized Gram, for residual_matrix and gram_residual, and the null
    # Gram: two bullet Grams, where reading gram_residual from the resolution
    # built the realized one twice
    H = np.array([[1.0, 0.5j, 0.0], [-0.5j, -2.0, 0.0], [0.0, 0.0, 0.0]])
    _write_json(tmp_path / "H.json", hermitian_to_json(H))
    calls = []

    def counted(*args):
        calls.append(args)
        return bullet_gram(*args)

    monkeypatch.setattr(clifford, "bullet_gram", counted)
    assert main(["resolve", "--input", str(tmp_path / "H.json"), "--out", str(tmp_path)]) == 0
    assert len(calls) == 2
    text = (tmp_path / "resolution.json").read_text()
    payload = json.loads(text)
    res = resolve_hermitian(H, allocate(6, 6))
    # byte for byte the file that GramResolution.gram_residual's value gives
    assert text == _json_dumps({**payload, "gram_residual": res.gram_residual()})
    assert payload["gram_residual"] == res.gram_residual()


def test_resolve_rejects_non_hermitian(tmp_path):
    _write_json(tmp_path / "H.json",
                {"n": 2, "re": [[0, 1], [1, 0]], "im": [[0, 1], [1, 0]]})
    code = main(["resolve", "--input", str(tmp_path / "H.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), "1e400"])
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


def test_resolve_takes_finite_entries_near_the_float_limit(tmp_path, capsys):
    # the input's Hermitian part is finite, so resolve runs and its absolute
    # gates fail with their values; no warning escapes and no entry is called
    # non-finite
    _write_json(tmp_path / "H.json", hermitian_to_json(np.diag([1.7e308, 1.0])))
    code = main(["resolve", "--input", str(tmp_path / "H.json"), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("resolution failed: gram_residual ") and "non-finite" not in err


def test_resolve_names_the_gate_that_failed(tmp_path, capsys):
    # at 1e4 the gram residual passes --tol and the null residual fails gram_null
    rng = np.random.default_rng(0)
    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    _write_json(tmp_path / "H.json", hermitian_to_json(1e4 * (A + A.conj().T)))
    for tol, failed in ((DEFAULT.gram_residual, ["null_residual"]),
                        (0.0, ["gram_residual", "null_residual"])):
        code = main(["resolve", "--input", str(tmp_path / "H.json"), "--out", str(tmp_path),
                     "--tol", str(tol)])
        payload = json.loads((tmp_path / "resolution.json").read_text())
        gates = {"gram_residual": f"--tol {tol:.1e}", "null_residual": "gram_null 1.0e-12"}
        assert code == 1
        assert payload["gram_residual"] > 0.0 and payload["null_residual"] > DEFAULT.gram_null
        assert capsys.readouterr().err == "resolution failed: " + "; ".join(
            f"{name} {payload[name]:.3e} exceeds {gates[name]}" for name in failed) + "\n"


def _resolve_with_off_diagonal():
    return hermitian_to_json(np.array([[1.0, 1.0], [1.0, -1.0]]))


# int() and a float array would read n = "2" or 2.7 as 2 and a "1.0" or true entry
# as 1.0, each a valid matrix; the reader refuses them and names the field.
@pytest.mark.parametrize("path,value,field", [
    pytest.param(("n",), "2", "n", id="n-string"),
    pytest.param(("n",), 2.7, "n", id="n-float"),
    pytest.param(("n",), True, "n", id="n-true"),
    pytest.param(("n",), 0, "n", id="n-zero"),
    pytest.param(("re", 0, 1), "1.0", "re[0][1]", id="entry-string"),
    pytest.param(("re", 0, 1), True, "re[0][1]", id="entry-true")])
def test_resolve_rejects_mistyped_input(tmp_path, capsys, path, value, field):
    _write_json(tmp_path / "H.json", _replaced(_resolve_with_off_diagonal(), path, value))
    code = main(["resolve", "--input", str(tmp_path / "H.json"),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {field} must be a")
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


@pytest.mark.parametrize("einbein,read", [
    ({"type": "linear", "params": {"a": 0.5}}, {"type": "linear", "params": {"a": 0.5, "b": 0.0}}),
    ({}, {"type": "const", "params": {"e0": 1.0}})])
def test_particle_report_records_its_run(tmp_path, einbein, read):
    cfg = {**_particle_config(), "einbein": einbein, "tau0": 0.25, "tau_end": 1.25}
    _write_json(tmp_path / "p.json", cfg)
    assert main(["particle", "--config", str(tmp_path / "p.json"),
                 "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "conservation.json").read_text())
    assert (report["tau0"], report["tau_end"], report["h"]) == (0.25, 1.25, 1.0 / 400)
    assert report["einbein"] == read
    # e > 0 makes mu grow from tau0, so its minimum over the window is mu_initial
    assert report["mu_min"] == report["mu_initial"] == pytest.approx(0.7, abs=1e-12)


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
    pytest.param("mass", "1e400", id="mass-1e400"),
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


@pytest.mark.parametrize("steps", [10 ** 17, 10 ** 19], ids=["1e17", "1e19"])
def test_particle_steps_too_large_to_allocate_exits_2(tmp_path, capsys, steps):
    # 10^17 rows fail numpy's allocation, 10^19 its index range; either column
    # array would be over 2^47 bytes, so it fails at once and touches no memory
    _write_json(tmp_path / "p.json", {**_particle_config(), "steps": steps})
    code = main(["particle", "--config", str(tmp_path / "p.json"),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [f"error: steps = {steps} is too large: its {steps + 1} "
                                "trajectory rows cannot be allocated"]
    assert not (tmp_path / "out").exists()


def test_string_too_large_to_allocate_exits_2(tmp_path, capsys, monkeypatch):
    # a spec of 10^6 modes asks for a 233 TiB Gram; parsing one takes seconds,
    # so the failed allocation is raised in place of building the state
    def unallocatable(spec):
        raise MemoryError("Unable to allocate 233. TiB for an array")

    monkeypatch.setattr(worldsheet, "build_wave_state", unallocatable)
    _write_json(tmp_path / "s.json", _string_config())
    code = main(["string", "--config", str(tmp_path / "s.json"), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: input too large: Unable to allocate 233. TiB for an array"]


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


def test_string_box_residual_is_gated(tmp_path, capsys, monkeypatch):
    _write_json(tmp_path / "s.json", _string_config())
    too_big = 4 * DEFAULT.fd_residual
    monkeypatch.setattr(worldsheet, "wave_residual", lambda state, h: np.full(16, too_big))
    code = main(["string", "--config", str(tmp_path / "s.json"),
                 "--out", str(tmp_path / "out"), "--residuals"])
    assert code == 1
    assert capsys.readouterr().err == f"residuals exceed tolerance: {too_big:.3e}\n"
    report = json.loads((tmp_path / "out" / "residuals.json").read_text())
    assert report["box_max_residual"] == too_big


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
@pytest.mark.parametrize("where,bad", [("mass", float("nan")), ("gram", float("nan")),
                                       ("gram", "1e400")], ids=["mass", "gram", "gram-1e400"])
def test_string_rejects_non_finite_spec(tmp_path, capsys, where, bad, residuals):
    cfg = _string_config()
    if where == "mass":
        cfg["mass"] = bad
    else:
        cfg["gram"]["k.0|k.0"] = [bad, 0.0]
    _write_json(tmp_path / "s.json", cfg)
    code = main(["string", "--config", str(tmp_path / "s.json"),
                 "--out", str(tmp_path / "out"), *residuals])
    err = capsys.readouterr().err
    assert code == 2
    assert "must be finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# a string at rest without vibration: l.conj(l) = m^3 I, and nothing else
_PLAIN_STRING = {"mass": 1.1, "modes": [], "gram": {"l.0|l.0": [1.331, 0], "l.1|l.1": [1.331, 0]}}


def test_string_without_modes_writes_a_null_order(tmp_path, capsys):
    _write_json(tmp_path / "s.json", _PLAIN_STRING)
    code = main(["string", "--config", str(tmp_path / "s.json"),
                 "--out", str(tmp_path / "out"), "--residuals"])
    assert code == 0, capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "residuals.json").read_text())
    assert report["f52_max_residual"] == 0.0 and report["f52_order"] is None


@pytest.mark.parametrize("cfg,message", [
    ({"modes": [10 ** 19, -10 ** 19]}, "error: modes must lie strictly between"),
    ({"mass": -1.1}, "error: mass must be positive")], ids=["modes-beyond-int64", "mass-negative"])
def test_string_rejects_a_spec_out_of_range(tmp_path, capsys, cfg, message):
    _write_json(tmp_path / "s.json", {**_PLAIN_STRING, **cfg})
    code = main(["string", "--config", str(tmp_path / "s.json"), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith(message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["particle", "string"])
@pytest.mark.parametrize("mass,how", [(1e-320, "underflows"), (1e-160, "underflows"),
                                      (1e308, "overflows")])
def test_mass_whose_square_leaves_the_float_range_exits_2(tmp_path, capsys, recwarn,
                                                          kind, mass, how):
    # m^2 of 1e-320 and 1e-160 underflows (the particle report would read NaN), of 1e308 overflows
    cfg = _particle_config() if kind == "particle" else _PLAIN_STRING
    _write_json(tmp_path / "cfg.json", {**cfg, "mass": mass})
    assert main(_argv(kind, tmp_path / "cfg.json", tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err == f"error: mass = {mass!r} is out of range: its square {how}\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "out").exists()


def test_string_refuses_an_l_block_whose_norm_overflows(tmp_path, capsys, recwarn):
    # L.L = det(l block) = 1e600 overflows: one line naming the l block, no RuntimeWarning
    _write_json(tmp_path / "s.json", {"mass": 1e100, "modes": [],
                                      "gram": {"l.0|l.0": [1e300, 0], "l.1|l.1": [1e300, 0]}})
    assert main(["string", "--config", str(tmp_path / "s.json"),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == \
        "error: l block is out of range: its norm L.L = det(l block) overflows\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
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
    pytest.param("string", ("gram", "k.0|k.0"), [True, 0.0], (), id="string-gram-entry-true"),
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


@pytest.mark.parametrize("kind,path,value,field", [
    pytest.param("particle", ("gram", "x"), ["0.1", 0.0, 0.2, 0.0], "gram.x[0]", id="x-string"),
    pytest.param("particle", ("gram", "x"), [True, 0.0, 0.2, 0.0], "gram.x[0]", id="x-true"),
    pytest.param("particle-M", ("gram", "M", "re"), [[True, 0.1], [0.1, 0.8]], "gram.M.re[0][0]",
                 id="M-re-true"),
    pytest.param("string", ("mass",), "1.1", "mass", id="string-mass-string"),
    pytest.param("string", ("gram", "k.0|k.0"), [True, 0.0], 'gram["k.0|k.0"][0]',
                 id="string-gram-entry-true")])
def test_json_number_entries_reject_strings_and_booleans(tmp_path, capsys, kind, path, value,
                                                         field):
    _write_json(tmp_path / "cfg.json", _replaced(_VALID[kind](), path, value))
    assert main(_argv(kind, tmp_path / "cfg.json", tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert f"{field} must be a number" in err
    assert len(err.splitlines()) == 1
    assert "bad mode spec" not in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind,path,value,key", [
    pytest.param("particle", ("stpes",), 4000, "stpes", id="particle-misspelt-steps"),
    pytest.param("particle", ("gram", "M", "re"), [[1.0, 0.0], [0.0, 1.0]], "gram.M.re",
                 id="particle-M-mu-and-re"),
    pytest.param("resolve", ("extra",), 1, "extra", id="resolve-extra-key")])
def test_unknown_keys_exit_2(tmp_path, capsys, kind, path, value, key):
    _write_json(tmp_path / "cfg.json", _replaced(_VALID[kind](), path, value))
    assert main(_argv(kind, tmp_path / "cfg.json", tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert f"unknown key '{key}'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["resolve", "particle", "string"])
@pytest.mark.parametrize("data", [None, b"{", b"\xff", b"[" * 100_000],
                         ids=["missing", "not-json", "not-utf8", "nested-too-deep"])
def test_unreadable_input_exits_2(tmp_path, capsys, kind, data):
    if data is not None:
        (tmp_path / "cfg.json").write_bytes(data)
    assert main(_argv(kind, tmp_path / "cfg.json", tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["resolve", "particle", "string"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, kind):
    _write_json(tmp_path / "cfg.json", _VALID[kind]())
    (tmp_path / "afile").touch()
    assert main(_argv(kind, tmp_path / "cfg.json", tmp_path / "afile")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: cannot write {tmp_path / 'afile'}")
    assert "File exists" in err[0]


def _key_paths(obj, path=()):
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _key_paths(value, path + (key,))


# Malformed kinds: wrong type (a numeric string among them), wrong length, nested,
# non-finite, and 2.5 where an integer is due.  None of them is a large number, so
# no field can ask for a large allocation.
_MALFORMED = [None, True, "abc", {}, [], [1.0] * 3, [1.0] * 5, [[1.0]], [[[0.5, 0.5]]],
              {"re": [[1.0]]}, float("nan"), float("inf"), float("-inf"), [float("nan")] * 4,
              "1.0", 2.5]
_FIELDS = [(kind, path) for kind, make in _VALID.items() for path in _key_paths(make())]
# An empty einbein or params object is the documented default, the const einbein
# with e0 = 1, so these four replacements run (exit 0).
_DEFAULTED = [("particle", ("einbein",), {}), ("particle", ("einbein", "params"), {}),
              ("particle-M", ("einbein",), {}), ("particle-M", ("einbein", "params"), {})]
# 2.5 is not malformed in a real-valued particle field.  Each run exits 0, except
# tau0 = 2.5: the window back to tau_end = 1 lies before the einbein's turning
# point, which is refused (exit 3).
_REAL_FIELDS = {("mass",): 0, ("tau0",): 3, ("tau_end",): 0, ("einbein", "params", "e0"): 0,
                ("gram", "M", "mu"): 0}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(field=st.sampled_from(_FIELDS), bad=st.sampled_from(_MALFORMED))
def test_cli_fuzz_one_malformed_field(field, bad):
    kind, path = field
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.json"
        _write_json(config, _replaced(_VALID[kind](), path, bad))
        expected = 2
        if (kind, path, bad) in _DEFAULTED:
            expected = 0
        elif bad == 2.5 and kind.startswith("particle") and path in _REAL_FIELDS:
            expected = _REAL_FIELDS[path]
        assert main(_argv(kind, config, Path(tmp) / "out")) == expected


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


def test_verify_all_refuses_an_unwritable_out_before_any_criterion(tmp_path, capsys,
                                                                    monkeypatch):
    from cliffdyn import acceptance
    ran = []
    monkeypatch.setattr(acceptance, "run_all", lambda seed: ran.append(seed) or [])
    (tmp_path / "afile").touch()
    code = main(["verify-all", "--out", str(tmp_path / "afile" / "x")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and ran == []
    assert len(err) == 1
    assert err[0].startswith(f"error: cannot write {tmp_path / 'afile' / 'x' / 'verify.json'}")


def test_verify_all_negative_seed_exits_2(capsys):
    code = main(["verify-all", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --seed must be a non-negative integer, got -1\n"


def test_verify_all_reports_failed_algebra_check(capsys, monkeypatch):
    from cliffdyn import current_algebra
    from cliffdyn.errors import VerificationError

    def broken(*args, **kwargs):
        raise VerificationError("Poincare structure constants mismatch 1.000e-03",
                                poincare_mismatch=1e-3, offending_triple=("M12", "P1", "P2"))

    monkeypatch.setattr(current_algebra, "poincare_check", broken)
    code = main(["verify-all", "--seed", "7", "--json"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    criteria = payload["criteria"]
    assert code == 1
    assert payload["passed"] is False
    assert len(criteria) == 8
    assert [c for c in criteria if not c["passed"]] == [criteria[-1]]
    assert criteria[-1]["name"].startswith("algebra suite")
    details = criteria[-1]["details"]
    assert details["offending_triple"] == ["M12", "P1", "P2"]
    assert details["poincare_mismatch"] == 1e-3
    assert details["error"].startswith("Poincare structure constants mismatch")
    assert "1 criteria FAILED" in captured.err


def test_main_calls_the_command_bound_at_call_time(tmp_path, monkeypatch):
    from cliffdyn import cli
    seen = []
    # the parser is built before the command is rebound
    assert main(["string", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 2
    monkeypatch.setattr(cli, "cmd_string", lambda args: seen.append(args) or 7)
    assert main(["string", "--config", "s.json", "--out", str(tmp_path)]) == 7
    assert [(a.command, a.config, a.residuals) for a in seen] == [("string", "s.json", False)]


def test_main_calls_share_no_flag_state(tmp_path, capsys, monkeypatch):
    from cliffdyn import acceptance
    from cliffdyn.acceptance import CriterionResult
    monkeypatch.setattr(acceptance, "run_all", lambda seed: [
        CriterionResult("stub criterion", True, {"residual": 1e-16})])
    assert main(["verify-all", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0
    assert main(["verify-all", "--seed", "5"]) == 0
    assert capsys.readouterr().out == ("[PASS] stub criterion: residual=1.000e-16\n"
                                       "all criteria passed\n")
    _write_json(tmp_path / "s.json", _string_config())
    for out, extra in (("with", ["--residuals"]), ("without", [])):
        assert main(["string", "--config", str(tmp_path / "s.json"),
                     "--out", str(tmp_path / out), *extra]) == 0
    assert (tmp_path / "with" / "residuals.json").exists()
    assert sorted(p.name for p in (tmp_path / "without").iterdir()) == ["fields.csv"]


def test_verify_all_json_deterministic(tmp_path):
    assert main(["verify-all", "--seed", "3", "--out", str(tmp_path / "x")]) == 0
    assert main(["verify-all", "--seed", "3", "--out", str(tmp_path / "y")]) == 0
    assert (tmp_path / "x" / "verify.json").read_bytes() \
        == (tmp_path / "y" / "verify.json").read_bytes()


def test_verify_all_timings_go_to_stderr_alone(tmp_path, capsys):
    # --timings adds stderr lines and leaves stdout, --json and --out bytes as they were
    runs = {}
    for flag in ("", "--timings"):
        out_dir = tmp_path / (flag or "plain")
        code = main(["verify-all", "--seed", "3", "--json", "--out", str(out_dir),
                     *([flag] if flag else [])])
        captured = capsys.readouterr()
        runs[flag] = (code, captured.out, (out_dir / "verify.json").read_bytes(), captured.err)
    assert runs[""][:3] == runs["--timings"][:3]
    assert runs[""][0] == 0 and runs[""][3] == ""
    # with --json, stdout is the payload alone, byte for byte the --out file
    assert runs[""][1].encode() == runs[""][2]
    lines = runs["--timings"][3].splitlines()
    titles = [c["name"] for c in json.loads(runs[""][2])["criteria"]]
    assert len(lines) == len(titles) + 1
    for line, title in zip(lines, titles):
        seconds, unit, name = line.split(maxsplit=2)
        assert (unit, name) == ("s", title) and float(seconds) > 0
    assert lines[-1].split(maxsplit=2)[1:] == ["s", "verify-all"]
