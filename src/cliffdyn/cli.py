"""Command-line front end: resolution, particle runs, string runs, verify-all.

Exit codes: 0 success, 1 numerical verification failure, 2 malformed input,
3 precondition refusal (for example a window where proper time is undefined).
All outputs are deterministic for a fixed (config, seed) pair; reports
record the seed they were produced with.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import acceptance, particle, worldsheet
from .clifford import allocate, hermitian_from_json, resolve_hermitian
from .errors import InputError, PreconditionError, VerificationError
from .spinors import spinor_to_vec
from .tolerances import DEFAULT

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _json_dumps(obj) -> str:
    def default(value):
        if isinstance(value, (np.floating, np.integer)):
            return value.item()
        if isinstance(value, np.bool_):
            return bool(value)
        if isinstance(value, complex):
            return [value.real, value.imag]
        raise TypeError(f"not JSON serializable: {type(value)}")

    return json.dumps(obj, sort_keys=True, indent=2, default=default) + "\n"


def cmd_resolve(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        print(f"error: --tol must be finite and non-negative, got {args.tol}", file=sys.stderr)
        return EXIT_INPUT
    try:
        payload = json.loads(Path(args.input).read_text())
        H = hermitian_from_json(payload)
    except (OSError, json.JSONDecodeError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    n = H.shape[0]
    space = allocate(2 * n, 2 * n)
    res = resolve_hermitian(H, space)
    residual_matrix = res.realized_gram() - res.target
    gram_res = res.gram_residual()
    null_res = res.null_residual()
    out = {
        "n": n,
        "generator_signs": space.signs.tolist(),
        "vectors": [{"re": row.real.tolist(), "im": row.imag.tolist()} for row in res.coeffs],
        "residual_matrix": {"re": residual_matrix.real.tolist(),
                            "im": residual_matrix.imag.tolist()},
        "gram_residual": gram_res,
        "null_residual": null_res,
        "tolerance": args.tol,
    }
    _write(Path(args.out) / "resolution.json", _json_dumps(out))
    if not (gram_res <= args.tol and null_res <= DEFAULT.gram_null):
        print(f"resolution residual {gram_res:.3e} exceeds {args.tol:.1e}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"resolved {n}x{n} matrix: residual {gram_res:.3e}")
    return EXIT_OK


def _number(value, field: str) -> float:
    """A JSON number as a float; a boolean or a string is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{field} must be a number, got {value!r}")
    return float(value)


def _integer(value, field: str) -> int:
    """A JSON integer; a boolean or a float such as 2.7 is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{field} must be an integer, got {value!r}")
    return value


_EINBEIN_PARAMS = {"const": {"e0"}, "linear": {"a", "b"}}


def _einbein_from_config(spec: dict, tau0: float) -> particle.EinbeinFn:
    if not isinstance(spec, dict) or not set(spec) <= {"type", "params"}:
        raise InputError(f"einbein must be an object with keys type and params, got {spec!r}")
    kind = spec.get("type", "const")
    if not isinstance(kind, str) or kind not in _EINBEIN_PARAMS:
        raise InputError(f"unknown einbein type {kind!r}")
    params = spec.get("params", {})
    if not isinstance(params, dict) or not set(params) <= _EINBEIN_PARAMS[kind]:
        raise InputError(f"{kind} einbein params take keys {sorted(_EINBEIN_PARAMS[kind])}, "
                         f"got {params!r}")
    params = {key: _number(value, f"einbein {key}") for key, value in params.items()}
    if not all(math.isfinite(value) for value in params.values()):
        raise InputError(f"einbein parameters must be finite, got {params}")
    if kind == "const":
        return particle.constant_einbein(params.get("e0", 1.0), tau0=tau0)
    return particle.linear_einbein(params.get("a", 1.0), params.get("b", 0.0), tau0=tau0)


def cmd_particle(args) -> int:
    try:
        cfg = json.loads(Path(args.config).read_text())
        mass, tau0, tau_end = (_number(cfg[field], field) for field in ("mass", "tau0", "tau_end"))
        steps = _integer(cfg["steps"], "steps")
        if not all(math.isfinite(v) for v in (mass, tau0, tau_end)):
            raise InputError(f"mass, tau0 and tau_end must be finite, got {mass, tau0, tau_end}")
        gram = cfg["gram"]
        x, p = np.asarray(gram["x"], dtype=float), np.asarray(gram["p"], dtype=float)
        if not x.shape == p.shape == (4,):
            raise InputError(f"gram x and p must be four-vectors, got shapes {x.shape}, {p.shape}")
        m_spec = gram.get("M", {"mu": 0.0})
        if "mu" in m_spec:
            mu = complex(_number(m_spec["mu"], "M's mu"))
            if not cmath.isfinite(mu):
                raise InputError(f"M's mu must be finite, got {mu}")
            M = mu * np.eye(2)
        else:
            if not np.shape(m_spec["re"]) == np.shape(m_spec["im"]) == (2, 2):
                raise InputError("M's re and im must both be 2x2")
            M = np.asarray(m_spec["re"], dtype=float) + 1j * np.asarray(m_spec["im"], dtype=float)
        e = _einbein_from_config(cfg.get("einbein", {}), tau0)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError,
            AttributeError, InputError) as exc:
        print(f"error: bad particle config: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        st = particle.build_state(x, p, M, mass, tau=tau0)
    except (InputError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    # proper time is undefined wherever mu vanishes; refuse such windows
    mu0 = st.mu_charge()
    mu_min = float(np.min(mu0 + particle.mu_of_tau(e, mass, np.linspace(tau0, tau_end, 64))))
    if not mu_min > 1e-12:
        print(f"refusing window containing mu = 0 (min mu = {mu_min:.3e}): "
              "proper time is undefined there", file=sys.stderr)
        return EXIT_PRECONDITION
    traj = particle.integrate(st, e, tau_end, steps)
    out_dir = Path(args.out)
    _write(out_dir / "trajectory.csv", traj.to_csv())
    p_contra = (np.diag([1.0, -1, -1, -1]) @ traj.p[0])
    pred = traj.x[0][None, :] + np.outer(traj.taubar, p_contra / mass)
    report = {
        "mass": mass,
        "steps": steps,
        "constraint_drift": traj.constraint_drift(),
        "charge_drift": traj.charge_drift(),
        "straight_line_residual": float(np.abs(traj.x - pred).max()),
        "mu_initial": mu0,
        "mu_final": float(traj.mu[-1]),
    }
    _write(out_dir / "conservation.json", _json_dumps(report))
    print(f"trajectory written: constraint drift {report['constraint_drift']:.3e}, "
          f"straight-line residual {report['straight_line_residual']:.3e}")
    return EXIT_OK


def cmd_string(args) -> int:
    try:
        cfg = json.loads(Path(args.config).read_text())
        spec = worldsheet.mode_spec_from_json(cfg)
        state = worldsheet.build_wave_state(spec)
    except (OSError, json.JSONDecodeError, InputError) as exc:
        print(f"error: bad mode spec: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    out_dir = Path(args.out)
    taus, sigmas = (g.ravel() for g in np.meshgrid(
        np.linspace(0.0, 1.0, 11), np.linspace(0.0, math.pi, 17), indexing="ij"))
    xs = spinor_to_vec(worldsheet.eval_x(state, taus, sigmas)).real
    phis = worldsheet.dilaton(state, taus, sigmas)
    Ts = worldsheet.energy_momentum(state, taus, sigmas)
    table = np.column_stack((taus, sigmas, xs, phis, Ts[:, 0, 0], Ts[:, 0, 1], Ts[:, 1, 1]))
    row = ",".join(["%.17g"] * table.shape[1])
    _write(out_dir / "fields.csv", "\n".join(["tau,sigma,x0,x1,x2,x3,phi,T00,T01,T11",
                                              *(row % tuple(r) for r in table.tolist())]) + "\n")
    result = EXIT_OK
    if args.residuals:
        residuals, orders = worldsheet.residual_suite(state)
        report = {"h_grid": DEFAULT.h_grid}
        for name in residuals:
            report[f"{name}_max_residual"] = residuals[name]
            report[f"{name}_order"] = orders[name]
        worst = float(np.max([r for name, r in residuals.items() if name != "box"]))
        _write(out_dir / "residuals.json", _json_dumps(report))
        if not worst <= DEFAULT.fd_residual:
            print(f"residuals exceed tolerance: {worst:.3e}", file=sys.stderr)
            result = EXIT_NUMERICAL
    print(f"fields written for {len(taus)} grid points")
    return result


def cmd_verify_all(args) -> int:
    results = acceptance.run_all(seed=args.seed)
    rows = [r.line() for r in results]
    for row in rows:
        print(row)
    n_failed = sum(0 if r.passed else 1 for r in results)
    if args.json or args.out:
        payload = {
            "seed": args.seed,
            "passed": n_failed == 0,
            "criteria": [{"name": r.name, "passed": r.passed, "details": r.details}
                         for r in results],
        }
        text = _json_dumps(payload)
        if args.out:
            _write(Path(args.out) / "verify.json", text)
        if args.json:
            print(text, end="")
    if n_failed:
        print(f"{n_failed} criteria FAILED", file=sys.stderr)
        return EXIT_NUMERICAL
    print("all criteria passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffdyn",
        description="Clifford-space canonical dynamics: resolutions, particles, "
                    "strings, and the verification suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_res = sub.add_parser("resolve", help="resolve a Hermitian matrix into a bullet Gram")
    p_res.add_argument("--input", required=True, help="HermitianMatrix JSON file")
    p_res.add_argument("--out", required=True, help="output directory")
    p_res.add_argument("--tol", type=float, default=DEFAULT.gram_residual)
    p_res.set_defaults(fn=cmd_resolve)

    p_par = sub.add_parser("particle", help="integrate a single-particle configuration")
    p_par.add_argument("--config", required=True, help="particle JSON config")
    p_par.add_argument("--out", required=True)
    p_par.set_defaults(fn=cmd_particle)

    p_str = sub.add_parser("string", help="evaluate a wave-state configuration")
    p_str.add_argument("--config", required=True, help="mode spec JSON")
    p_str.add_argument("--out", required=True)
    p_str.add_argument("--residuals", action="store_true",
                       help="also run the finite-difference residual suite")
    p_str.set_defaults(fn=cmd_string)

    p_ver = sub.add_parser("verify-all", help="run every verification criterion")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--json", action="store_true", help="print the JSON report")
    p_ver.add_argument("--out", help="directory for the JSON report")
    p_ver.set_defaults(fn=cmd_verify_all)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
