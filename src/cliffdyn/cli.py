"""Command-line front end: resolution, particle runs, string runs, verify-all.

Exit codes: 0 success, 1 numerical verification failure, 2 malformed input,
3 precondition refusal (for example a window where proper time is undefined).
All outputs are deterministic for a fixed (config, seed) pair; reports
record the seed they were produced with.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import acceptance, particle, worldsheet
from .clifford import allocate, hermitian_from_json, resolve_hermitian
from .config import fields, integer, load, number, positive_mass, real_array
from .errors import InputError, PreconditionError, VerificationError
from .spinors import ETA, spinor_to_vec
from .tolerances import DEFAULT

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


def _write(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


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
        raise InputError(f"--tol must be finite and non-negative, got {args.tol}")
    H = hermitian_from_json(load(args.input))
    n = H.shape[0]
    space = allocate(2 * n, 2 * n)
    res = resolve_hermitian(H, space)
    residual_matrix = res.realized_gram() - res.target
    out = {
        "n": n,
        "generator_signs": space.signs.tolist(),
        "vectors": [{"re": row.real.tolist(), "im": row.imag.tolist()} for row in res.coeffs],
        "residual_matrix": {"re": residual_matrix.real.tolist(),
                            "im": residual_matrix.imag.tolist()},
        "gram_residual": float(np.abs(residual_matrix).max()),    # res.gram_residual(), one Gram fewer
        "null_residual": res.null_residual(),
        "tolerance": args.tol,
    }
    _write(Path(args.out) / "resolution.json", _json_dumps(out))
    # both gates scale with the matrix, as validate_hermitian's does: the residuals
    # are rounding of products of H's size
    scale = max(1.0, float(np.abs(res.target).max()))
    failed = [f"{name} {out[name]:.3e} exceeds {gate} {bound:.1e} x {scale:.3e}"
              for name, gate, bound in (("gram_residual", "--tol", args.tol),
                                        ("null_residual", "gram_null", DEFAULT.gram_null))
              if not out[name] <= bound * scale]
    if failed:
        print("resolution failed: " + "; ".join(failed), file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"resolved {n}x{n} matrix: residual {out['gram_residual']:.3e}")
    return EXIT_OK


_EINBEINS = {"const": (particle.constant_einbein, {"e0": 1.0}),
             "linear": (particle.linear_einbein, {"a": 1.0, "b": 0.0})}


def _einbein_from_config(spec, tau0: float) -> tuple[particle.EinbeinFn, dict]:
    """The einbein a particle config names, and its spec as read, defaults filled in."""
    spec = fields(spec, "einbein", optional={"type": "const", "params": {}})
    if not isinstance(spec["type"], str) or spec["type"] not in _EINBEINS:
        raise InputError(f"unknown einbein type {spec['type']!r}")
    make, defaults = _EINBEINS[spec["type"]]
    params = fields(spec["params"], "einbein.params", optional=defaults)
    values = {key: number(params[key], f"einbein.params.{key}") for key in defaults}
    return make(*values.values(), tau0=tau0), {"type": spec["type"], "params": values}


def _particle_state(gram: dict, mass: float, tau0: float) -> particle.ParticleState:
    """The state of a particle config's gram, read as ``{"gram.x": x, "gram.p": p,
    <M's field>: M}``.  A state that cannot be built, or reads back a non-finite
    x, p or mu, is an InputError naming the first field that alone does so too.

    A finite state must also read back x, p and M within ``gram_residual``
    times the gram's scale, max(1, largest entry), or it is an InputError
    naming M's field: x and p are resolved on blocks of their own, and M
    enters d* along null directions whose cancelling terms, of order |M|^2,
    swamp the p block once M is large."""
    def build(values):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                st = particle.build_state(*values, mass, tau=tau0)
            except InputError:          # a spinor of x or p overflowed
                return None
            finite = np.isfinite([*st.x_vec(), *st.p_vec(), st.mu_charge()]).all()
        return st if finite else None

    positive_mass(mass)         # refused by its own message, not as a gram field
    st = build(gram.values())
    if st is None:
        alone = ([v if i == k else 0 * v for i, v in enumerate(gram.values())]
                 for k in range(len(gram)))
        name = next((name for name, values in zip(gram, alone) if build(values) is None), "gram")
        raise InputError(f"{name} is out of range: the particle state built from it is not finite")
    x, p, M = gram.values()
    miss = max(np.abs(st.x_vec() - x).max(), np.abs(st.p_vec() - p).max(),
               np.abs(st.cd_gram() - M).max())
    bound = DEFAULT.gram_residual * max(1.0, *(np.abs(v).max() for v in (x, p, M)))
    if not miss <= bound:
        raise InputError(f"{list(gram)[2]} is out of range: the particle state built from it "
                         f"misses its gram by {miss:.3e} > {bound:.3e}")
    return st


def cmd_particle(args) -> int:
    cfg = fields(load(args.config), "", ("mass", "tau0", "tau_end", "steps", "gram"),
                 {"einbein": {}})
    mass, tau0, tau_end = (number(cfg[key], key) for key in ("mass", "tau0", "tau_end"))
    steps = integer(cfg["steps"], "steps")
    gram = fields(cfg["gram"], "gram", ("x", "p"), {"M": {"mu": 0.0}})
    x, p = (real_array(gram[key], (4,), f"gram.{key}") for key in ("x", "p"))
    m_keys = ("mu",) if isinstance(gram["M"], dict) and "mu" in gram["M"] else ("re", "im")
    m_spec = fields(gram["M"], "gram.M", m_keys)
    if "mu" in m_spec:
        M, m_field = complex(number(m_spec["mu"], "gram.M.mu")) * np.eye(2), "gram.M.mu"
    else:
        M, m_field = (real_array(m_spec["re"], (2, 2), "gram.M.re")
                      + 1j * real_array(m_spec["im"], (2, 2), "gram.M.im")), "gram.M"
    e, einbein = _einbein_from_config(cfg["einbein"], tau0)
    st = _particle_state({"gram.x": x, "gram.p": p, m_field: M}, mass, tau0)
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
    p_contra = ETA @ traj.p[0]
    pred = traj.x[0][None, :] + np.outer(traj.taubar, p_contra / mass)
    report = {
        "mass": mass,
        "steps": steps,
        "tau0": tau0,
        "tau_end": tau_end,
        "h": (tau_end - tau0) / steps,
        "einbein": einbein,
        "mu_min": mu_min,
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
    state = worldsheet.build_wave_state(worldsheet.mode_spec_from_json(load(args.config)))
    out_dir = Path(args.out)
    taus, sigmas = (g.ravel() for g in np.meshgrid(
        np.linspace(0.0, 1.0, 11), np.linspace(0.0, math.pi, 17), indexing="ij"))
    xs = spinor_to_vec(worldsheet.eval_x(state, taus, sigmas)).real
    phis = worldsheet.dilaton(state, taus, sigmas)
    Ts = worldsheet.energy_momentum(state, taus, sigmas)
    table = np.column_stack((taus, sigmas, xs, phis, Ts[:, 0, 0], Ts[:, 0, 1], Ts[:, 1, 1]))
    row = ",".join(["%.17g"] * table.shape[1])
    _write(out_dir / "fields.csv", "\n".join(["tau,sigma,x0,x1,x2,x3,phi,T00,T01,T11",
                                              *[row] * len(table), ""])
           % tuple(table.ravel().tolist()))
    result = EXIT_OK
    if args.residuals:
        residuals, orders = worldsheet.residual_suite(state)
        report = {"h_grid": DEFAULT.h_grid}
        for name in residuals:
            report[f"{name}_max_residual"] = residuals[name]
            report[f"{name}_order"] = orders[name]
        worst = float(np.max(list(residuals.values())))
        _write(out_dir / "residuals.json", _json_dumps(report))
        if not worst <= DEFAULT.fd_residual:
            print(f"residuals exceed tolerance: {worst:.3e}", file=sys.stderr)
            result = EXIT_NUMERICAL
    print(f"fields written for {len(taus)} grid points")
    return result


def cmd_verify_all(args) -> int:
    if args.seed < 0:
        raise InputError(f"--seed must be a non-negative integer, got {args.seed}")
    out = Path(args.out) / "verify.json" if args.out else None
    if out:
        _write(out, "")              # an --out that cannot be written fails before any criterion
    start = time.perf_counter()
    results = acceptance.run_all(seed=args.seed)
    if args.timings:
        # to stderr, outside the deterministic rows and payload
        for r in results:
            seconds = "-" if r.seconds is None else f"{r.seconds:.3f}"
            print(f"{seconds:>7} s  {r.name}", file=sys.stderr)
        print(f"{time.perf_counter() - start:7.3f} s  verify-all", file=sys.stderr)
    n_failed = sum(0 if r.passed else 1 for r in results)
    if args.json or args.out:
        text = _json_dumps({
            "seed": args.seed,
            "passed": n_failed == 0,
            "criteria": [{"name": r.name, "passed": r.passed, "details": r.details}
                         for r in results],
        })
        if out:
            _write(out, text)
    if args.json:
        print(text, end="")          # the payload alone, so stdout pipes into a JSON reader
    else:
        for r in results:
            print(r.line())
        if not n_failed:
            print("all criteria passed")
    if n_failed:
        print(f"{n_failed} criteria FAILED", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every ``main`` call.

    It holds no command function: ``main`` looks ``cmd_<command>`` up when it
    runs, so a rebound module attribute (a tracer's wrapper, a test's stub)
    takes effect after the parser is built.
    """
    parser = argparse.ArgumentParser(
        prog="cliffdyn",
        description="Clifford-space canonical dynamics: resolutions, particles, "
                    "strings, and the verification suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_res = sub.add_parser("resolve", help="resolve a Hermitian matrix into a bullet Gram")
    p_res.add_argument("--input", required=True, help="HermitianMatrix JSON file")
    p_res.add_argument("--out", required=True, help="output directory")
    p_res.add_argument("--tol", type=float, default=DEFAULT.gram_residual)

    p_par = sub.add_parser("particle", help="integrate a single-particle configuration")
    p_par.add_argument("--config", required=True, help="particle JSON config")
    p_par.add_argument("--out", required=True)

    p_str = sub.add_parser("string", help="evaluate a wave-state configuration")
    p_str.add_argument("--config", required=True, help="mode spec JSON")
    p_str.add_argument("--out", required=True)
    p_str.add_argument("--residuals", action="store_true",
                       help="also run the finite-difference residual suite")

    p_ver = sub.add_parser("verify-all", help="run every verification criterion")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--json", action="store_true",
                       help="print the JSON report to stdout instead of the rows")
    p_ver.add_argument("--out", help="directory for the JSON report")
    p_ver.add_argument("--timings", action="store_true",
                       help="print each criterion's wall seconds to stderr")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:          # an input whose arrays cannot be allocated
        print(f"error: input too large: {exc}", file=sys.stderr)
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
