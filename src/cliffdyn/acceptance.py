"""The eight verification criteria, runnable from pytest or the CLI.

Each criterion draws its inputs from a seeded generator, evaluates the
relevant identities at the tolerances in :mod:`cliffdyn.tolerances`, and
returns a result record; nothing here loosens a tolerance at run time.

:func:`run_all` runs them in two lanes where ``os.fork`` exists: a forked
child runs picture-equivalence (``FORKED``) while the calling process runs
the other seven in CRITERIA order.  The child's result takes its CRITERIA
slot, so the rows, the JSON payload and the exit code of ``verify-all`` are
those of a serial run.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import signal
from dataclasses import dataclass, field

import numpy as np

from . import clifford, current_algebra, matrixmech, particle, worldsheet
from .errors import InputError, PreconditionError, VerificationError
from .sampling import random_fourvector, random_hermitian, random_timelike, random_unitary
from .spinors import eta_flip, flip_both, spinor_to_vec, vec_to_spinor
from .tolerances import DEFAULT, Tolerances

__all__ = ["CriterionResult", "CRITERIA", "FORKED", "run_criterion", "run_all"]


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = ", ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in self.details.items())
        return f"[{status}] {self.name}: {parts}"


def _criterion(title: str):
    """Make a check returning ``(passed, details)`` a criterion named ``title``.

    A check that raises ArithmeticError (VerificationError included),
    InputError or PreconditionError gives a FAIL row with the message under
    ``error``, so one failing criterion never stops the ``verify-all`` table.
    The criteria make their own inputs, so an InputError here means a
    numerical layer handed the next one a bad value (say, a NaN in U).
    """
    def wrap(check):
        @functools.wraps(check)
        def criterion(seed: int, tols: Tolerances = DEFAULT) -> CriterionResult:
            try:
                passed, details = check(seed, tols)
            except (ArithmeticError, InputError, PreconditionError) as exc:
                passed, details = False, {"error": str(exc), **getattr(exc, "details", {})}
            return CriterionResult(title, passed, details)
        criterion.title = title
        return criterion
    return wrap


@_criterion("proposition suite (200 random Hermitian)")
def proposition_suite(seed: int, tols: Tolerances = DEFAULT) -> tuple[bool, dict]:
    """200 random Hermitian matrices resolve into exact bullet Gram matrices."""
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(200):
        n = int(rng.integers(1, 9))
        n_zero = int(rng.integers(0, n + 1)) if rng.random() < 0.35 else 0
        H = random_hermitian(rng, n, n_zero=n_zero)
        space = clifford.allocate(2 * n, 2 * n)
        res = clifford.resolve_hermitian(H, space)
        residuals.append((res.gram_residual(), res.null_residual()))
    worst_gram, worst_null = (float(w) for w in np.max(residuals, axis=0))
    passed = worst_gram < tols.gram_residual and worst_null < tols.gram_null
    return passed, {"gram_residual": worst_gram, "null_residual": worst_null}


@_criterion("four-vector contraction identity (1000 vectors)")
def contraction_identity(seed: int, tols: Tolerances = DEFAULT) -> tuple[bool, dict]:
    """The two-spinor contraction identity for 1000 random complex four-vectors."""
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(1000):
        v = random_fourvector(rng, complex_valued=True)
        up = vec_to_spinor(v)
        down = flip_both(up)
        full = np.sum(down * up)
        lhs = down @ up.T
        rhs = 0.5 * full * np.eye(2)
        errors.append(np.abs(lhs - rhs).max() / max(1.0, abs(full)))
    worst = float(np.max(errors))
    return worst < tols.c30_identity, {"rel_residual": worst}


@_criterion("bracket reduction (100 constrained states)")
def bracket_reduction(seed: int, tols: Tolerances = DEFAULT) -> tuple[bool, dict]:
    """Generalized bracket equals mu times the Poisson bracket on constrained states."""
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(100):
        mu = rng.uniform(0.2, 1.5)
        x = rng.uniform(-1, 1, size=4)
        p = random_timelike(rng)
        mass = math.sqrt(max(p[0] ** 2 - p[1:] @ p[1:], 0.04))
        st = particle.build_state(x, p, mu, mass)
        terms_n = [(rng.normal(), rng.integers(0, 3, 4), rng.integers(0, 2, 4))
                   for _ in range(3)]
        terms_m = [(rng.normal(), rng.integers(0, 2, 4), rng.integers(0, 3, 4))
                   for _ in range(3)]
        N = particle.polynomial_observable(terms_n)
        M = particle.polynomial_observable(terms_m)
        cb = particle.clifford_bracket(N, M, st)
        pb = particle.poisson_bracket(N, M, st.x_vec(), st.p_vec())
        errors.append(abs(cb - mu * pb) / (1.0 + abs(pb)))
    worst = float(np.max(errors))
    return worst < tols.bracket_reduction, {"scaled_residual": worst}


@_criterion("particle dynamics (10^4 RK4 steps)")
def particle_dynamics(seed: int, tols: Tolerances = DEFAULT) -> tuple[bool, dict]:
    """Free particle: straight line in proper time, shell drift, mu quadrature."""
    rng = np.random.default_rng(seed)
    mass = 1.3
    mu0 = 0.7
    e0 = 0.5
    e = particle.constant_einbein(e0, tau0=0.0)
    tau_s = mu0 / (mass ** 2 * e0)
    x0 = rng.uniform(-1, 1, 4)
    p = random_timelike(rng)
    p = p * (mass / math.sqrt(p[0] ** 2 - p[1:] @ p[1:]))
    st = particle.build_state(x0, p, mu0, mass, tau=tau_s)
    traj = particle.integrate(st, e, tau_s + 2.0, 10_000)
    p_contra = eta_flip(p).real
    pred = x0[None, :] + np.outer(traj.taubar, p_contra / mass)
    straight = float(np.abs(traj.x - pred).max())
    drift = traj.constraint_drift()
    mu_err = float(np.max(np.abs(traj.mu[::500] - particle.mu_of_tau(e, mass, traj.tau[::500]))))
    passed = (straight < tols.straight_line and drift < tols.constraint_drift
              and mu_err < tols.mu_match)
    return passed, {"straight_line": straight, "shell_drift": drift, "mu_quadrature": mu_err}


@_criterion("U(N) covariance")
def un_covariance(seed: int, tols: Tolerances = DEFAULT) -> tuple[bool, dict]:
    """Gauge transformation commutes with the flow; constraint matrix invariant."""
    rng = np.random.default_rng(seed)
    n = 3
    mass = 1.0
    mu = 0.6
    blocks = []
    for i in range(n):
        blocks += [(f"c{i}", 4, 4), (f"d{i}", 4, 4), (f"h{i}", 4, 4)]
    space = clifford.allocate_blocks(blocks)
    states = []
    for i in range(n):
        x = rng.uniform(-1, 1, 4)
        p = random_timelike(rng)
        p = p * (mass / math.sqrt(p[0] ** 2 - p[1:] @ p[1:]))
        c, d, _ = clifford.resolve_pair(
            vec_to_spinor(x), flip_both(vec_to_spinor(eta_flip(p))), mu * np.eye(2),
            space, labels=(f"c{i}", f"d{i}", f"h{i}"))
        states.append(particle.ParticleState(c, d, mass))
    sys0 = matrixmech.assemble(states)
    U = random_unitary(rng, n)
    a = matrixmech.evolve_matrix_classical(matrixmech.gauge_transform(sys0, U), 1.0, 200)
    b = matrixmech.evolve_matrix_classical(sys0, 1.0, 200)
    rotated = np.stack([U @ b.X[-1][m] @ U.conj().T for m in range(4)])
    commute = float(np.abs(a.X[-1] - rotated).max())
    CD = matrixmech.gauge_transform(sys0, U).constraint_matrix()
    target = mu * np.einsum("ab,ij->abij", np.eye(2), np.eye(n))
    invariance = float(np.abs(CD - target).max())
    passed = commute < tols.unitary_covariance and invariance < tols.constraint_invariance
    return passed, {"evolve_gauge_commutator": commute, "constraint_invariance": invariance}


@_criterion("picture equivalence (20-level oscillator)")
def picture_equivalence(seed: int, tols: Tolerances = DEFAULT) -> tuple[bool, dict]:
    """Heisenberg and Schrodinger-gauge expectations agree; -H/hbar freezes X, P."""
    nlev = 20
    mass = 1.0
    hbar = 1.0
    X0, P0 = matrixmech.truncated_oscillator(nlev, hbar=hbar)
    taubar, steps = 0.8, 2000
    heis, frozen = matrixmech.evolve_pictures(X0, P0, hbar, mass, taubar, steps)
    s0 = np.zeros(nlev, dtype=complex)
    # interior support, away from the corner; mixed level parity and a complex
    # amplitude, since H keeps parity and X flips it: on one parity <X> is 0
    s0[1], s0[2], s0[4] = 0.6, 0.64j, 0.48
    s0 /= np.linalg.norm(s0)
    H = (P0 @ P0 - mass ** 2 * np.eye(nlev)) / (2 * mass)
    gauge = -H / hbar
    sT = matrixmech.evolve_state(s0, lambda t: gauge, taubar, steps)
    equiv = abs(complex(s0.conj() @ heis.X[-1] @ s0) - complex(sT.conj() @ X0 @ sT))
    stationary = float(np.max([np.abs(frozen.X[-1] - X0).max(), np.abs(frozen.P[-1] - P0).max()]))
    passed = equiv < tols.picture_equivalence and stationary < tols.stationarity
    return passed, {"expectation_gap": equiv, "stationarity": stationary}


def _acceptance_mode_spec(mass=1.1):
    return worldsheet.make_mode_spec(
        mass=mass, modes=(1, -1, 2, -2),
        k_block=0.3 * np.eye(2),
        a_self={1: np.diag([0.15, 0.18]), -1: np.diag([0.17, 0.14]),
                2: 0.12 * np.eye(2), -2: 0.13 * np.eye(2)},
        a_cross={1: np.array([[0.14, 0.01], [0.02, 0.15]]), 2: 0.115 * np.eye(2)},
        b_self={1: np.diag([0.16, 0.13]), -1: np.diag([0.12, 0.19])},
        b_cross={1: np.array([[0.13, -0.01j], [0.01, 0.12]])})


@_criterion("string suite")
def string_suite(seed: int, tols: Tolerances = DEFAULT) -> tuple[bool, dict]:
    """Wave-solution residuals, convergence order, trace, total momentum, spinning."""
    st = worldsheet.build_wave_state(_acceptance_mode_spec())
    residuals, orders = worldsheet.residual_suite(st, h=tols.h_grid)
    rng = np.random.default_rng(seed)
    pairs = [(rng.uniform(-1, 1), rng.uniform(0, math.pi)) for _ in range(10)]
    T = worldsheet.energy_momentum(st, *np.array(pairs).T)
    trace = float(np.max(np.abs(T[:, 0, 0] - T[:, 1, 1])))
    plain = worldsheet.build_wave_state(
        worldsheet.make_mode_spec(mass=1.1, k_block=0.4 * np.eye(2)))
    _, p_tot = worldsheet.total_momentum(plain, worldsheet.constant_time_curve(0.5))
    pi2 = float(np.abs(p_tot - math.pi ** 2 * flip_both(plain.p_up)).max())
    spin_state = worldsheet.build_wave_state(worldsheet.spinning_mode_spec(0.35, 0.8))
    pairs = [(rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi)) for _ in range(10)]
    x, y, z, tt = np.array([worldsheet.spinning_string(0.35, 0.8, t, s) for t, s in pairs]).T
    v = spinor_to_vec(worldsheet.eval_x(spin_state, *np.array(pairs).T)).real
    spin = float(np.max(np.abs(v - np.stack([tt, x, y, z], axis=-1))))
    lo, hi = 2 - tols.fd_order_window, 2 + tols.fd_order_window
    passed = (all(lo <= o <= hi for o in orders.values())
              and residuals["f51"] < tols.fd_residual
              and residuals["f52"] < tols.fd_residual
              and residuals["f90"] < tols.fd_residual
              and trace < tols.trace_vanish
              and pi2 < tols.total_momentum
              and spin < tols.spinning_match)
    details = {f"{k}_order": v for k, v in orders.items()}
    details.update({f"{k}_residual": v for k, v in residuals.items()})
    details.update({"trace_T": trace, "pi2_p": pi2, "spinning": spin})
    return passed, details


@_criterion("algebra suite")
def algebra_suite(seed: int, tols: Tolerances = DEFAULT) -> tuple[bool, dict]:
    """Current brackets, charge algebra, su(2) split, Poincare oracle, U(1) current."""
    st = worldsheet.build_wave_state(_acceptance_mode_spec())
    sample = current_algebra.sample_currents(st, worldsheet.constant_time_curve(0.4), 128)
    g1_errors = []
    for (A, B) in ((0, 0), (0, 1), (1, 1)):
        for (E, F) in ((0, 0), (0, 1), (1, 1)):
            for k in (0, 33, 77, 128):
                lhs = current_algebra.current_bracket(sample, A, B, E, F, k, k)
                rhs = current_algebra.g1_pattern(sample, A, B, E, F, k, k)
                g1_errors.append(abs(lhs - rhs) / max(1.0, abs(rhs)))
                g1_errors.append(abs(current_algebra.current_bracket_dotted(
                    sample, A, B, E, F, k, k)))
    g1 = float(np.max(g1_errors))
    try:
        charge = current_algebra.charge_algebra(sample)
        _, _, su2_report = current_algebra.nk_decomposition(charge[0],
                                                            tol=tols.algebra_closure)
        poincare = current_algebra.poincare_check(sample, tol=tols.algebra_closure,
                                                  charge=charge)
        unitary = current_algebra.unitary_current_check(sample, tol=tols.unitary_brackets)
    except VerificationError as exc:
        return False, {"g1_residual": g1, "error": str(exc), **exc.details}
    pres, charge_report = charge
    dagger_cross = float(np.abs(pres.f[:3, 3:, :]).max())
    passed = (g1 < tols.g1_identity
              and dagger_cross == 0.0
              and su2_report["max_residual"] < tols.algebra_closure
              and poincare["max_structure_mismatch"] < tols.algebra_closure
              and poincare["pp_residual"] == 0.0
              and unitary["ii_residual"] < tols.unitary_brackets
              and unitary["ij_residual"] < tols.unitary_brackets)
    return passed, {
        "g1_residual": g1,
        "su2_residual": su2_report["max_residual"],
        "poincare_mismatch": poincare["max_structure_mismatch"],
        "pp_residual": poincare["pp_residual"],
        "unitary_brackets": float(np.max([unitary["ii_residual"], unitary["ij_residual"]])),
        "jacobi": charge_report["jacobi_residual"],
        "n_nodes": sample.n_nodes,
    }


CRITERIA = (
    ("proposition", proposition_suite),
    ("c30-identity", contraction_identity),
    ("bracket-reduction", bracket_reduction),
    ("particle-dynamics", particle_dynamics),
    ("un-covariance", un_covariance),
    ("picture-equivalence", picture_equivalence),
    ("string-suite", string_suite),
    ("algebra-suite", algebra_suite),
)

# The criterion run_all hands to a forked child.  Picture-equivalence takes
# about 60 % of a serial run (0.64 s of 1.05 s in-process on a 2-core host)
# and the other seven the rest; no other split of the eight comes nearer to
# two even lanes.  Each process has its own interpreter lock, which threads
# running criteria would share; a fork and its waitpid cost 2-3 ms.
FORKED = "picture-equivalence"

# taken before anything can rebind the criteria: the row title under which a
# child that dies without a result is reported
_FORKED_TITLE = dict(CRITERIA)[FORKED].title


def run_criterion(key: str, seed: int = 0, tols: Tolerances = DEFAULT) -> CriterionResult:
    for name, fn in CRITERIA:
        if name == key:
            return fn(seed, tols)
    raise KeyError(f"unknown criterion {key!r}")


def run_all(seed: int = 0, tols: Tolerances = DEFAULT) -> list[CriterionResult]:
    """Run every criterion; the results come in the canonical CRITERIA order.

    Where ``os.fork`` exists, a forked child runs the ``FORKED`` criterion
    while this process runs the other seven in CRITERIA order; the child's
    result comes back pickled through a pipe and takes its CRITERIA slot.
    The results are those of the serial run, which is the only path where
    ``os.fork`` does not exist.  An exception that the criterion's own
    wrapper does not turn into a FAIL row reaches the caller with its type
    and message; a child that exits without a result gives a FAIL row with
    its exit status under ``error``.
    """
    rngs = np.random.default_rng(seed).spawn(len(CRITERIA))
    seeds = [int(r.integers(0, 2 ** 63 - 1)) for r in rngs]
    if not hasattr(os, "fork"):
        return [fn(s, tols) for (name, fn), s in zip(CRITERIA, seeds)]
    slot = [name for name, _ in CRITERIA].index(FORKED)
    pid, pipe = _fork(CRITERIA[slot][1], seeds[slot], tols)
    try:
        results = [None if i == slot else fn(s, tols)
                   for i, ((_, fn), s) in enumerate(zip(CRITERIA, seeds))]
        data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        pipe.close()
        status = os.waitpid(pid, 0)[1]
    if status != 0 or not data:
        code = os.waitstatus_to_exitcode(status)
        how = f"exit status {code}" if code >= 0 else f"signal {-code}"
        results[slot] = CriterionResult(_FORKED_TITLE, False, {
            "error": f"criterion process ended by {how} without a result"})
        return results
    kind, value = pickle.loads(data)     # bytes the child below wrote
    if kind == "err":
        raise value
    results[slot] = value
    return results


def _fork(fn, seed: int, tols: Tolerances):
    """Fork a child that runs ``fn(seed, tols)``; return its pid and the read end of its pipe.

    The child pickles ``("ok", result)`` or ``("err", exception)`` into the
    pipe and leaves through ``os._exit``: it never returns into the caller's
    stack and never flushes the stdio buffers it shares with the parent.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                outcome = ("ok", fn(seed, tols))
            except Exception as exc:
                outcome = ("err", exc)
            with open(write_fd, "wb") as pipe:
                pickle.dump(outcome, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")
