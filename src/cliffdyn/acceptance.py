"""The eight verification criteria, runnable from pytest or the CLI.

Each check yields :class:`Gate` rows, a payload field each with its bound, and
:func:`_criterion` alone turns them into a result; every threshold is a field
of :mod:`cliffdyn.tolerances`.  Picture-equivalence and algebra-suite do not
read their seed yet, so their rows are the same on every seed (ROADMAP item 4).

:func:`run_all` runs them in two lanes of about equal CPU time where
``os.fork`` exists: one forked child runs the ``FORKED`` criteria
(bracket-reduction, picture-equivalence, string-suite and algebra-suite)
while the calling process runs the other four, each lane in CRITERIA order.
Seed 11, in-process CPU on a 2-vCPU host, medians of 5 in four rounds: the
child's lane 164-183 ms, the calling process's 158-168 ms.  Each result takes its
CRITERIA slot, so the rows, the JSON payload and the exit code of
``verify-all`` are those of a serial run.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import signal
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import clifford, current_algebra, matrixmech, particle, worldsheet
from .errors import InputError, PreconditionError
from .sampling import random_fourvector, random_hermitian, random_timelike, random_unitary
from .spinors import eta_flip, flip_both, spinor_to_vec, vec_to_spinor
from .tolerances import DEFAULT, Tolerances

__all__ = ["CriterionResult", "CRITERIA", "FORKED", "Gate", "Window", "run_all"]


class Window(NamedTuple):
    """``centre`` plus or minus the Tolerances field ``half_width``, ends included."""

    centre: float
    half_width: str


class Gate(NamedTuple):
    """A payload field, its value and its bound: a Tolerances field name
    (``value < tols.<name>``), 0.0 (``value == 0.0``), a :class:`Window`, or
    None for a record that is reported, not gated.  NaN and None fail every bound."""

    field: str
    value: object
    bound: str | float | Window | None = None

    def holds(self, tols: Tolerances) -> bool:
        if isinstance(self.bound, Window):
            half = getattr(tols, self.bound.half_width)
            return (self.value is not None
                    and self.bound.centre - half <= self.value <= self.bound.centre + half)
        if isinstance(self.bound, str):
            return self.value is not None and self.value < getattr(tols, self.bound)
        return self.bound is None or self.value == self.bound


@dataclass
class CriterionResult:
    """One criterion's row, made from the Gate ``rows`` its check yielded.
    ``seconds`` is its wall time in the process that ran it, kept out of the
    payload; None for a forked child that died without a result."""

    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    seconds: float | None = field(default=None, compare=False)
    rows: list[Gate] = field(default_factory=list, compare=False, repr=False)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = ", ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in self.details.items())
        return f"[{status}] {self.name}: {parts}"


def _criterion(title: str):
    """Make a check that yields :class:`Gate` rows a criterion named ``title``.

    It passes when every row holds; ``details`` are the rows' fields in order.
    A check that raises ArithmeticError (VerificationError included),
    InputError or PreconditionError gives a FAIL row of the rows yielded so
    far plus ``error`` and the exception's ``details``, so one failing
    criterion never stops the table.  The criteria make their own inputs, so
    an InputError means a numerical layer handed the next a bad value.
    """
    def wrap(check):
        @functools.wraps(check)
        def criterion(seed: int, tols: Tolerances = DEFAULT) -> CriterionResult:
            start = time.perf_counter()
            rows, error = [], {}
            try:
                for row in check(seed, tols):
                    rows.append(row)
            except (ArithmeticError, InputError, PreconditionError) as exc:
                error = {"error": str(exc), **getattr(exc, "details", {})}
            passed = not error and all(row.holds(tols) for row in rows)
            details = {row.field: row.value for row in rows} | error
            return CriterionResult(title, passed, details, time.perf_counter() - start, rows)
        criterion.title = title
        return criterion
    return wrap


@_criterion("proposition suite (200 random Hermitian)")
def proposition_suite(seed: int, tols: Tolerances = DEFAULT) -> Iterator[Gate]:
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
    yield Gate("gram_residual", worst_gram, "gram_residual")
    yield Gate("null_residual", worst_null, "gram_null")


@_criterion("four-vector contraction identity (1000 vectors)")
def contraction_identity(seed: int, tols: Tolerances = DEFAULT) -> Iterator[Gate]:
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
    yield Gate("rel_residual", float(np.max(errors)), "c30_identity")


@_criterion("bracket reduction (100 constrained states)")
def bracket_reduction(seed: int, tols: Tolerances = DEFAULT) -> Iterator[Gate]:
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
    yield Gate("scaled_residual", float(np.max(errors)), "bracket_reduction")


@_criterion("particle dynamics (10^4 RK4 steps)")
def particle_dynamics(seed: int, tols: Tolerances = DEFAULT) -> Iterator[Gate]:
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
    yield Gate("straight_line", float(np.abs(traj.x - pred).max()), "straight_line")
    yield Gate("shell_drift", traj.constraint_drift(), "constraint_drift")
    mu_err = np.abs(traj.mu[::500] - particle.mu_of_tau(e, mass, traj.tau[::500]))
    yield Gate("mu_quadrature", float(np.max(mu_err)), "mu_match")


@_criterion("U(N) covariance")
def un_covariance(seed: int, tols: Tolerances = DEFAULT) -> Iterator[Gate]:
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
        C, D, _ = clifford.resolve_pair(
            vec_to_spinor(x), flip_both(vec_to_spinor(eta_flip(p))), mu * np.eye(2),
            space, labels=(f"c{i}", f"d{i}", f"h{i}"))
        states.append(particle.ParticleState(np.concatenate((C, D)), space, mass))
    sys0 = matrixmech.assemble(states)
    U = random_unitary(rng, n)
    Xa, _ = matrixmech.evolve_matrix_classical(matrixmech.gauge_transform(sys0, U), 1.0, 200)
    Xb, _ = matrixmech.evolve_matrix_classical(sys0, 1.0, 200)
    rotated = np.stack([U @ Xb[m] @ U.conj().T for m in range(4)])
    yield Gate("evolve_gauge_commutator", float(np.abs(Xa - rotated).max()),
               "unitary_covariance")
    CD = matrixmech.gauge_transform(sys0, U).constraint_matrix()
    target = mu * np.einsum("ab,ij->abij", np.eye(2), np.eye(n))
    yield Gate("constraint_invariance", float(np.abs(CD - target).max()), "constraint_invariance")


@_criterion("picture equivalence (20-level oscillator)")
def picture_equivalence(seed: int, tols: Tolerances = DEFAULT) -> Iterator[Gate]:
    """Heisenberg and Schrodinger-gauge expectations agree; -H/hbar freezes X, P."""
    nlev, mass, hbar = 20, 1.0, 1.0
    X0, P0 = matrixmech.truncated_oscillator(nlev, hbar=hbar)
    taubar, steps = 0.8, 2000
    (Xh, _), (Xf, Pf) = matrixmech.evolve_pictures(X0, P0, hbar, mass, taubar, steps)
    s0 = np.zeros(nlev, dtype=complex)
    # interior support, away from the corner; mixed level parity and a complex
    # amplitude, since H keeps parity and X flips it: on one parity <X> is 0
    s0[1], s0[2], s0[4] = 0.6, 0.64j, 0.48
    s0 /= np.linalg.norm(s0)
    gauge = -matrixmech._free_hamiltonian(mass, nlev)(P0) / hbar
    sT = matrixmech.evolve_state(s0, lambda t: gauge, taubar, steps)
    equiv = abs(complex(s0.conj() @ Xh @ s0) - complex(sT.conj() @ X0 @ sT))
    yield Gate("expectation_gap", equiv, "picture_equivalence")
    stationary = np.max([np.abs(Xf - X0).max(), np.abs(Pf - P0).max()])
    yield Gate("stationarity", float(stationary), "stationarity")


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
def string_suite(seed: int, tols: Tolerances = DEFAULT) -> Iterator[Gate]:
    """Wave-solution residuals, convergence order, trace, total momentum, spinning."""
    st = worldsheet.build_wave_state(_acceptance_mode_spec())
    residuals, orders = worldsheet.residual_suite(st, h=tols.h_grid)
    yield from (Gate(f"{k}_order", v, Window(2, "fd_order_window")) for k, v in orders.items())
    yield from (Gate(f"{k}_residual", v, "fd_residual") for k, v in residuals.items())
    rng = np.random.default_rng(seed)
    pairs = [(rng.uniform(-1, 1), rng.uniform(0, math.pi)) for _ in range(10)]
    T = worldsheet.energy_momentum(st, *np.array(pairs).T)
    yield Gate("trace_T", float(np.max(np.abs(T[:, 0, 0] - T[:, 1, 1]))), "trace_vanish")
    plain = worldsheet.build_wave_state(
        worldsheet.make_mode_spec(mass=1.1, k_block=0.4 * np.eye(2)))
    _, p_tot = worldsheet.total_momentum(plain, worldsheet.constant_time_curve(0.5))
    yield Gate("pi2_p", float(np.abs(p_tot - math.pi ** 2 * flip_both(plain.p_up)).max()),
               "total_momentum")
    spin_state = worldsheet.build_wave_state(worldsheet.spinning_mode_spec(0.35, 0.8))
    pairs = [(rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi)) for _ in range(10)]
    x, y, z, tt = np.array([worldsheet.spinning_string(0.35, 0.8, t, s) for t, s in pairs]).T
    v = spinor_to_vec(worldsheet.eval_x(spin_state, *np.array(pairs).T)).real
    spin = float(np.max(np.abs(v - np.stack([tt, x, y, z], axis=-1))))
    yield Gate("spinning", spin, "spinning_match")


@_criterion("algebra suite")
def algebra_suite(seed: int, tols: Tolerances = DEFAULT) -> Iterator[Gate]:
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
    yield Gate("g1_residual", float(np.max(g1_errors)), "g1_identity")
    pres, charge_report = current_algebra.charge_algebra(sample, rel_tol=tols.charge_closure)
    yield Gate("dagger_cross", float(np.abs(pres.f[:3, 3:, :]).max()), 0.0)
    su2_report = current_algebra.nk_decomposition(pres, tol=tols.algebra_closure)[2]
    yield Gate("su2_residual", su2_report["max_residual"], "algebra_closure")
    poincare = current_algebra.poincare_check(sample, tol=tols.algebra_closure,
                                              pattern_tol=tols.momentum_charge)
    yield Gate("poincare_mismatch", poincare["max_structure_mismatch"], "algebra_closure")
    yield Gate("pp_residual", poincare["pp_residual"], 0.0)
    unitary = current_algebra.unitary_current_check(sample, tol=tols.unitary_brackets)
    worst_unitary = float(np.max([unitary["ii_residual"], unitary["ij_residual"]]))
    yield Gate("unitary_brackets", worst_unitary, "unitary_brackets")
    yield Gate("jacobi", charge_report["jacobi_residual"])     # gated in charge_algebra
    yield Gate("n_nodes", sample.n_nodes)


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

# The criteria run_all hands to its forked child, run there in CRITERIA order,
# chosen so that the two lanes take about equal CPU time.  Seed 11, in-process
# CPU medians of 5 in four rounds on a 2-vCPU host: bracket-reduction 64-73 ms,
# picture-equivalence 90-103 (289-324 before its flows were stepped in H's
# eigenbasis), string-suite 4-5 and algebra-suite 3-4, 164-183 in all;
# proposition 39-41, c30-identity 25-27, particle-dynamics 80-86 and
# un-covariance 14-15 stay in the calling process, 158-168 in all.  A criterion moved into
# the child runs there without the warm caches of the calling process; each
# process has its own interpreter lock, and a fork and its waitpid cost 2-3 ms.
FORKED = ("bracket-reduction", "picture-equivalence", "string-suite", "algebra-suite")

# taken before anything can rebind the criteria: the row titles under which a
# child that dies without a result is reported
_TITLES = [fn.title for _, fn in CRITERIA]


def run_all(seed: int = 0, tols: Tolerances = DEFAULT) -> list[CriterionResult]:
    """Run every criterion; the results come in the canonical CRITERIA order.

    Where ``os.fork`` exists, a forked child runs the ``FORKED`` criteria
    while this process runs the others, each lane in CRITERIA order; the
    child's list of results comes back pickled through a pipe and each takes
    its CRITERIA slot.  The results are those of the serial run, which is the
    only path where ``os.fork`` does not exist.  An exception that a
    criterion's own wrapper does not turn into a FAIL row reaches the caller
    with its type and message; a child that exits without a result gives a
    FAIL row with its exit status under ``error`` in every forked slot.
    """
    rngs = np.random.default_rng(seed).spawn(len(CRITERIA))
    seeds = [int(r.integers(0, 2 ** 63 - 1)) for r in rngs]
    if not hasattr(os, "fork"):
        return [fn(s, tols) for (name, fn), s in zip(CRITERIA, seeds)]
    forked = [i for i, (name, _) in enumerate(CRITERIA) if name in FORKED]
    pid, pipe = _fork(lambda: [CRITERIA[i][1](seeds[i], tols) for i in forked])
    try:
        results = [None if i in forked else fn(s, tols)
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
        value = [CriterionResult(_TITLES[i], False, {
            "error": f"criterion process ended by {how} without a result"}) for i in forked]
    else:
        kind, value = pickle.loads(data)     # bytes the child below wrote
        if kind == "err":
            raise value
    for i, result in zip(forked, value):
        results[i] = result
    return results


def _fork(run):
    """Fork a child that calls ``run()``; return its pid and the read end of its pipe.

    The child pickles ``("ok", run())`` or ``("err", exception)`` into the
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
                outcome = ("ok", run())
            except Exception as exc:
                outcome = ("err", exc)
            with open(write_fd, "wb") as pipe:
                pickle.dump(outcome, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")
