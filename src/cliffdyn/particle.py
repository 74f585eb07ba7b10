"""Single relativistic particle as a canonical system in Clifford space.

The state is a pair of spinor doublets (c^A, d*_A) whose mutual bullet
products carry the space-time data:

    x^{AB} = bullet(c^A, conj(c^B)),   p_{AB} = bullet(d*_A, conj(d*_B)).

Dynamics integrates the first-order flow obtained by independent variation
of c and d*,

    dc^A/dtau   = (dH/dp_{AE}) conj(d*_E),
    dd*_A/dtau  = -(dH/dx^{AE}) conj(c^E),

with H = e(tau) (p.p - m^2).  The einbein keeps the mass shell enforced; the
proper-time parametrization ebar = 1/(2 m mu) is reached by integrating
dtaubar/dtau = 2 m mu(tau) e(tau) alongside the flow, where mu is half the
real trace of the mixed Gram bullet(c^A, d*_B).

Matrix-valued gradients with respect to the spinor blocks come from the
probed dictionaries in :mod:`cliffdyn.spinors`, so no sigma-contraction
factor is ever written by hand.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .clifford import GeneratorSpace, bullet_gram, resolve_pair
from .config import positive_mass
from .errors import InputError, PreconditionError
from .spinors import (
    DP_DOWN,
    DX_UP,
    ETA,
    covec_to_spinor_down,
    eps_flip_pair,
    minkowski_dot,
    spinor_down_to_covec,
    spinor_to_vec,
    vec_to_spinor,
)
from .worldsheet import simpson_weights

__all__ = [
    "EinbeinFn",
    "constant_einbein",
    "linear_einbein",
    "Polynomial",
    "polynomial_observable",
    "ParticleState",
    "build_state",
    "lagrangian_c2",
    "polyakov_lagrangian",
    "conjugate_momentum_norm",
    "hamiltonian_c5",
    "canonical_rhs",
    "rk4",
    "step_count",
    "integrate",
    "Trajectory",
    "pair_charges",
    "noether_charges",
    "mu_of_tau",
    "clifford_bracket",
    "poisson_bracket",
]


@dataclass(frozen=True)
class EinbeinFn:
    """Positive worldline density e(tau) with the turning point tau0.

    ``fn`` maps a float or an array of tau values to e elementwise.
    mu(tau) = integral_{tau0}^{tau} m^2 e(t) dt vanishes at tau0; proper time
    is undefined there.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    tau0: float = 0.0

    def values(self, taus: np.ndarray) -> np.ndarray:
        """e at every entry of ``taus``; names the first non-positive value in C order."""
        values = np.broadcast_to(np.asarray(self.fn(taus), dtype=float), taus.shape)
        bad = ~(values > 0.0)
        if bad.any():
            k = np.unravel_index(np.argmax(bad), bad.shape)
            raise PreconditionError(
                f"einbein must stay positive, got e({float(taus[k])}) = {float(values[k])}")
        return values


def constant_einbein(e0: float, tau0: float = 0.0) -> EinbeinFn:
    return EinbeinFn(lambda tau: e0, tau0)


def linear_einbein(a: float, b: float, tau0: float = 0.0) -> EinbeinFn:
    return EinbeinFn(lambda tau: a + b * tau, tau0)


@dataclass(frozen=True, eq=False)
class Polynomial:
    """N(x, p) = sum_t coef[t] prod_mu (x^mu)^ax[t, mu] p_mu^bp[t, mu], compared by identity.

    ``coef`` is (..., terms), the integer exponents ``ax`` and ``bp`` (..., terms, 4), with
    a leading stack axis for one polynomial per state; ``grad_x`` and ``grad_p`` are the
    exact dN/dx^mu and dN/dp_mu at the (..., 4) points x and p, the Poisson bracket's
    pairing.
    """

    coef: np.ndarray
    ax: np.ndarray
    bp: np.ndarray

    def grad_x(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        return self._grad(self.ax, x, np.prod(p[..., None, :] ** self.bp, axis=-1))

    def grad_p(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        return self._grad(self.bp, p, np.prod(x[..., None, :] ** self.ax, axis=-1))

    def _grad(self, exps: np.ndarray, base: np.ndarray, other: np.ndarray) -> np.ndarray:
        """d/d base_mu of sum_t coef[t] other[t] prod_nu base_nu^exps[t, nu], in term order.

        A zero exponent's entry is masked to exactly 0, not 0 * inf = NaN where a factor
        overflows; its 0^-1 and 0 * inf stay silent.  Like the tests' term loop, bit for bit,
        this takes C pow per entry (``float_power``) and ``other`` an array ``**``."""
        lowered = exps[..., None, :] - np.eye(4, dtype=int)       # (..., terms, mu, nu)
        with np.errstate(divide="ignore", invalid="ignore"):
            rest = np.prod(np.float_power(base[..., None, None, :], lowered), axis=-1)
            terms = self.coef[..., None] * exps * rest * other[..., None]
        return np.sum(np.where(exps != 0, terms, 0.0), axis=-2)


def polynomial_observable(terms: Sequence[tuple[float, Sequence[int], Sequence[int]]]
                          ) -> Polynomial:
    """The Polynomial of the terms (c, a, b): c prod_mu (x^mu)^a_mu p_mu^b_mu.

    For one polynomial per state of a stack, each term's c has the stack's
    shape and its a and b the shape (..., 4).
    """
    coef, ax, bp = zip(*terms)
    return Polynomial(np.moveaxis(np.array(coef, dtype=float), 0, -1),
                      np.moveaxis(np.array(ax, dtype=int), 0, -2),
                      np.moveaxis(np.array(bp, dtype=int), 0, -2))


class ParticleState:
    """Canonical pair (c^A, d*_A) plus mass and parameter value.

    ``Y`` is the (4, G) coefficient stack over ``space`` with rows c^0, c^1,
    d*_0, d*_1; ``packed()`` returns it read-only.  A stack of states is a
    (..., 4, G) ``Y`` with a mass array of shape (...) and one tau; the derived
    data then carry the same leading axes.
    """

    __slots__ = ("_Y", "mass", "tau", "space")

    def __init__(self, Y: np.ndarray, space: GeneratorSpace, mass: float, tau: float = 0.0):
        mass = positive_mass(mass)
        self._Y = np.asarray(Y, dtype=complex).view()
        if self._Y.shape[-2:] != (4, space.size) or self._Y.shape[:-2] != np.shape(mass):
            raise InputError(f"state stack must be (4, {space.size}), or (..., 4, {space.size}) "
                             f"with one mass per state, got {self._Y.shape} and mass shape "
                             f"{np.shape(mass)}")
        self._Y.setflags(write=False)
        self.mass, self.tau, self.space = mass, float(tau), space

    def packed(self) -> np.ndarray:
        return self._Y

    # -- derived space-time data ------------------------------------------
    def x_spinor(self) -> np.ndarray:
        C = self._Y[..., :2, :]
        return bullet_gram(C, C.conj(), self.space.signs)

    def p_spinor(self) -> np.ndarray:
        D = self._Y[..., 2:, :]
        return bullet_gram(D, D.conj(), self.space.signs)

    def cd_gram(self) -> np.ndarray:
        return bullet_gram(self._Y[..., :2, :], self._Y[..., 2:, :], self.space.signs)

    def x_vec(self) -> np.ndarray:
        return spinor_to_vec(self.x_spinor()).real

    def p_vec(self) -> np.ndarray:
        """Covariant momentum components p_mu."""
        return spinor_down_to_covec(self.p_spinor()).real

    def mu_charge(self) -> float:
        return 0.5 * np.trace(self.cd_gram(), axis1=-2, axis2=-1).real

    def mass_shell(self) -> float:
        """p.p - m^2, zero on shell."""
        p = self.p_vec()
        return minkowski_dot(p, p).real - self.mass ** 2


def build_state(x: np.ndarray, p: np.ndarray, M, mass: float,
                tau: float = 0.0) -> ParticleState:
    """State with prescribed four-vectors x, p and mixed Gram M, or a stack of them.

    x and p are (..., 4).  ``M`` may be mu (meaning mu times the identity):
    a scalar, or an array of the stack's shape; or a full 2x2 complex matrix
    per state.  ``mass`` is one mass per state.
    """
    x_up = vec_to_spinor(np.asarray(x, dtype=float))
    p_down = covec_to_spinor_down(np.asarray(p, dtype=float))
    M = np.asarray(M, dtype=complex)
    if M.ndim <= x_up.ndim - 2:
        M = M[..., None, None] * np.eye(2)
    C, D, space = resolve_pair(x_up, p_down, M)
    return ParticleState(np.concatenate((C, D), axis=-2), space, mass, tau)


# -- actions and Hamiltonian ------------------------------------------------

def _velocity_contraction(cdot: np.ndarray, signs: np.ndarray) -> float:
    """(1/2) (dc^A . dc*^B)(dc_A . dc*_B): the quartic invariant of the velocity.

    Equals W.W for the four-vector W behind the matrix bullet(dc, conj(dc))
    of the (2, G) velocity stack ``cdot``.
    """
    w = spinor_to_vec(bullet_gram(cdot, cdot.conj(), signs))
    return float(minkowski_dot(w, w).real)


def lagrangian_c2(cdot: np.ndarray, signs: np.ndarray, mass: float) -> float:
    """Reparametrization-invariant integrand 4 sqrt(m) Q^{1/4}.

    Q is the quartic velocity invariant; Q < 0 signals non-timelike motion
    and raises.
    """
    Q = _velocity_contraction(cdot, signs)
    if Q < 0:
        raise PreconditionError(f"quartic radicand is negative ({Q:.3e}): non-timelike velocity")
    return 4.0 * math.sqrt(mass) * Q ** 0.25


def polyakov_lagrangian(cdot: np.ndarray, signs: np.ndarray, e: float, mass: float) -> float:
    """Einbein form whose e-elimination reproduces :func:`lagrangian_c2`."""
    Q = _velocity_contraction(cdot, signs)
    if Q < 0:
        raise PreconditionError(f"cubic radicand is negative ({Q:.3e})")
    return 3.0 * e ** (-1.0 / 3.0) * Q ** (1.0 / 3.0) + mass ** 2 * e


def conjugate_momentum_norm(cdot: np.ndarray, signs: np.ndarray, e: float) -> float:
    """p.p implied by the einbein-form momenta: e^{-4/3} Q^{1/3}."""
    Q = _velocity_contraction(cdot, signs)
    return e ** (-4.0 / 3.0) * Q ** (1.0 / 3.0)


def hamiltonian_c5(state: ParticleState, e: float) -> float:
    """H = e (p.p - m^2); vanishes on shell for any einbein value."""
    return e * state.mass_shell()


def step_count(steps, name: str = "steps") -> int:
    """``steps`` as an int if it is a positive integer, else an InputError naming ``name``.

    Every fixed-step integrator checks its step count here, and
    :func:`~cliffdyn.matrixmech.truncated_oscillator` its level count.  A
    Python or numpy integer passes ``operator.index``; a float such as 2.5
    does not, and a bool is refused by name.
    """
    try:
        n = operator.index(steps)
    except TypeError:
        n = None
    if n is None or n < 1 or isinstance(steps, bool):
        raise InputError(f"{name} must be a positive integer, got {steps!r}")
    return n


def rk4(f: Callable, y, t0: float, h: float, steps: int):
    """Classic fixed-step RK4 for dy/dt = f(t, y, out), where f writes dy/dt into out.

    Stage states and slopes are buffers allocated once, so f must not keep its
    y; sums keep the operation order of y + (h/6)(k1 + 2 k2 + 2 k3 + k4).  Yields
    one complex copy of y, updated in place by each step: keep a row by copying it.
    """
    y = np.array(y, dtype=complex)
    slopes, stage = np.empty((4, *y.shape), dtype=y.dtype), np.empty_like(y)
    k1, k2, k3, k4 = slopes
    middle, half, sixth = slopes[1:3], 0.5 * h, h / 6.0
    for k in range(steps):
        t = t0 + k * h
        f(t, y, k1)
        f(t + half, np.add(y, np.multiply(half, k1, out=stage), out=stage), k2)
        f(t + half, np.add(y, np.multiply(half, k2, out=stage), out=stage), k3)
        f(t + h, np.add(y, np.multiply(h, k3, out=stage), out=stage), k4)
        np.multiply(2, middle, out=middle)                  # 2 k2 and 2 k3 in one call
        # ((k1 + 2 k2) + 2 k3) + k4 into the free stage buffer: an out that
        # overlapped the slopes would make numpy copy them first
        np.add.reduce(slopes, axis=0, out=stage)
        y += np.multiply(sixth, stage, out=stage)
        yield y


def _c_rate(D: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """The (2, G) stack K of the free flow's c-row derivative dc/dtau = e(tau) K.

    dd*/dtau vanishes (dH/dx = 0 for the free constraint Hamiltonian), so the
    d* rows, and the momentum gradient built from them, never change: K is
    dH/dp_mu at e = 1 contracted into conj(d*).
    """
    P = bullet_gram(D, D.conj(), signs)       # p_{AB} = bullet(d*_A, conj(d*_B))
    grad_p = 2.0 * (ETA @ spinor_down_to_covec(P))    # dH/dp_mu / e for H = e (p.p - m^2)
    return np.einsum("m,mab->ab", grad_p, DP_DOWN) @ D.conj()


def canonical_rhs(state: ParticleState, e: float) -> tuple[np.ndarray, np.ndarray]:
    """(dc/dtau, dd*/dtau) as (2, G) stacks for the constraint Hamiltonian H = e (p.p - m^2)."""
    dc = float(e) * _c_rate(state.packed()[2:], state.space.signs)
    return dc, np.zeros_like(dc)


@dataclass
class Trajectory:
    """Derived columns of a run, one row per RK4 step."""

    mass: float
    tau: np.ndarray
    taubar: np.ndarray
    x: np.ndarray            # (n_samples, 4) real
    p: np.ndarray            # (n_samples, 4) real covariant
    J: np.ndarray            # (n_samples, 2, 2) complex Noether charge
    j: np.ndarray            # (n_samples,) real U(1) charge
    mu: np.ndarray           # (n_samples,) real

    def constraint_drift(self) -> float:
        """Largest change of p.p - m^2 along the run, read from the p column."""
        shell = minkowski_dot(self.p, self.p) - self.mass ** 2
        return float(np.abs(shell - shell[0]).max())

    def charge_drift(self) -> float:
        dJ = np.abs(self.J - self.J[0]).max()
        dj = np.abs(self.j - self.j[0]).max()
        return float(np.max([dJ, dj]))

    def to_csv(self) -> str:
        """One row per sample, every value printed with %.17g."""
        J = self.J[:, [0, 0, 1], [0, 1, 1]]               # J11, J12, J22
        table = np.column_stack((self.tau, self.taubar, self.x, self.p,
                                 np.stack((J.real, J.imag), axis=-1).reshape(-1, 6),
                                 self.j, self.mu))
        row = ",".join(["%.17g"] * table.shape[1])
        return "\n".join(["tau,taubar,x0,x1,x2,x3,p0,p1,p2,p3,J11_re,J11_im,J12_re,J12_im,"
                          "J22_re,J22_im,j,mu", *[row] * len(table), ""]) \
            % tuple(table.ravel().tolist())


def integrate(state0: ParticleState, e: EinbeinFn, tau_end: float,
              steps: int) -> Trajectory:
    """Classic fixed-step RK4 on the free flow, tracking taubar, in closed form.

    The c-row derivative e(tau) K does not read the state (see
    :func:`_c_rate`), so RK4's k2 and k3 coincide and step k adds w_k K to the
    c rows, w_k = (h/6)(e1 + 2 e2 + 2 e2 + e4) from the einbein at the step's
    three stage times: after k steps the c rows are c0 + W_k K, with W_k the
    running sum of the w's in step order.  taubar takes RK4's four stages of
    dtaubar/dtau = 2 m mu e as scalars, since mu is affine in the c rows:
    mu(c0 + a K) = mu0 + a mu_K.  The columns are polynomials in W, built from
    the 2x2 bullet Grams of c0, K and d*: x is quadratic, J, j and mu are
    affine and p is constant.

    They are written a block of ``_COLUMN_BLOCK`` steps at a time, the
    einbein evaluated at all of a block's stage times in one call, so memory
    grows with the columns alone; a step count whose columns cannot be
    allocated is an InputError.  A block with a non-finite row raises
    ArithmeticError naming the first step that produced one.
    """
    steps = step_count(steps)
    signs, mass, tau0 = state0.space.signs, state0.mass, state0.tau
    n = steps + 1
    try:
        tau = tau0 + np.arange(n) * ((tau_end - tau0) / steps)
        taubar, jq, mu = np.empty(n), np.empty(n), np.empty(n)
        x, p, J = np.empty((n, 4)), np.empty((n, 4)), np.empty((n, 2, 2), dtype=complex)
    except (MemoryError, ValueError) as exc:    # ValueError: a size beyond numpy's index range
        raise InputError(f"steps = {steps} is too large: its {n} trajectory rows "
                         f"cannot be allocated") from exc
    tau[0] = tau0
    h = (tau_end - tau0) / steps
    Y0 = state0.packed()
    D = Y0[2:]
    CK = np.stack((Y0[:2], _c_rate(D, signs)))                      # c0 and K
    grams = bullet_gram(CK[:, None], CK[None].conj(), signs)        # bullet(c0|K, conj(c0|K))
    x_coef = spinor_to_vec(np.stack((grams[0, 0], grams[0, 1] + grams[1, 0], grams[1, 1]))).real
    J_coef, trace_cd = pair_charges(CK, D, signs)
    j_coef = (1j * (trace_cd - np.conj(trace_cd))).real
    mu0, mu_K = 0.5 * trace_cd.real
    p[:] = state0.p_vec()
    W = np.empty(_COLUMN_BLOCK + 1)           # a block's W, from the previous block's last
    W[0] = taubar[0] = 0.0
    for lo in range(0, steps, _COLUMN_BLOCK):
        k = min(_COLUMN_BLOCK, steps - lo)
        rows, w = slice(lo, lo + k + 1), W[:k + 1]
        with np.errstate(over="ignore", invalid="ignore"):    # named below
            t = tau0 + np.arange(lo, lo + k) * h
            e1, e2, e4 = e.values(np.stack((t, t + 0.5 * h, t + h), axis=1)).T
            w[1:] = (h / 6.0) * (e1 + 2 * e2 + 2 * e2 + e4)
            np.add.accumulate(w, out=w)
            a = w[:-1] + np.stack((np.zeros(k), 0.5 * h * e1, 0.5 * h * e2, h * e2))
            r1, r2, r3, r4 = 2.0 * mass * (mu0 + a * mu_K) * np.stack((e1, e2, e2, e4))
            tb = taubar[rows]
            tb[1:] = (h / 6.0) * (r1 + 2 * r2 + 2 * r3 + r4)
            np.add.accumulate(tb, out=tb)
            x[rows] = x_coef[0] + w[:, None] * (x_coef[1] + w[:, None] * x_coef[2])
            J[rows] = J_coef[0] + w[:, None, None] * J_coef[1]
            jq[rows] = j_coef[0] + w * j_coef[1]
            mu[rows] = mu0 + w * mu_K
        finite = (np.isfinite(tb) & np.isfinite(x[rows]).all(axis=1)
                  & np.isfinite(J[rows]).all(axis=(1, 2)) & np.isfinite(jq[rows])
                  & np.isfinite(mu[rows]))[1:]
        if not finite.all():
            raise ArithmeticError(
                f"integration produced non-finite values at step {lo + int(np.argmin(finite))}")
        w[0] = w[k]
    return Trajectory(mass, tau, taubar, x, p, J, jq, mu)


# Steps per block of columns; bounds the block's einbein, weight and stage
# temporaries, about 0.3 KB a step.  Measured with tracemalloc at G = 24: a
# run of 256 steps or more peaks 79 KB beyond its columns with a constant
# einbein and 85 KB with a linear one.
_COLUMN_BLOCK = 256


def pair_charges(C: np.ndarray, D: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, ...]:
    """J_(AB) = bullet(c_A, d*_B) + (A <-> B), shape (..., 2, 2), and tr bullet(c^A, d*_B)
    of the (..., 2, G) stacks of c and d*; c_A = c^B eps_{BA} by :func:`eps_flip_pair`."""
    c_low = np.stack(eps_flip_pair(np.moveaxis(C, -2, 0)), axis=-2)
    D_t = np.swapaxes(D, -1, -2)
    jm = (c_low * signs) @ D_t
    return jm + np.swapaxes(jm, -1, -2), np.trace((C * signs) @ D_t, axis1=-2, axis2=-1)


def noether_charges(state: ParticleState) -> tuple[np.ndarray, float]:
    """Global symmetry charges: J_AB = d*_A . c_B + d*_B . c_A and the U(1) charge.

    Both vanish identically on Noether-constrained states (mixed Gram equal
    to a real multiple of the identity).
    """
    Y = state.packed()
    J, trace_cd = pair_charges(Y[:2], Y[2:], state.space.signs)
    return J, float((1j * (trace_cd - np.conj(trace_cd))).real)


# Node counts of mu_of_tau's Simpson grids: 3, 5, 9, ..., 2^12 + 1.
_MU_NODES = 2 ** np.arange(1, 13) + 1


def mu_of_tau(e: EinbeinFn, mass: float, tau: float | np.ndarray) -> float | np.ndarray:
    """mu(tau) = integral_{tau0}^{tau} m^2 e(t) dt at a float or an array of tau.

    Composite Simpson (:func:`~cliffdyn.worldsheet.simpson_weights`) on 3, 5,
    9, ... equally spaced nodes per tau, with e evaluated once per round on
    the whole (tau, nodes) grid.  A tau is done at the first round whose sum
    S_2n agrees with the previous S_n to 15e-12 max(1, |S_2n|); it gets
    S_2n + (S_2n - S_n) / 15.  A tau still open at 2^12 + 1 nodes raises
    ArithmeticError: global refinement converges only at O(h) across a step
    or a kink in e.  Returns a float for a float tau, else an array.
    """
    taus = np.asarray(tau, dtype=float)
    flat = taus.ravel()
    if not (math.isfinite(mass) and math.isfinite(e.tau0) and np.isfinite(flat).all()):
        raise InputError(f"mass and integration limits must be finite, got mass {mass}, "
                         f"tau0 {e.tau0}, tau {tau}")
    early = flat < e.tau0
    if early.any():
        raise PreconditionError(
            f"tau = {flat[np.argmax(early)]} lies before the turning point {e.tau0}")
    width = flat - e.tau0
    out = np.empty_like(flat)
    rows = np.arange(flat.size)             # the taus still being refined
    previous = None
    for n in _MU_NODES:
        u = np.arange(n) / (n - 1)          # exact: n - 1 is a power of two
        integrand = mass ** 2 * e.values(e.tau0 + width[rows, None] * u)
        s = width[rows] * np.sum(integrand * simpson_weights(n, u[1]), axis=1)
        finite = np.isfinite(s)
        if not finite.all():
            raise InputError(f"mu integrand is not finite up to tau = {flat[rows[~finite][0]]}")
        if previous is not None:
            err = s - previous
            done = np.abs(err) <= 15e-12 * np.maximum(1.0, np.abs(s))
            out[rows[done]] = s[done] + err[done] / 15.0
            rows, s = rows[~done], s[~done]
            if not rows.size:
                return float(out[0]) if taus.ndim == 0 else out.reshape(taus.shape)
        previous = s
    raise ArithmeticError(f"mu(tau) quadrature not converged at tau = {flat[rows[0]]} "
                          f"with {_MU_NODES[-1]} Simpson nodes")


def clifford_bracket(N: Polynomial, M: Polynomial, state: ParticleState):
    """Generalized bracket of two observables evaluated on the actual spinor Gram.

    Expands both derivative chains through the spinor dictionaries and pairs
    them with the mixed Gram bullet(c^A, d*_B); no constraint is assumed.
    When the state is Noether-constrained the value collapses to mu times
    the canonical Poisson bracket.  A float for one state, else an array
    over the stack.
    """
    x = state.x_vec()
    p = state.p_vec()
    CD = state.cd_gram()

    def spinor(grad: np.ndarray, table: np.ndarray) -> np.ndarray:
        return np.einsum("...m,mab->...ab", grad.astype(complex), table)

    GxN, GpN = spinor(N.grad_x(x, p), DX_UP), spinor(N.grad_p(x, p), DP_DOWN)
    GxM, GpM = spinor(M.grad_x(x, p), DX_UP), spinor(M.grad_p(x, p), DP_DOWN)
    t1 = np.sum((np.swapaxes(GxN, -1, -2) @ GpM) * CD.conj(), axis=(-2, -1))
    t2 = np.sum((np.swapaxes(GxM, -1, -2) @ GpN) * CD.conj(), axis=(-2, -1))
    bracket = (t1 + np.conj(t1) - t2 - np.conj(t2)).real
    return float(bracket) if bracket.ndim == 0 else bracket


def poisson_bracket(N: Polynomial, M: Polynomial, x: np.ndarray, p: np.ndarray):
    """Canonical bracket sum_mu (dN/dx^mu dM/dp_mu - dM/dx^mu dN/dp_mu), per point of a stack."""
    bracket = (np.vecdot(N.grad_x(x, p), M.grad_p(x, p))
               - np.vecdot(M.grad_x(x, p), N.grad_p(x, p)))
    return float(bracket) if bracket.ndim == 0 else bracket
