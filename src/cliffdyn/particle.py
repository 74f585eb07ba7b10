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

from .clifford import (ClVector, GeneratorSpace, bullet, bullet_gram, pack,
                       resolve_pair_packed, unpack)
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
    "Observable",
    "coordinate_observable",
    "momentum_observable",
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

    def __call__(self, tau: float) -> float:
        return float(self.values(np.asarray(tau, dtype=float)))

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


@dataclass(frozen=True)
class Observable:
    """Real function of (x, p) with analytic four-gradients.

    ``grad_x(x, p)[mu] = dN/dx^mu`` (derivative in the contravariant
    coordinates) and ``grad_p(x, p)[mu] = dN/dp_mu`` (derivative in the
    covariant momenta), matching the canonical pairing of the Poisson
    bracket.
    """

    value: Callable[[np.ndarray, np.ndarray], float]
    grad_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_p: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = ""

    def validate_gradients(self, x: np.ndarray, p: np.ndarray) -> float:
        """Central finite differences against the analytic gradients, to 1e-6 relative."""
        errors = []
        for which in ("x", "p"):
            base = np.array(x if which == "x" else p, dtype=float)
            analytic = (self.grad_x if which == "x" else self.grad_p)(x, p)
            scale = max(1.0, float(np.abs(base).max()))
            h = 1e-6 * scale
            for mu in range(4):
                plus = base.copy(); plus[mu] += h
                minus = base.copy(); minus[mu] -= h
                if which == "x":
                    fd = (self.value(plus, p) - self.value(minus, p)) / (2 * h)
                else:
                    fd = (self.value(x, plus) - self.value(x, minus)) / (2 * h)
                errors.append(abs(fd - analytic[mu]) / max(1.0, abs(analytic[mu])))
        worst = float(np.max(errors))
        if not worst <= 1e-6:
            raise InputError(f"observable {self.name!r}: gradient mismatch {worst:.2e}")
        return worst


def coordinate_observable(mu: int) -> Observable:
    gx = np.zeros(4); gx[mu] = 1.0
    return Observable(
        value=lambda x, p, _mu=mu: float(x[_mu]),
        grad_x=lambda x, p, _gx=gx: _gx.copy(),
        grad_p=lambda x, p: np.zeros(4),
        name=f"x^{mu}")


def momentum_observable(mu: int) -> Observable:
    gp = np.zeros(4); gp[mu] = 1.0
    return Observable(
        value=lambda x, p, _mu=mu: float(p[_mu]),
        grad_x=lambda x, p: np.zeros(4),
        grad_p=lambda x, p, _gp=gp: _gp.copy(),
        name=f"p_{mu}")


def polynomial_observable(terms: Sequence[tuple[float, Sequence[int], Sequence[int]]],
                          name: str = "poly") -> Observable:
    """Polynomial sum of c * prod_mu x^mu^a_mu * prod_mu p_mu^b_mu terms."""
    terms = [(float(c), np.asarray(a, dtype=int), np.asarray(b, dtype=int))
             for c, a, b in terms]

    def value(x, p):
        total = 0.0
        for cf, ax, bp in terms:
            total += cf * np.prod(x ** ax) * np.prod(p ** bp)
        return float(total)

    def _grad(x, p, wrt_x: bool):
        g = np.zeros(4)
        for cf, ax, bp in terms:
            exps = ax if wrt_x else bp
            base = x if wrt_x else p
            other = np.prod((p if wrt_x else x) ** (bp if wrt_x else ax))
            for mu in range(4):
                if exps[mu] == 0:
                    continue
                rest = 1.0
                for nu in range(4):
                    e = exps[nu] - (1 if nu == mu else 0)
                    rest *= base[nu] ** e
                g[mu] += cf * exps[mu] * rest * other
        return g

    return Observable(
        value=value,
        grad_x=lambda x, p: _grad(x, p, True),
        grad_p=lambda x, p: _grad(x, p, False),
        name=name)


class ParticleState:
    """Canonical pair (c^A, d*_A) plus mass and parameter value.

    ``packed()`` is the (4, G) coefficient stack with rows c^0, c^1, d*_0,
    d*_1; ``c`` and ``dstar`` are vector views of its rows.
    """

    __slots__ = ("_Y", "mass", "tau", "space")

    def __init__(self, c: Sequence[ClVector], dstar: Sequence[ClVector],
                 mass: float, tau: float = 0.0):
        if len(c) != 2 or len(dstar) != 2:
            raise InputError("need two spinor components for c and dstar")
        self._init(pack([*c, *dstar]), c[0].space, mass, tau)

    @classmethod
    def _of_stack(cls, Y: np.ndarray, space: GeneratorSpace, mass: float,
                  tau: float) -> "ParticleState":
        state = cls.__new__(cls)
        state._init(Y, space, mass, tau)
        return state

    def _init(self, Y: np.ndarray, space: GeneratorSpace, mass: float, tau: float) -> None:
        if not mass > 0:
            raise InputError("mass must be positive")
        self._Y = np.asarray(Y, dtype=complex).view()
        self._Y.setflags(write=False)
        self.mass, self.tau, self.space = float(mass), float(tau), space

    def packed(self) -> np.ndarray:
        return self._Y

    @property
    def c(self) -> tuple[ClVector, ClVector]:
        return unpack(self.space, self._Y[:2])

    @property
    def dstar(self) -> tuple[ClVector, ClVector]:
        return unpack(self.space, self._Y[2:])

    # -- derived space-time data ------------------------------------------
    def x_spinor(self) -> np.ndarray:
        return bullet_gram(self._Y[:2], self._Y[:2].conj(), self.space.signs)

    def p_spinor(self) -> np.ndarray:
        return bullet_gram(self._Y[2:], self._Y[2:].conj(), self.space.signs)

    def cd_gram(self) -> np.ndarray:
        return bullet_gram(self._Y[:2], self._Y[2:], self.space.signs)

    def x_vec(self) -> np.ndarray:
        return spinor_to_vec(self.x_spinor()).real

    def p_vec(self) -> np.ndarray:
        """Covariant momentum components p_mu."""
        return spinor_down_to_covec(self.p_spinor()).real

    def mu_charge(self) -> float:
        return 0.5 * np.trace(self.cd_gram()).real

    def mass_shell(self) -> float:
        """p.p - m^2, zero on shell."""
        p = self.p_vec()
        return float(minkowski_dot(p, p).real) - self.mass ** 2


def build_state(x: np.ndarray, p: np.ndarray, M, mass: float,
                tau: float = 0.0) -> ParticleState:
    """State with prescribed four-vectors x, p and mixed Gram M.

    ``M`` may be a scalar mu (meaning mu times the identity) or a full 2x2
    complex matrix.
    """
    x_up = vec_to_spinor(np.asarray(x, dtype=float))
    p_down = covec_to_spinor_down(np.asarray(p, dtype=float))
    M = np.asarray(M, dtype=complex)
    if M.ndim == 0:
        M = complex(M) * np.eye(2)
    C, D, space = resolve_pair_packed(x_up, p_down, M)
    return ParticleState._of_stack(np.concatenate((C, D)), space, mass, tau)


# -- actions and Hamiltonian ------------------------------------------------

def _velocity_contraction(cdot: Sequence[ClVector]) -> float:
    """(1/2) (dc^A . dc*^B)(dc_A . dc*_B): the quartic invariant of the velocity.

    Equals W.W for the four-vector W behind the matrix bullet(dc, conj(dc)).
    """
    W = np.array([[bullet(cdot[a], cdot[b].conj()) for b in range(2)] for a in range(2)])
    w = spinor_to_vec(W)
    return float(minkowski_dot(w, w).real)


def lagrangian_c2(cdot: Sequence[ClVector], mass: float) -> float:
    """Reparametrization-invariant integrand 4 sqrt(m) Q^{1/4}.

    Q is the quartic velocity invariant; Q < 0 signals non-timelike motion
    and raises.
    """
    Q = _velocity_contraction(cdot)
    if Q < 0:
        raise PreconditionError(f"quartic radicand is negative ({Q:.3e}): non-timelike velocity")
    return 4.0 * math.sqrt(mass) * Q ** 0.25


def polyakov_lagrangian(cdot: Sequence[ClVector], e: float, mass: float) -> float:
    """Einbein form whose e-elimination reproduces :func:`lagrangian_c2`."""
    Q = _velocity_contraction(cdot)
    if Q < 0:
        raise PreconditionError(f"cubic radicand is negative ({Q:.3e})")
    return 3.0 * e ** (-1.0 / 3.0) * Q ** (1.0 / 3.0) + mass ** 2 * e


def conjugate_momentum_norm(cdot: Sequence[ClVector], e: float) -> float:
    """p.p implied by the einbein-form momenta: e^{-4/3} Q^{1/3}."""
    Q = _velocity_contraction(cdot)
    return e ** (-4.0 / 3.0) * Q ** (1.0 / 3.0)


def hamiltonian_c5(state: ParticleState, e: float) -> float:
    """H = e (p.p - m^2); vanishes on shell for any einbein value."""
    return e * state.mass_shell()


def step_count(steps) -> int:
    """``steps`` as an int if it is a positive integer, else an InputError naming it.

    Every fixed-step integrator checks its step count here.  A Python or
    numpy integer passes ``operator.index``; a float such as 2.5 does not,
    and a bool is refused by name.
    """
    try:
        n = operator.index(steps)
    except TypeError:
        n = None
    if n is None or n < 1 or isinstance(steps, bool):
        raise InputError(f"steps must be a positive integer, got {steps!r}")
    return n


def rk4(f: Callable, y, t0: float, h: float, steps: int):
    """Classic fixed-step RK4 for dy/dt = f(t, y); yields y after each step."""
    for k in range(steps):
        t = t0 + k * h
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        yield y


def _c_rate(D: np.ndarray, signs: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """dc/dtau of the free flow as a function of the einbein value.

    dd*/dtau vanishes (dH/dx = 0 for the free constraint Hamiltonian), so the
    d* rows, and the momentum gradient built from them, never change and the
    c-row derivative e(tau) K depends on tau alone.  ``rate(e_vals)`` maps an
    array of einbein values to the ``(*e_vals.shape, 2, G)`` derivatives.
    """
    P = bullet_gram(D, D.conj(), signs)       # p_{AB} = bullet(d*_A, conj(d*_B))
    eta_p = ETA @ spinor_down_to_covec(P)

    def rate(e_vals: np.ndarray) -> np.ndarray:
        grad_p = 2.0 * e_vals[..., None] * eta_p          # dH/dp_mu for H = e (p.p - m^2)
        return np.einsum("...m,mab->...ab", grad_p, DP_DOWN) @ D.conj()

    return rate


def canonical_rhs(state: ParticleState, e: float
                  ) -> tuple[list[ClVector], list[ClVector]]:
    """(dc/dtau, dd*/dtau) for the constraint Hamiltonian H = e (p.p - m^2)."""
    space = state.space
    dc = _c_rate(state.packed()[2:], space.signs)(np.asarray(float(e)))
    return list(unpack(space, dc)), [space.zero(), space.zero()]


@dataclass
class Trajectory:
    """Sampled states plus derived columns, one row per RK4 step."""

    space: GeneratorSpace
    mass: float
    tau: np.ndarray
    taubar: np.ndarray
    Y: np.ndarray            # (n_samples, 4, G) complex coefficients
    x: np.ndarray            # (n_samples, 4) real
    p: np.ndarray            # (n_samples, 4) real covariant
    J: np.ndarray            # (n_samples, 2, 2) complex Noether charge
    j: np.ndarray            # (n_samples,) real U(1) charge
    mu: np.ndarray           # (n_samples,) real

    def state(self, k: int) -> ParticleState:
        return ParticleState._of_stack(self.Y[k], self.space, self.mass, float(self.tau[k]))

    def constraint_drift(self) -> float:
        """Largest change of p.p - m^2 along the run, read from the p column."""
        p = self.p
        shell = (p[:, 0] * p[:, 0] - p[:, 1] * p[:, 1] - p[:, 2] * p[:, 2]
                 - p[:, 3] * p[:, 3] - self.mass ** 2)
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
                          "J22_re,J22_im,j,mu", *(row % tuple(r) for r in table.tolist())]) + "\n"


def _free_flow(C: np.ndarray, D: np.ndarray, signs: np.ndarray, mass: float,
               e: EinbeinFn, tau0: float, h: float) -> np.ndarray:
    """Fill rows 1.. of the (n, 2, G) c-row stack C by RK4 steps of size h
    from row 0 and return taubar, which starts at 0.

    The c-row derivative e(tau) K does not read the state (see
    :func:`_c_rate`), so RK4's k2 and k3 coincide and every step's increment
    (h/6)(k1 + 2 k2 + 2 k3 + k4) is known from the einbein alone.  Each block
    of steps evaluates e at all its stage times in one call and sums the
    increments in step order with ``np.add.accumulate``.  taubar accumulates
    dtaubar/dtau = 2 m mu e the same way, with mu read from the four RK4
    stage states of the c rows.  Every row equals, bit for bit, stepping
    :func:`rk4` on the flow state (c rows, taubar).
    """
    rate = _c_rate(D, signs)
    signed_D_T = (D * signs).T

    def taubar_rate(c_rows: np.ndarray, e_vals: np.ndarray) -> np.ndarray:
        cd = c_rows @ signed_D_T              # bullet(c_A, d*_B)
        return 2.0 * mass * (0.5 * (cd[..., 0, 0] + cd[..., 1, 1]).real) * e_vals

    steps = len(C) - 1
    taubar = np.empty(steps + 1)
    taubar[0] = 0.0
    for lo in range(0, steps, _COLUMN_BLOCK):
        hi = min(lo + _COLUMN_BLOCK, steps)
        t = tau0 + np.arange(lo, hi) * h
        e1, e2, e4 = e.values(np.stack((t, t + 0.5 * h, t + h), axis=1)).T
        k1, k2, k4 = rate(e1), rate(e2), rate(e4)                       # k3 = k2
        c = C[lo:hi + 1]
        np.add.accumulate(
            np.concatenate((c[:1], (h / 6.0) * (k1 + 2 * k2 + 2 * k2 + k4))), axis=0, out=c)
        y = c[:-1]
        r1 = taubar_rate(y, e1)
        r2 = taubar_rate(y + 0.5 * h * k1, e2)
        r3 = taubar_rate(y + 0.5 * h * k2, e2)
        r4 = taubar_rate(y + h * k2, e4)
        tb = taubar[lo:hi + 1]
        np.add.accumulate(
            np.concatenate((tb[:1], (h / 6.0) * (r1 + 2 * r2 + 2 * r3 + r4))), out=tb)
        finite = np.isfinite(c[1:]).all(axis=(1, 2)) & np.isfinite(tb[1:])
        if not finite.all():
            raise ArithmeticError(
                f"integration produced non-finite values at step {lo + int(np.argmin(finite))}")
    return taubar


def integrate(state0: ParticleState, e: EinbeinFn, tau_end: float,
              steps: int) -> Trajectory:
    """Classic fixed-step RK4 on the coefficient flow, tracking taubar.

    taubar accumulates dtaubar/dtau = 2 m mu(tau) e(tau) through the same RK4
    stages as c (see :func:`_free_flow`), so the reparametrized columns are
    consistent to integrator order.
    """
    steps = step_count(steps)
    signs = state0.space.signs
    tau0 = state0.tau
    h = (tau_end - tau0) / steps
    n = steps + 1
    Y0 = state0.packed().astype(complex)
    out_Y = np.empty((n, *Y0.shape), dtype=complex)
    out_Y[0] = Y0
    out_Y[1:, 2:] = Y0[2:]
    with np.errstate(over="ignore", invalid="ignore"):    # _free_flow names the bad step
        out_taubar = _free_flow(out_Y[:, :2], Y0[2:], signs, state0.mass, e, tau0, h)
    out_tau = tau0 + np.arange(n) * h
    out_tau[0] = tau0
    x = np.empty((n, 4))
    p = np.empty((n, 4))
    J = np.empty((n, 2, 2), dtype=complex)
    jq = np.empty(n)
    mu = np.empty(n)
    for lo in range(0, n, _COLUMN_BLOCK):
        rows = slice(lo, lo + _COLUMN_BLOCK)
        x[rows], p[rows], J[rows], jq[rows], mu[rows] = _derived_columns(out_Y[rows], signs)
    return Trajectory(state0.space, state0.mass, out_tau, out_taubar, out_Y, x, p, J, jq, mu)


# Steps per block of the flow and rows per batch of derived columns; bounds
# the (rows, 2, G) stage and (rows, 2, 2, G) column temporaries.
_COLUMN_BLOCK = 1024


def _derived_columns(Y: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, ...]:
    """x, p, J, j and mu of a (rows, 4, G) stack, row by row as ParticleState
    and :func:`noether_charges` compute them."""
    C, D = Y[:, :2], Y[:, 2:]
    x = spinor_to_vec(bullet_gram(C, C.conj(), signs)).real
    p = spinor_down_to_covec(bullet_gram(D, D.conj(), signs)).real
    c_low = np.stack(eps_flip_pair([C[:, 0], C[:, 1]]), axis=1)
    dcl = np.sum(D[:, :, None, :] * c_low[:, None, :, :] * signs, axis=-1)
    J = dcl + np.swapaxes(dcl, 1, 2)          # bullet(d*_A, c_B) + bullet(d*_B, c_A)
    trace_cd = np.trace(bullet_gram(C, D, signs), axis1=1, axis2=2)
    j = (1j * (trace_cd - np.conj(trace_cd))).real
    return x, p, J, j, 0.5 * trace_cd.real


def noether_charges(state: ParticleState) -> tuple[np.ndarray, float]:
    """Global symmetry charges: J_AB = d*_A . c_B + d*_B . c_A and the U(1) charge.

    Both vanish identically on Noether-constrained states (mixed Gram equal
    to a real multiple of the identity).
    """
    c_low = eps_flip_pair(list(state.c))
    J = np.empty((2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            J[a, b] = bullet(state.dstar[a], c_low[b]) + bullet(state.dstar[b], c_low[a])
    trace_cd = np.trace(state.cd_gram())
    j = float((1j * (trace_cd - np.conj(trace_cd))).real)
    return J, j


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


def clifford_bracket(N: Observable, M: Observable, state: ParticleState) -> float:
    """Generalized bracket of two observables evaluated on the actual spinor Gram.

    Expands both derivative chains through the spinor dictionaries and pairs
    them with the mixed Gram bullet(c^A, d*_B); no constraint is assumed.
    When the state is Noether-constrained the value collapses to mu times
    the canonical Poisson bracket.
    """
    x = state.x_vec()
    p = state.p_vec()
    CD = state.cd_gram()
    GxN = np.einsum("m,mab->ab", N.grad_x(x, p).astype(complex), DX_UP)
    GpN = np.einsum("m,mab->ab", N.grad_p(x, p).astype(complex), DP_DOWN)
    GxM = np.einsum("m,mab->ab", M.grad_x(x, p).astype(complex), DX_UP)
    GpM = np.einsum("m,mab->ab", M.grad_p(x, p).astype(complex), DP_DOWN)
    t1 = np.sum((GxN.T @ GpM) * CD.conj())
    t2 = np.sum((GxM.T @ GpN) * CD.conj())
    return float((t1 + np.conj(t1) - t2 - np.conj(t2)).real)


def poisson_bracket(N: Observable, M: Observable, x: np.ndarray, p: np.ndarray) -> float:
    """Canonical bracket sum_mu (dN/dx^mu dM/dp_mu - dM/dx^mu dN/dp_mu)."""
    return float(N.grad_x(x, p) @ M.grad_p(x, p) - M.grad_x(x, p) @ N.grad_p(x, p))
