"""N-particle assembly, U(N) gauge structure, and matrix-mechanics evolution.

Classically, N independent particles on disjoint Clifford blocks give
diagonal N x N matrices ``X^mu`` and ``P_mu`` whose eigenvalues are the
single-particle phase-space curves; a global U(N) rotation of the kets and
bras produces similarity transformations of both.  The quantum sector keeps
the same equations of motion,

    dX/dtaubar = [X, H] / (i hbar),    H = (P.P - m^2 1) / (2 m),

on matrix pairs with [X, P] ~ i hbar 1.  Exact canonical pairs do not exist
in finite dimension (trace of a commutator vanishes), so the demonstrations
use truncated ladder-operator pairs whose commutator defect sits in the last
basis row and column; quantum checks stay away from that corner.

A gauge connection Gamma (stored Hermitian, the i sits in the covariant
derivative) moves between pictures: Gamma = 0 is the Heisenberg picture,
Gamma = -H/hbar freezes X and P and pushes all evolution into the state
vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .clifford import GeneratorSpace, unpack, validate_hermitian
from .errors import InputError, PreconditionError
from .particle import ParticleState, rk4, step_count
from .spinors import DP_DOWN, DX_UP, ETA

__all__ = [
    "NSystem",
    "assemble",
    "gauge_transform",
    "MatrixTrajectory",
    "evolve_matrix_classical",
    "evolve_heisenberg",
    "covariant_evolve",
    "evolve_pictures",
    "schrodinger_gauge",
    "expectation",
    "evolve_state",
    "truncated_oscillator",
    "born_sample",
    "nonrelativistic_rate",
]


class NSystem:
    """Kets C^A and bras D_A for N particles plus derived matrix caches.

    ``kets`` and ``bras`` are (2, N, G) coefficient stacks over ``space``:
    ``kets[A, i]`` is c^A of particle i, ``bras[A, i]`` its d*_A.  ``phi`` is
    the diagonal real weight matrix, which the equations of motion never see.
    """

    def __init__(self, space: GeneratorSpace, kets: np.ndarray, bras: np.ndarray,
                 mass: float, hbar: float = 0.0, phi: np.ndarray | None = None):
        self.space = space
        self.kets = np.asarray(kets, dtype=complex)
        self.bras = np.asarray(bras, dtype=complex)
        if self.kets.ndim != 3 or self.kets.shape[::2] != (2, space.size) \
                or self.bras.shape != self.kets.shape:
            raise InputError("kets and bras must be (2, N, G) coefficient stacks")
        self.n = self.kets.shape[1]
        self.mass = float(mass)
        self.hbar = float(hbar)
        if phi is None:
            phi = np.ones(self.n)
        self.phi = np.asarray(phi, dtype=float)
        self._xs = None
        self._ps = None

    # -- derived matrices -------------------------------------------------
    def x_spin(self) -> np.ndarray:
        """X^{AB}_{ij} = bullet(ket_i^A, conj(ket_j^B)); shape (2, 2, N, N)."""
        C = self.kets
        return np.einsum("aig,g,bjg->abij", C, self.space.signs, C.conj())

    def p_spin(self) -> np.ndarray:
        """P_{AB}_{ij} = bullet(conj(d*_B)_i, d*_A_j).

        The ket index rides on the conjugated momenta, which is what makes a
        bra rotation D -> D U^dagger act on P as a similarity U P U^dagger.
        """
        D = self.bras
        return np.einsum("big,g,ajg->abij", D.conj(), self.space.signs, D)

    def x_matrices(self) -> np.ndarray:
        """Space-time position matrices X^mu, shape (4, N, N)."""
        if self._xs is None:
            self._xs = np.einsum("mab,abij->mij", DX_UP, self.x_spin())
        return self._xs

    def p_matrices(self) -> np.ndarray:
        """Covariant momentum matrices P_mu, shape (4, N, N)."""
        if self._ps is None:
            self._ps = np.einsum("mab,abij->mij", DP_DOWN, self.p_spin())
        return self._ps

    def constraint_matrix(self) -> np.ndarray:
        """(C^A . D_B)_{ij}, shape (2, 2, N, N); mu delta^A_B 1 when constrained."""
        return np.einsum("aig,g,bjg->abij", self.kets, self.space.signs, self.bras)


def assemble(particles: Sequence[ParticleState], hbar: float = 0.0,
             phi: np.ndarray | None = None) -> NSystem:
    """Stack single-particle states sharing one space into an NSystem.

    The states must occupy pairwise disjoint generator blocks; their X and P
    matrices are then diagonal and all mutual commutators vanish exactly.
    """
    if not particles:
        raise InputError("need at least one particle")
    space = particles[0].space
    if len({st.mass for st in particles}) != 1:
        raise InputError("assembled particles must share one mass")
    if any(st.space is not space for st in particles):
        raise PreconditionError("all particles must live on one generator space")
    Y = np.stack([st.packed() for st in particles], axis=1)     # (4, N, G)
    support = np.any(Y != 0, axis=0)                             # (N, G)
    overlaps = np.argwhere(np.triu(support.astype(int) @ support.T.astype(int), k=1))
    if overlaps.size:
        i, k = overlaps[0]
        raise PreconditionError(f"particles {i} and {k} overlap in generator support")
    return NSystem(space, Y[:2], Y[2:], particles[0].mass, hbar=hbar, phi=phi)


def gauge_transform(sys: NSystem, U: np.ndarray) -> NSystem:
    """Rotate kets by U and bras by U^dagger; X and P transform by similarity."""
    U = np.asarray(U, dtype=complex)
    n = sys.n
    if U.shape != (n, n):
        raise InputError(f"U must be {n}x{n}")
    deviation = np.abs(U @ U.conj().T - np.eye(n)).max()
    if not deviation <= 1e-12:
        raise InputError(f"U is not unitary within 1e-12: max |U U^dagger - 1| = {deviation:.3e}")
    return NSystem(sys.space, _rotate(sys.kets, U), _rotate(sys.bras, U.conj()),
                   sys.mass, hbar=sys.hbar, phi=sys.phi)


def _rotate(K: np.ndarray, W: np.ndarray) -> np.ndarray:
    """out[A, i] = sum_j W[i, j] K[A, j] over a (2, N, G) stack.

    Summed term by term in j order rather than by a matrix product, so each
    row carries the digits of the per-vector sum W[i, 0] K[A, 0] + ... .
    """
    out = np.zeros((K.shape[0], W.shape[0], K.shape[2]), dtype=complex)
    for j in range(K.shape[1]):
        out += W[:, j, None] * K[:, None, j]
    return out


@dataclass
class MatrixTrajectory:
    taubar: np.ndarray
    X: np.ndarray            # (n_samples, 4 or 1, N, N)
    P: np.ndarray

    def hermiticity_drift(self) -> float:
        dx = np.abs(self.X - np.swapaxes(self.X, -1, -2).conj()).max()
        dp = np.abs(self.P - np.swapaxes(self.P, -1, -2).conj()).max()
        return float(np.max([dx, dp]))


def _rk4_matrix(Y0: np.ndarray, rhs, tau_end: float, steps: int) -> list[MatrixTrajectory]:
    """RK4 from tau = 0 on a (B, 2, ...) stack of (X, P) pairs; one trajectory per pair.

    ``rhs(t, Y)`` returns dY/dt for the whole stack.  Each pair's samples go
    to an array of their own, so a trajectory holds only its own memory.
    """
    steps = step_count(steps)
    h = tau_end / steps
    Y0 = np.asarray(Y0, dtype=complex)
    runs = [np.empty((steps + 1, *pair.shape), dtype=complex) for pair in Y0]
    for b, run in enumerate(runs):
        run[0] = Y0[b]
    for k, Y in enumerate(rk4(rhs, Y0, 0.0, h, steps), start=1):
        for b, run in enumerate(runs):
            run[k] = Y[b]
    # an RK4 step adds to the previous row, so a NaN or Inf entry stays
    # non-finite: the last row decides, and the scan runs only on failure
    if not all(np.isfinite(run[-1]).all() for run in runs):
        finite = np.all([np.isfinite(run[1:]).reshape(steps, -1).all(axis=1) for run in runs],
                        axis=0)
        raise ArithmeticError(
            f"matrix flow produced non-finite values at step {int(np.argmin(finite))}")
    ts = np.arange(steps + 1) * h
    return [MatrixTrajectory(ts, run[:, 0], run[:, 1]) for run in runs]


def evolve_matrix_classical(sys: NSystem, tau_end: float, steps: int) -> MatrixTrajectory:
    """Proper-time flow dX^mu = P^mu/m, dP = 0 of Tr H with H = (P.P - m^2 1)/(2m)."""
    if sys.hbar != 0.0:
        raise PreconditionError("classical evolution requires hbar = 0")
    m = sys.mass

    def rhs(t, Y):
        dY = np.zeros_like(Y)
        dY[0, 0] = np.einsum("mn,nij->mij", ETA, Y[0, 1]) / m     # P^mu / m
        return dY

    Y0 = np.stack((sys.x_matrices(), sys.p_matrices()))[None]
    return _rk4_matrix(Y0, rhs, tau_end, steps)[0]


def _free_hamiltonian(mass: float) -> Callable[[np.ndarray], np.ndarray]:
    """P -> (P.P - m^2 1)/(2m) for a momentum matrix P or a stack of them.

    m^2 1 is built once per matrix size, not on every call.
    """
    mass_terms: dict[int, np.ndarray] = {}

    def hamiltonian(P: np.ndarray) -> np.ndarray:
        n = P.shape[-1]
        if n not in mass_terms:
            mass_terms[n] = mass ** 2 * np.eye(n)
        H = P @ P
        H -= mass_terms[n]
        H *= 0.5 / mass         # the values numpy gives for / (2.0 * mass)
        return H

    return hamiltonian


def _commutator_flows(X0: np.ndarray, P0: np.ndarray, hbar: float, mass: float,
                      connections: Sequence[Callable | None], name: str):
    """``(Y0, rhs)`` for one RK4 over len(connections) copies of the Hermitian pair (X0, P0).

    System b follows dY = i[Gamma_b, Y] + [Y, H]/(i hbar) for Y = X, P, with
    the Hermitian Gamma_b = ``connections[b](t, X, P, H)`` read from the
    system's stage state and Hamiltonian; None means Gamma = 0 (the
    Heisenberg picture).  Each stage computes every system's H with one
    batched P @ P and every [Y, H] with one batched product.

    X0 and P0 must be Hermitian (``validate_hermitian``, else InputError).
    Y and H stay Hermitian, so H Y = (Y H)^dagger and [Y, H] = A - A^dagger
    with A = Y H: one product per commutator; likewise Gamma Y - Y Gamma =
    B - B^dagger with B = Gamma Y.  Either difference is anti-Hermitian
    entry by entry, however A and B were rounded, so the flow keeps X and P
    exactly Hermitian.
    """
    if not hbar > 0:
        raise PreconditionError(f"{name} requires hbar > 0")
    X0, P0 = validate_hermitian(X0), validate_hermitian(P0)
    hamiltonian = _free_hamiltonian(mass)
    scale = -1j / hbar          # the values numpy gives for / (1j * hbar)

    def rhs(t, Y):
        H = hamiltonian(Y[:, 1])[:, None]
        dY = Y @ H
        dY -= dY.swapaxes(-1, -2).conj()
        dY *= scale
        for b, connection in enumerate(connections):
            if connection is not None:
                B = connection(t, Y[b, 0], Y[b, 1], H[b, 0]) @ Y[b]
                B -= B.swapaxes(-1, -2).conj()
                B *= 1j
                dY[b] += B
        return dY

    return np.stack([np.stack((X0, P0))] * len(connections)), rhs


def evolve_heisenberg(X0: np.ndarray, P0: np.ndarray, hbar: float, mass: float,
                      tau_end: float, steps: int) -> MatrixTrajectory:
    """Heisenberg flow dX = [X,H]/(i hbar), dP = [P,H]/(i hbar) on one matrix pair."""
    return _rk4_matrix(*_commutator_flows(X0, P0, hbar, mass, [None], "evolve_heisenberg"),
                       tau_end, steps)[0]


def covariant_evolve(X0: np.ndarray, P0: np.ndarray, hbar: float, mass: float,
                     gamma: Callable[[float, np.ndarray, np.ndarray], np.ndarray],
                     tau_end: float, steps: int) -> MatrixTrajectory:
    """Gauge-covariant flow: dX = i[Gamma, X] + [X, H]/(i hbar).

    ``gamma(taubar, X, P)`` returns the Hermitian connection, checked by
    ``validate_hermitian`` at every stage.  Gamma = 0
    reproduces :func:`evolve_heisenberg` exactly; Gamma = -H/hbar cancels the
    commutators and freezes X and P (the Schrodinger picture).
    """
    flow = _commutator_flows(X0, P0, hbar, mass,
                             [lambda t, X, P, H: validate_hermitian(gamma(t, X, P))],
                             "covariant_evolve")
    return _rk4_matrix(*flow, tau_end, steps)[0]


def evolve_pictures(X0: np.ndarray, P0: np.ndarray, hbar: float, mass: float,
                    tau_end: float, steps: int) -> tuple[MatrixTrajectory, MatrixTrajectory]:
    """The end states of the Heisenberg and Schrodinger-gauge flows of one pair, stepped together.

    Returns ``(heisenberg, frozen)`` as one-sample trajectories at taubar =
    tau_end, equal bit for bit to the last rows of :func:`evolve_heisenberg`
    and of :func:`covariant_evolve` under :func:`schrodinger_gauge`; the
    frozen system takes Gamma = -H/hbar from the Hamiltonian its stage
    already computed.  No intermediate row is kept.
    """
    steps = step_count(steps)
    Y0, rhs = _commutator_flows(X0, P0, hbar, mass,
                                [None, lambda t, X, P, H: H * (-1.0 / hbar)], "evolve_pictures")
    h = tau_end / steps
    for Y in rk4(rhs, Y0, 0.0, h, steps):
        pass
    # a non-finite entry stays non-finite (see _rk4_matrix); only a failed
    # run is stepped again to find the first bad step
    if not np.isfinite(Y).all():
        bad = next(k for k, Z in enumerate(rk4(rhs, Y0, 0.0, h, steps)) if not np.isfinite(Z).all())
        raise ArithmeticError(f"matrix flow produced non-finite values at step {bad}")
    ts = np.array([steps * h])
    return MatrixTrajectory(ts, Y[0, :1], Y[0, 1:]), MatrixTrajectory(ts, Y[1, :1], Y[1, 1:])


def schrodinger_gauge(hbar: float, mass: float):
    """The connection Gamma = -H/hbar that makes X and P stationary."""
    hamiltonian = _free_hamiltonian(mass)
    return lambda t, X, P: hamiltonian(P) * (-1.0 / hbar)


def expectation(s: np.ndarray, target, which: str = "X"):
    """Unitarily covariant expectation value through a state vector.

    which = "X" or "P": <s|M|s> per component of an NSystem (or a bare
    matrix / stack of matrices).  which = "C": the Clifford coordinate
    <s| C^A, a pair of ClVectors.
    """
    s = np.asarray(s, dtype=complex)
    if not abs(s @ s.conj() - 1.0) <= 1e-12:
        raise InputError("state vector must have unit norm")
    if which == "C":
        if not isinstance(target, NSystem):
            raise InputError("expectation of C needs an NSystem")
        return list(unpack(target.space, _rotate(target.kets, s.conj()[None])[:, 0]))
    if isinstance(target, NSystem):
        mats = target.x_matrices() if which == "X" else target.p_matrices()
    else:
        mats = np.asarray(target, dtype=complex)
    if mats.ndim == 2:
        return complex(s.conj() @ mats @ s)
    return np.array([complex(s.conj() @ M @ s) for M in mats])


def evolve_state(s: np.ndarray, gamma: Callable[[float], np.ndarray],
                 tau_end: float, steps: int) -> np.ndarray:
    """Integrate (d/dtau - i Gamma(tau)) |s> = 0 from tau = 0 with RK4; norm is preserved."""
    steps = step_count(steps)
    h = tau_end / steps
    for s in rk4(lambda t, v: 1j * (gamma(t) @ v), np.asarray(s, dtype=complex), 0.0, h, steps):
        pass
    if not np.isfinite(s).all():
        raise ArithmeticError(f"evolve_state produced a non-finite state after {steps} steps")
    return s


def truncated_oscillator(nlev: int, mass: float = 1.0, omega: float = 1.0,
                         hbar: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Truncated ladder pair: [X, P] = i hbar (1 - nlev |top><top|).

    The commutator defect lives entirely in the last diagonal entry; every
    interior matrix element satisfies the canonical relation exactly.
    """
    n = np.arange(1, nlev)
    a = np.diag(np.sqrt(n), k=1)
    X = np.sqrt(hbar / (2 * mass * omega)) * (a + a.T)
    P = 1j * np.sqrt(mass * omega * hbar / 2) * (a.T - a)
    return X, P


def born_sample(rng: np.random.Generator, s: np.ndarray, eigvecs: np.ndarray) -> int:
    """Sample an eigenvector index with probability |<x_i|s>|^2."""
    amps = eigvecs.conj().T @ np.asarray(s, dtype=complex)
    probs = np.abs(amps) ** 2
    probs = probs / probs.sum()
    return int(rng.choice(len(probs), p=probs))


def nonrelativistic_rate(P0: np.ndarray, s: np.ndarray, mass: float) -> float:
    """dt/dtaubar = <s|P^0|s>/m; approaches 1 when |p| << m."""
    return float((np.asarray(s).conj() @ P0 @ np.asarray(s)).real / mass)
