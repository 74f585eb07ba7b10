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
vector.  Every flow steps ``particle.rk4`` to tau_end and returns only its
state there, ``(X, P)`` for the matrix flows.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .clifford import GeneratorSpace, validate_hermitian
from .errors import InputError, PreconditionError
from .particle import ParticleState, rk4, step_count
from .spinors import DP_DOWN, DX_UP, ETA
from .tolerances import DEFAULT

__all__ = [
    "NSystem",
    "assemble",
    "gauge_transform",
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
    ``kets[A, i]`` is c^A of particle i, ``bras[A, i]`` its d*_A.
    """

    def __init__(self, space: GeneratorSpace, kets: np.ndarray, bras: np.ndarray,
                 mass: float):
        self.space = space
        self.kets = np.asarray(kets, dtype=complex)
        self.bras = np.asarray(bras, dtype=complex)
        if self.kets.ndim != 3 or self.kets.shape[::2] != (2, space.size) \
                or self.bras.shape != self.kets.shape:
            raise InputError("kets and bras must be (2, N, G) coefficient stacks")
        self.n = self.kets.shape[1]
        self.mass = float(mass)
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


def assemble(particles: Sequence[ParticleState]) -> NSystem:
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
    return NSystem(space, Y[:2], Y[2:], particles[0].mass)


def gauge_transform(sys: NSystem, U: np.ndarray) -> NSystem:
    """Rotate kets by U and bras by U^dagger; X and P transform by similarity."""
    U = np.asarray(U, dtype=complex)
    n = sys.n
    if U.shape != (n, n):
        raise InputError(f"U must be {n}x{n}")
    deviation = np.abs(U @ U.conj().T - np.eye(n)).max()
    if not deviation <= DEFAULT.unitarity:
        raise InputError(f"U is not unitary within {DEFAULT.unitarity:g}: "
                         f"max |U U^dagger - 1| = {deviation:.3e}")
    return NSystem(sys.space, _rotate(sys.kets, U), _rotate(sys.bras, U.conj()), sys.mass)


def _rotate(K: np.ndarray, W: np.ndarray) -> np.ndarray:
    """out[A, i] = sum_j W[i, j] K[A, j] over a (2, N, G) stack.

    Summed term by term in j order rather than by a matrix product, so each
    row carries the digits of the per-vector sum W[i, 0] K[A, 0] + ... .
    """
    out = np.zeros((K.shape[0], W.shape[0], K.shape[2]), dtype=complex)
    for j in range(K.shape[1]):
        out += W[:, j, None] * K[:, None, j]
    return out


def _rk4_end(Y0, rhs, tau_end: float, steps: int) -> np.ndarray:
    """The RK4 state at tau_end of dY/dtau = ``rhs(tau, Y, out)`` from Y0 at tau = 0.

    A NaN or Inf entry stays non-finite, so the end state decides, and only a
    failed run is stepped again to name its first bad step in an ArithmeticError.
    """
    steps = step_count(steps)
    h = tau_end / steps
    for Y in rk4(rhs, Y0, 0.0, h, steps):
        pass
    if not np.isfinite(Y).all():
        bad = next(k for k, Y in enumerate(rk4(rhs, Y0, 0.0, h, steps)) if not np.isfinite(Y).all())
        raise ArithmeticError(f"matrix flow produced non-finite values at step {bad}")
    return Y


def evolve_matrix_classical(sys: NSystem, tau_end: float, steps: int) -> tuple[np.ndarray, ...]:
    """Proper-time flow dX^mu = P^mu/m, dP = 0 of Tr H with H = (P.P - m^2 1)/(2m);
    the (4, N, N) stacks ``(X, P)`` at tau_end."""
    m = sys.mass

    def rhs(t, Y, dY):
        dY[...] = 0
        dY[0] = np.einsum("mn,nij->mij", ETA, Y[1]) / m     # P^mu / m

    return tuple(_rk4_end(np.stack((sys.x_matrices(), sys.p_matrices())), rhs, tau_end, steps))


def _free_hamiltonian(mass: float, n: int) -> Callable[..., np.ndarray]:
    """(P, out=None) -> (P.P - m^2 1)/(2m) for an n x n momentum matrix P or a stack of them."""
    mass_term = mass ** 2 * np.eye(n, dtype=complex)    # complex: H -= casts nothing

    def hamiltonian(P: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        H = np.matmul(P, P, out=out)
        H -= mass_term
        H *= 0.5 / mass         # the values numpy gives for / (2.0 * mass)
        return H

    return hamiltonian


def _commutator_flows(X0: np.ndarray, P0: np.ndarray, hbar: float, mass: float, name: str,
                      heisenberg: int, connection: Callable | None = None):
    """``(Y0, rhs, pairs)`` for one RK4 over copies of the Hermitian pair (X0, P0):
    ``heisenberg`` systems in the Heisenberg picture, then one under
    ``connection`` if it is given.

    A system follows dX = i[Gamma, X] + [X, H]/(i hbar) and dP = i[Gamma, P],
    with Gamma = 0 in the Heisenberg picture and otherwise the Hermitian
    Gamma = ``connection(t, X, P, H, out)`` (it may write into the buffer
    ``out``).  H = (P.P - m^2 1)/(2m) is a function of P, so [P, H] = 0 and P
    moves only under a connection: its Hamiltonian commutator, pure rounding
    noise, is never formed.  The state Y holds what moves, the X of every
    system and then the connected system's P; a Heisenberg system keeps P0,
    and its H is computed once.  ``pairs(Y)`` returns every system's (X, P),
    the connected system last.  ``rhs(t, Y, dY)`` computes every X H in one
    batched product, in buffers allocated once per flow.  Its elementwise
    calls read and write whole contiguous buffers, since numpy allocates a
    buffer for a strided or broadcast operand: a stage allocates no array.

    X0 and P0 must be Hermitian (``validate_hermitian``, else InputError).
    X, P and H stay Hermitian, so H X = (X H)^dagger and [X, H] = A - A^dagger
    with A = X H: one product per commutator; likewise Gamma Y - Y Gamma =
    B - B^dagger with B = Gamma Y for Y = X, P.  Either difference is
    anti-Hermitian entry by entry, however A and B were rounded, so the flow
    keeps X and P exactly Hermitian.
    """
    if not hbar > 0:
        raise PreconditionError(f"{name} requires hbar > 0")
    X0, P0 = validate_hermitian(X0), validate_hermitian(P0)
    connected = connection is not None
    n, systems = len(X0), heisenberg + connected
    hamiltonian = _free_hamiltonian(mass, n)
    scale = -1j / hbar          # the values numpy gives for / (1j * hbar)
    Y0 = np.stack([X0] * systems + [P0] * connected)
    # A = X H of every system, then B = Gamma (X, P), in one buffer: each
    # difference A - A^dagger, B - B^dagger is one call for all
    work = np.empty((systems + 2 * connected, n, n), dtype=complex)
    A, B = work[:systems], work[systems:]
    transposed, dagger = work.swapaxes(-1, -2), np.empty_like(work)
    H, gamma = np.stack([hamiltonian(P0)] * systems), np.empty_like(X0)

    def rhs(t, Y, dY):
        if connected:
            pair = Y[-2:]
            np.matmul(connection(t, *pair, hamiltonian(pair[1], out=H[-1]), gamma), pair, out=B)
        np.matmul(Y[:systems], H, out=A)
        np.copyto(dagger, transposed)
        np.subtract(work, np.conjugate(dagger, out=dagger), out=work)
        np.multiply(A, scale, out=dY[:systems])
        if connected:
            np.multiply(B, 1j, out=B)
            dY[-2] += B[0]
            dY[-1] = B[1]

    def pairs(Y):
        return [(X, P0) for X in Y[:heisenberg]] + [tuple(Y[-2:])] * connected

    return Y0, rhs, pairs


def evolve_heisenberg(X0: np.ndarray, P0: np.ndarray, hbar: float, mass: float,
                      tau_end: float, steps: int) -> tuple[np.ndarray, ...]:
    """Heisenberg flow dX = [X,H]/(i hbar), dP = [P,H]/(i hbar) = 0; ``(X, P)`` at tau_end,
    with P returned equal to P0."""
    Y0, rhs, pairs = _commutator_flows(X0, P0, hbar, mass, "evolve_heisenberg", 1)
    return pairs(_rk4_end(Y0, rhs, tau_end, steps))[0]


def covariant_evolve(X0: np.ndarray, P0: np.ndarray, hbar: float, mass: float,
                     gamma: Callable[[float, np.ndarray, np.ndarray], np.ndarray],
                     tau_end: float, steps: int) -> tuple[np.ndarray, ...]:
    """Gauge-covariant flow dX = i[Gamma, X] + [X, H]/(i hbar), dP = i[Gamma, P];
    ``(X, P)`` at tau_end.

    ``gamma(taubar, X, P)`` returns the Hermitian connection, checked by
    ``validate_hermitian`` at every stage; X and P are views of a reused buffer.
    Gamma = 0 reproduces :func:`evolve_heisenberg` exactly; Gamma = -H/hbar
    cancels the commutators and freezes X and P (the Schrodinger picture).
    """
    Y0, rhs, pairs = _commutator_flows(
        X0, P0, hbar, mass, "covariant_evolve", 0,
        lambda t, X, P, H, out: validate_hermitian(gamma(t, X, P)))
    return pairs(_rk4_end(Y0, rhs, tau_end, steps))[0]


def evolve_pictures(X0: np.ndarray, P0: np.ndarray, hbar: float, mass: float,
                    tau_end: float, steps: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The end states of the Heisenberg and Schrodinger-gauge flows of one pair, stepped together.

    Returns ``((X, P) heisenberg, (X, P) frozen)`` at taubar = tau_end, equal
    bit for bit to :func:`evolve_heisenberg` and to :func:`covariant_evolve`
    under :func:`schrodinger_gauge`.  The frozen system writes Gamma = -H/hbar
    into its connection buffer from the Hamiltonian its stage already computed.
    """
    Y0, rhs, pairs = _commutator_flows(
        X0, P0, hbar, mass, "evolve_pictures", 1,
        lambda t, X, P, H, out: np.multiply(H, -1.0 / hbar, out=out))
    return tuple(pairs(_rk4_end(Y0, rhs, tau_end, steps)))


def schrodinger_gauge(hbar: float, mass: float):
    """The connection Gamma = -H/hbar that makes X and P stationary."""
    return lambda t, X, P: _free_hamiltonian(mass, len(P))(P) * (-1.0 / hbar)


def expectation(s: np.ndarray, target, which: str = "X"):
    """Unitarily covariant expectation value through a state vector.

    which = "X" or "P": <s|M|s> per component of an NSystem (or a bare
    matrix / stack of matrices).  which = "C": the Clifford coordinate
    <s| C^A as a (2, G) coefficient stack.  Any other ``which`` is an InputError.
    """
    if which not in ("X", "P", "C"):
        raise InputError(f"which must be 'X', 'P' or 'C', got {which!r}")
    s = np.asarray(s, dtype=complex)
    if not abs(s @ s.conj() - 1.0) <= DEFAULT.state_norm:
        raise InputError("state vector must have unit norm")
    if which == "C":
        if not isinstance(target, NSystem):
            raise InputError("expectation of C needs an NSystem")
        return _rotate(target.kets, s.conj()[None])[:, 0]
    if isinstance(target, NSystem):
        mats = target.x_matrices() if which == "X" else target.p_matrices()
    else:
        mats = np.asarray(target, dtype=complex)
    if mats.ndim == 2:
        return complex(s.conj() @ mats @ s)
    return np.array([complex(s.conj() @ M @ s) for M in mats])


def evolve_state(s: np.ndarray, gamma: Callable[[float], np.ndarray],
                 tau_end: float, steps: int) -> np.ndarray:
    """Integrate (d/dtau - i Gamma(tau)) |s> = 0 from tau = 0 with RK4; the state at
    tau_end.  The norm is preserved, to the integrator's order, only where Gamma
    is Hermitian."""
    def rhs(t, v, out):
        np.matmul(gamma(t), v, out=out)
        np.multiply(1j, out, out=out)

    return _rk4_end(s, rhs, tau_end, steps)


def truncated_oscillator(nlev: int, mass: float = 1.0, omega: float = 1.0,
                         hbar: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Truncated ladder pair: [X, P] = i hbar (1 - nlev |top><top|).

    The commutator defect lives entirely in the last diagonal entry; every
    interior matrix element satisfies the canonical relation exactly.
    """
    n = np.arange(1, step_count(nlev, "nlev"))
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
