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
vector, so ``evolve_state`` takes that constant Gamma as a matrix.  Every
flow takes fixed RK4 steps to tau_end and returns only its state there,
``(X, P)`` for the matrix flows.  The Heisenberg flow and the
Schrodinger-gauge flow, frozen under the constant gauge -H(P0)/hbar of its
initial momentum, keep H = H(P0) fixed and are stepped in its eigenbasis,
where every commutator they take is elementwise, and so is the state that
gauge moves: each entry has a constant rate, and each RK4 step is exactly
a multiply by RK4's step polynomial R, taken as Y + Y (R - 1)
(``_polynomial_end``).  The other flows step ``particle.rk4``;
``covariant_evolve``, whose connection need not commute with H, steps the
matrices themselves.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .clifford import GeneratorSpace, hermitian_eig, validate_hermitian
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
    """Kets C^A and bras D_A for N particles, and the matrices they give.

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
        return np.einsum("mab,abij->mij", DX_UP, self.x_spin())

    def p_matrices(self) -> np.ndarray:
        """Covariant momentum matrices P_mu, shape (4, N, N)."""
        return np.einsum("mab,abij->mij", DP_DOWN, self.p_spin())

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


def _free_hamiltonian(P: np.ndarray, mass: float) -> np.ndarray:
    """H = (P.P - m^2 1)/(2m) of an n x n momentum matrix P."""
    # * (0.5 / mass): the values numpy gives for / (2.0 * mass)
    return (P @ P - mass ** 2 * np.eye(len(P), dtype=complex)) * (0.5 / mass)


def _commutator_flows(X0: np.ndarray, P0: np.ndarray, hbar: float, mass: float,
                      gamma: Callable):
    """``(Y0, rhs, pairs)`` for one RK4 of the Hermitian pair (X0, P0) under the
    connection ``gamma(t, X, P)``, checked Hermitian at every stage.

    The pair follows dX = i[Gamma, X] + [X, H]/(i hbar) and dP = i[Gamma, P].
    H = (P.P - m^2 1)/(2m) is a function of P, so [P, H] = 0 and P moves only
    under Gamma: its Hamiltonian commutator, pure rounding noise, is never
    formed.  The state Y is the pair itself, and ``pairs(Y)`` returns
    ``[(X, P)]``.

    X0 and P0 must be Hermitian (``validate_hermitian``, else InputError).
    X, P and H stay Hermitian, so H X = (X H)^dagger and [X, H] = A - A^dagger
    with A = X H: one product per commutator; likewise Gamma Y - Y Gamma =
    B - B^dagger with B = Gamma Y for Y = X, P.  Either difference is
    anti-Hermitian entry by entry, however A and B were rounded, so the flow
    keeps X and P exactly Hermitian.
    """
    if not hbar > 0:
        raise PreconditionError("covariant_evolve requires hbar > 0")
    X0, P0 = validate_hermitian(X0), validate_hermitian(P0)
    scale = -1j / hbar          # the values numpy gives for / (1j * hbar)

    def rhs(t, Y, dY):
        B = validate_hermitian(gamma(t, *Y)) @ Y
        A = Y[0] @ _free_hamiltonian(Y[1], mass)
        iB = (B - B.conj().swapaxes(-1, -2)) * 1j
        dY[0] = (A - A.conj().T) * scale + iB[0]
        dY[1] = iB[1]

    return np.stack((X0, P0)), rhs, lambda Y: [tuple(Y)]


def _eigenbasis_flows(X0: np.ndarray, P0: np.ndarray, hbar: float, mass: float, name: str,
                      gauge: Callable | None = None, state: np.ndarray | None = None):
    """``(Y0, rates, unpack)`` for :func:`_polynomial_end`: the Hermitian pair
    (X0, P0) in the eigenbasis of H = H(P0), where every entry moves at its own
    constant rate.  The Heisenberg system comes first; if ``gauge`` is given, a
    frozen system under the constant connection Gamma = V diag(``gauge(E)``) V^dagger
    follows, and then, if ``state`` is given too, the state that Gamma moves.

    H(P0) = V diag(E) V^dagger, from ``clifford.hermitian_eig`` once per flow.
    The Heisenberg system's P stays P0, and H with it, so in that basis
    [X, H]/(i hbar) is elementwise: X~_ij moves at (E_j - E_i)/(i hbar).  The
    frozen system steps X and P alike, dY = i[Gamma, Y] + [Y, H]/(i hbar), under
    the gauge of its initial momentum, which the exact flow keeps at P0.  That
    Gamma commutes with H, so i[Gamma, Y]_ij = Y_ij i(g_i - g_j) with g = gauge(E),
    and the frozen system's rate is the sum of the two tables.  Under
    Gamma = -H/hbar that sum is 0 wherever g_i - g_j rounds to (E_j - E_i)/hbar,
    and at hbar = 1 it does everywhere.  P~ = V^dagger P0 V is diagonal only up
    to rounding, so the frozen P~ is stepped too.  The state s, rotated to
    V^dagger s, moves at i g_i, since (d/dtau - i Gamma) s = 0.  RK4 on a linear
    flow takes the same steps in any basis, up to rounding.

    Y0 holds each system's X~ = V^dagger X V, then the frozen system's P~, each
    raveled, then the rotated state.  ``unpack(Y)`` returns each system's
    (X, P), the Heisenberg one first with P0 itself, then the state if there
    is one; each matrix is rotated back as the Hermitian part of
    V Y~ V^dagger, so it is exactly Hermitian.  X0 and P0 must be Hermitian
    (``validate_hermitian``, else InputError), and the state a vector of their size.
    """
    if not hbar > 0:
        raise PreconditionError(f"{name} requires hbar > 0")
    X0, P0 = validate_hermitian(X0), validate_hermitian(P0)
    n = len(X0)
    H = _free_hamiltonian(P0, mass)
    if np.isfinite(H).all():
        V, E = hermitian_eig(H)
    else:       # no eigenbasis: NaN makes step 0 non-finite, and _polynomial_end names it
        V, E = np.full((n, n), np.nan, dtype=complex), np.full(n, np.nan)
    Vh = V.conj().T
    # [X, H] / (i hbar), in the values numpy gives for / (1j * hbar)
    heisenberg = (E[None, :] - E[:, None]) * (-1j / hbar)
    matrices, tables = (X0,), (heisenberg,)
    if gauge is not None:
        g = gauge(E)
        frozen = heisenberg + 1j * (g[:, None] - g[None, :])
        matrices, tables = (X0, X0, P0), (heisenberg, frozen, frozen)
    Y0 = [(Vh @ M @ V).ravel() for M in matrices]
    rates = [table.ravel() for table in tables]
    if gauge is not None and state is not None:
        s = np.asarray(state, dtype=complex)
        if s.shape != (n,):
            raise InputError(f"state must be a vector of length {n}, got shape {s.shape}")
        Y0.append(Vh @ s)
        rates.append(1j * g)
    end = len(matrices) * n * n         # where the matrices stop and the state starts

    def back(M):
        B = V @ M @ Vh
        return 0.5 * B + 0.5 * B.conj().T

    def unpack(Y):
        X = Y[:end].reshape(len(matrices), n, n)
        systems = [(back(X[0]), P0)]
        if gauge is not None:
            systems.append((back(X[1]), back(X[2])))
        if len(Y) > end:
            systems.append(V @ Y[end:])
        return systems

    return np.concatenate(Y0), np.concatenate(rates), unpack


def _polynomial_steps(Y: np.ndarray, D: np.ndarray, steps: int):
    """Add Y * D to Y in place ``steps`` times, yielding Y after each step."""
    work = np.empty_like(Y)
    for _ in range(steps):
        yield np.add(Y, np.multiply(Y, D, out=work), out=Y)


def _polynomial_end(Y0, rates, tau_end: float, steps: int) -> np.ndarray:
    """The RK4 state at tau_end of dY/dtau = ``rates`` * Y, entry by entry, from Y0 at tau = 0.

    Under a constant elementwise rate one RK4 step is exactly Y <- R(h rates) Y
    with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 (Hairer, Norsett & Wanner, II.1).
    D = R - 1 is made once and every one of the ``steps`` steps is
    Y <- Y + Y D, with no stage.  The 1 stays exact: a multiply by R itself
    would repeat R's own rounding at every step, an error that grows with the
    step count, where the increment's rounding is relative to |Y D| only.
    RK4's stages form slopes 1/h times the step's size, so they can overflow a
    step before this form does; a run that ends non-finite is stepped again in
    that stage form by :func:`_rk4_end`, which names its first bad step (or,
    should the stages all stay finite, returns their end state).
    """
    steps = step_count(steps)
    z = (tau_end / steps) * rates
    D = z * (1 + z * (0.5 + z * (1 / 6 + z / 24)))
    Y = np.array(Y0, dtype=complex)
    for Y in _polynomial_steps(Y, D, steps):
        pass
    if np.isfinite(Y).all():
        return Y
    return _rk4_end(Y0, lambda t, Y, dY: np.multiply(Y, rates, out=dY), tau_end, steps)


def evolve_heisenberg(X0: np.ndarray, P0: np.ndarray, hbar: float, mass: float,
                      tau_end: float, steps: int) -> tuple[np.ndarray, ...]:
    """Heisenberg flow dX = [X,H]/(i hbar), dP = [P,H]/(i hbar) = 0; ``(X, P)`` at tau_end,
    with P returned equal to P0.

    H = H(P0) is fixed, so X is stepped in its eigenbasis, where the
    commutator is elementwise (:func:`_eigenbasis_flows`).
    """
    Y0, rates, unpack = _eigenbasis_flows(X0, P0, hbar, mass, "evolve_heisenberg")
    return unpack(_polynomial_end(Y0, rates, tau_end, steps))[0]


def covariant_evolve(X0: np.ndarray, P0: np.ndarray, hbar: float, mass: float,
                     gamma: Callable[[float, np.ndarray, np.ndarray], np.ndarray],
                     tau_end: float, steps: int) -> tuple[np.ndarray, ...]:
    """Gauge-covariant flow dX = i[Gamma, X] + [X, H]/(i hbar), dP = i[Gamma, P];
    ``(X, P)`` at tau_end.

    ``gamma(taubar, X, P)`` returns the Hermitian connection, checked by
    ``validate_hermitian`` at every stage; X and P are views of a reused
    buffer.  An arbitrary Gamma need not commute with H, so this flow steps
    the matrices themselves.  Gamma = 0 reproduces :func:`evolve_heisenberg`
    up to rounding; Gamma = -H/hbar cancels the commutators and freezes X and
    P (the Schrodinger picture).
    """
    Y0, rhs, pairs = _commutator_flows(X0, P0, hbar, mass, gamma)
    return pairs(_rk4_end(Y0, rhs, tau_end, steps))[0]


def evolve_pictures(X0: np.ndarray, P0: np.ndarray, hbar: float, mass: float,
                    tau_end: float, steps: int, state: np.ndarray | None = None) -> tuple:
    """The end states of the Heisenberg and Schrodinger-gauge flows of one pair, stepped together.

    Returns ``((X, P) heisenberg, (X, P) frozen)`` at taubar = tau_end, and
    then, if ``state`` is given, that state evolved by (d/dtau - i Gamma) s = 0.
    Every system is stepped in the eigenbasis of H(P0), one multiply and one
    add a step (:func:`_eigenbasis_flows`, :func:`_polynomial_end`): the Heisenberg pair
    equals :func:`evolve_heisenberg` bit for bit; the frozen pair steps under
    the constant gauge Gamma = -H(P0)/hbar of its initial momentum, which
    agrees with :func:`covariant_evolve` under :func:`schrodinger_gauge` up to
    rounding, and so does the state with :func:`evolve_state` under that Gamma.
    """
    Y0, rates, unpack = _eigenbasis_flows(X0, P0, hbar, mass, "evolve_pictures",
                                          lambda E: E * (-1.0 / hbar), state)
    return tuple(unpack(_polynomial_end(Y0, rates, tau_end, steps)))


def schrodinger_gauge(hbar: float, mass: float):
    """The connection Gamma = -H/hbar that makes X and P stationary."""
    return lambda t, X, P: _free_hamiltonian(P, mass) * (-1.0 / hbar)


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


def evolve_state(s: np.ndarray, gamma: np.ndarray, tau_end: float, steps: int) -> np.ndarray:
    """Integrate (d/dtau - i Gamma) |s> = 0 under the constant connection ``gamma``
    from tau = 0 with RK4; the state at tau_end.  The norm is preserved, to the
    integrator's order, only where Gamma is Hermitian."""
    G = np.asarray(gamma, dtype=complex)

    def rhs(t, v, out):
        np.matmul(G, v, out=out)
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
