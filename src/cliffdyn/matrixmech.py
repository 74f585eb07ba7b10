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
``(X, P)`` for the matrix flows.  RK4 is exact on the classical flow, which
is affine in tau: its end state is taken in closed form.  The state under a
constant Gamma moves at the constant rate i Gamma.  The Heisenberg flow and
the Schrodinger-gauge flow, frozen under the constant gauge -H(P0)/hbar of
its initial momentum, are two views of one flow, ``evolve_pictures``, whose
Heisenberg pair ``evolve_heisenberg`` returns: both keep H = H(P0) fixed, and
in its eigenbasis every entry of X, of P and of the state that gauge moves
has its own constant rate.  A step then multiplies by RK4's step polynomial
R, and the end state is one power of R, taken by repeated squaring
(``_polynomial_end``).  Only ``covariant_evolve``, whose connection need not
commute with H, steps ``particle.rk4``; no command runs it.  Every matrix
flow and ``NSystem`` take a mass through ``config.positive_mass``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .clifford import GeneratorSpace, hermitian_eig, validate_hermitian
from .config import positive_mass
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
        self.mass = positive_mass(mass)

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


def _finite_end(Y: np.ndarray, states: Callable) -> np.ndarray:
    """Y, the end state of a flow whose steps' states ``states()`` yields, if it is
    finite.  A NaN or Inf entry stays non-finite, so the end decides, and only a
    non-finite end is searched for the first non-finite step, named in an ArithmeticError."""
    if not np.isfinite(Y).all():
        bad = next(k for k, Z in enumerate(states()) if not np.isfinite(Z).all())
        raise ArithmeticError(f"matrix flow produced non-finite values at step {bad}")
    return Y


def evolve_matrix_classical(sys: NSystem, tau_end: float, steps: int) -> tuple[np.ndarray, ...]:
    """Proper-time flow dX^mu = P^mu/m, dP = 0 of Tr H with H = (P.P - m^2 1)/(2m);
    the (4, N, N) stacks ``(X, P)`` at tau_end.

    RK4 is exact here: k steps of h = tau_end/steps take X to X0 + (k h) P^mu/m,
    whose modulus is convex in k, so only a non-finite end is stepped through.
    """
    steps = step_count(steps)
    h = tau_end / steps
    X0, P = sys.x_matrices(), sys.p_matrices()
    V = np.einsum("mn,nij->mij", ETA, P) / sys.mass     # P^mu / m, non-finite where P is
    X = X0 + (steps * h) * V
    return _finite_end(X, lambda: (X0 + (k * h) * V for k in range(1, steps + 1))), P


def _free_hamiltonian(P: np.ndarray, mass: float) -> np.ndarray:
    """H = (P.P - m^2 1)/(2m) of an n x n momentum matrix P."""
    # * (0.5 / mass): the values numpy gives for / (2.0 * mass)
    return (P @ P - mass ** 2 * np.eye(len(P), dtype=complex)) * (0.5 / mass)


def _polynomial_power(D, k: int, mul: Callable):
    """R^k - 1 for R = 1 + D by repeated squaring in the product ``mul``, the 1
    kept exact: (1 + A)(1 + B) - 1 = A + B + A B rounds relative to |A B|, not
    to 1, in each of at most 2 (k.bit_length() - 1) products."""
    P = None
    while True:
        if k & 1:
            P = D if P is None else P + D + mul(P, D)
        k >>= 1
        if not k:
            return P
        D = D + D + mul(D, D)


def _polynomial_end(Y0, rate, tau_end: float, steps: int, mul=np.multiply, one=1.0):
    """The RK4 state at tau_end of dY/dtau = ``rate`` Y from Y0 at tau = 0: ``rate``
    holds each entry's own rate, or is a matrix, with ``mul=np.matmul`` and its
    identity as ``one``.  One RK4 step is then exactly Y <- R(h rate) Y with
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 (Hairer, Norsett & Wanner, II.1), so
    k steps give Y0 + (R^k - 1) Y0, which a non-finite end evaluates at each k
    (:func:`_finite_end`)."""
    steps = step_count(steps)
    z = (tau_end / steps) * rate
    D = mul(z, one + mul(z, 0.5 * one + mul(z, one / 6 + z / 24)))
    state = lambda k: Y0 + mul(_polynomial_power(D, k, mul), Y0)
    return _finite_end(state(steps), lambda: map(state, range(1, steps + 1)))


def evolve_heisenberg(X0: np.ndarray, P0: np.ndarray, hbar: float, mass: float,
                      tau_end: float, steps: int) -> tuple[np.ndarray, ...]:
    """Heisenberg flow dX = [X,H]/(i hbar), dP = [P,H]/(i hbar) = 0; ``(X, P)`` at tau_end,
    with P returned equal to P0: the Heisenberg pair of :func:`evolve_pictures`."""
    return evolve_pictures(X0, P0, hbar, mass, tau_end, steps)[0]


def covariant_evolve(X0: np.ndarray, P0: np.ndarray, hbar: float, mass: float,
                     gamma: Callable[[float, np.ndarray, np.ndarray], np.ndarray],
                     tau_end: float, steps: int) -> tuple[np.ndarray, ...]:
    """Gauge-covariant flow dX = i[Gamma, X] + [X, H]/(i hbar), dP = i[Gamma, P];
    ``(X, P)`` at tau_end.

    ``gamma(taubar, X, P)`` returns the Hermitian connection, checked by
    ``validate_hermitian`` at every stage; X and P are views of a reused
    buffer.  An arbitrary Gamma need not commute with H, so this flow steps
    the matrices themselves with ``particle.rk4``.  Gamma = 0 reproduces
    :func:`evolve_heisenberg` up to rounding; Gamma = -H/hbar cancels the
    commutators and freezes X and P (the Schrodinger picture).

    H = (P.P - m^2 1)/(2m) is a function of P, so [P, H] = 0 and P moves only
    under Gamma: its Hamiltonian commutator, pure rounding noise, is never
    formed.  X0 and P0 must be Hermitian (``validate_hermitian``, else
    InputError).  X, P and H stay Hermitian, so H X = (X H)^dagger and
    [X, H] = A - A^dagger with A = X H: one product per commutator; likewise
    Gamma Y - Y Gamma = B - B^dagger with B = Gamma Y for Y = X, P.  Either
    difference is anti-Hermitian entry by entry, however A and B were
    rounded, so the flow keeps X and P exactly Hermitian.
    """
    if not hbar > 0:
        raise PreconditionError("covariant_evolve requires hbar > 0")
    mass = positive_mass(mass)
    X0, P0 = validate_hermitian(X0), validate_hermitian(P0)
    steps = step_count(steps)
    scale = -1j / hbar          # the values numpy gives for / (1j * hbar)

    def rhs(t, Y, dY):
        B = validate_hermitian(gamma(t, *Y)) @ Y
        A = Y[0] @ _free_hamiltonian(Y[1], mass)
        iB = (B - B.conj().swapaxes(-1, -2)) * 1j
        dY[0] = (A - A.conj().T) * scale + iB[0]
        dY[1] = iB[1]

    run = lambda: rk4(rhs, np.stack((X0, P0)), 0.0, tau_end / steps, steps)
    *_, Y = run()
    return tuple(_finite_end(Y, run))


def evolve_pictures(X0: np.ndarray, P0: np.ndarray, hbar: float, mass: float,
                    tau_end: float, steps: int, state: np.ndarray | None = None) -> tuple:
    """The end states of the Heisenberg and Schrodinger-gauge flows of one pair, stepped together.

    Returns ``((X, P) heisenberg, (X, P) frozen)`` at taubar = tau_end, and
    then, if ``state`` is given, that state evolved by (d/dtau - i Gamma) s = 0.

    H(P0) = V diag(E) V^dagger, from ``clifford.hermitian_eig`` once per run.
    The Heisenberg pair's P stays P0, and H with it, so in that basis
    [X, H]/(i hbar) is elementwise: X~_ij moves at (E_j - E_i)/(i hbar).  The
    frozen pair steps X and P alike, dY = i[Gamma, Y] + [Y, H]/(i hbar), under
    the gauge Gamma = -H(P0)/hbar of its initial momentum, which the exact
    flow keeps at P0.  That Gamma commutes with H, so i[Gamma, Y]_ij =
    Y_ij i(g_i - g_j) with g = -E/hbar, and the frozen pair's rate is the sum
    of the two tables: 0 wherever g_i - g_j rounds to (E_j - E_i)/hbar, and at
    hbar = 1 everywhere.  P~ = V^dagger P0 V is diagonal only up to rounding,
    so the frozen P~ is stepped too.  The state s, rotated to V^dagger s,
    moves at i g_i.  RK4 on a linear flow takes the same steps in any basis,
    up to rounding.

    Every system is one flat state (:func:`_polynomial_end`), so a failed run
    names the first step at which any is non-finite.  The matrices are
    rotated back as the Hermitian part of V Y~ V^dagger, so they are exactly
    Hermitian, and the Heisenberg P is P0 itself.  X0 and P0 must be Hermitian
    (``validate_hermitian``, else InputError), and the state a vector of their
    size.  The frozen pair agrees up to rounding with the stage-form
    :func:`covariant_evolve` under :func:`schrodinger_gauge`.
    """
    if not hbar > 0:
        raise PreconditionError("the matrix flows require hbar > 0")
    mass = positive_mass(mass)
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
    g = E * (-1.0 / hbar)
    frozen = heisenberg + 1j * (g[:, None] - g[None, :])
    Y0 = [(Vh @ np.stack((X0, X0, P0)) @ V).ravel()]
    rates = [heisenberg.ravel(), frozen.ravel(), frozen.ravel()]
    if state is not None:
        s = np.asarray(state, dtype=complex)
        if s.shape != (n,):
            raise InputError(f"state must be a vector of length {n}, got shape {s.shape}")
        Y0.append(Vh @ s)
        rates.append(1j * g)
    Y = _polynomial_end(np.concatenate(Y0), np.concatenate(rates), tau_end, steps)
    B = V @ Y[:3 * n * n].reshape(3, n, n) @ Vh
    X, Xf, Pf = 0.5 * B + 0.5 * B.conj().swapaxes(-1, -2)
    ends = (X, P0), (Xf, Pf)
    return ends if state is None else (*ends, V @ Y[3 * n * n:])


def schrodinger_gauge(hbar: float, mass: float):
    """The connection Gamma = -H/hbar that makes X and P stationary."""
    return lambda t, X, P: _free_hamiltonian(P, mass) * (-1.0 / hbar)


def expectation(s: np.ndarray, target, which: str = "X"):
    """Unitarily covariant expectation value through a state vector.

    which = "X" or "P": <s|M|s> per component of an NSystem or of a bare N x N
    matrix or stack of them; "C": the Clifford coordinate <s| C^A as a (2, G)
    coefficient stack.  Any other ``which``, a bare target that is not an N x N matrix
    or a stack of them, or an s not of shape (N,), is an InputError.
    """
    if which not in ("X", "P", "C"):
        raise InputError(f"which must be 'X', 'P' or 'C', got {which!r}")
    if which == "C" and not isinstance(target, NSystem):
        raise InputError("expectation of C needs an NSystem")
    if not isinstance(target, NSystem):
        mats = np.asarray(target, dtype=complex)
        if mats.ndim not in (2, 3) or mats.shape[-2] != mats.shape[-1]:
            raise InputError(f"target must be an N x N matrix or a stack of them, "
                             f"got shape {mats.shape}")
    s = np.asarray(s, dtype=complex)
    n = target.n if isinstance(target, NSystem) else mats.shape[-1]
    if s.shape != (n,):
        raise InputError(f"state must be a vector of length {n}, got shape {s.shape}")
    if not abs(s @ s.conj() - 1.0) <= DEFAULT.state_norm:
        raise InputError("state vector must have unit norm")
    if which == "C":
        return _rotate(target.kets, s.conj()[None])[:, 0]
    if isinstance(target, NSystem):
        mats = target.x_matrices() if which == "X" else target.p_matrices()
    if mats.ndim == 2:
        return complex(s.conj() @ mats @ s)
    return np.array([complex(s.conj() @ M @ s) for M in mats])


def evolve_state(s: np.ndarray, gamma: np.ndarray, tau_end: float, steps: int) -> np.ndarray:
    """Integrate (d/dtau - i Gamma) |s> = 0 under a constant n x n connection ``gamma``
    from tau = 0 with RK4 (:func:`_polynomial_end`); the n-vector s at tau_end.  The
    norm is preserved, to the integrator's order, only where Gamma is Hermitian."""
    s, G = np.asarray(s, dtype=complex), np.asarray(gamma, dtype=complex)
    if s.ndim != 1 or G.shape != (len(s), len(s)):
        raise InputError(f"gamma must be n x n for a state vector of length n, "
                         f"got shapes {G.shape} and {s.shape}")
    return _polynomial_end(s, 1j * G, tau_end, steps, np.matmul, np.eye(len(s)))


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
