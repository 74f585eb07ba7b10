"""N-particle assembly, gauge covariance, and quantum matrix evolution."""

import functools
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from cliffdyn import matrixmech
from cliffdyn.clifford import allocate_blocks, hermitian_eig, resolve_pair
from cliffdyn.errors import InputError, PreconditionError
from cliffdyn.matrixmech import (
    assemble,
    born_sample,
    covariant_evolve,
    evolve_heisenberg,
    evolve_matrix_classical,
    evolve_pictures,
    evolve_state,
    expectation,
    gauge_transform,
    nonrelativistic_rate,
    schrodinger_gauge,
    truncated_oscillator,
)
from cliffdyn.particle import ParticleState, constant_einbein, integrate, rk4
from cliffdyn.sampling import random_hermitian, random_unitary
from cliffdyn.spinors import ETA, covec_to_spinor_down, vec_to_spinor
from reference_rk4 import textbook_rk4

MASS = 1.0


def _system(n=3, mu=0.6, seed=0):
    blocks = []
    for i in range(n):
        blocks += [(f"c{i}", 4, 4), (f"d{i}", 4, 4), (f"h{i}", 4, 4)]
    space = allocate_blocks(blocks)
    rng = np.random.default_rng(seed)
    states = []
    for i in range(n):
        x = rng.uniform(-1, 1, 4)
        sp = rng.uniform(-0.3, 0.3, 3)
        p = np.array([np.sqrt(MASS ** 2 + sp @ sp), *sp])
        C, D, _ = resolve_pair(vec_to_spinor(x), covec_to_spinor_down(p),
                               mu * np.eye(2), space,
                               labels=(f"c{i}", f"d{i}", f"h{i}"))
        states.append(ParticleState(np.concatenate((C, D)), space, MASS))
    return assemble(states), states


# -- assembly -----------------------------------------------------------------

def test_assemble_single_particle_reduces():
    sys1, states = _system(n=1)
    assert np.abs(sys1.x_matrices()[:, 0, 0].real - states[0].x_vec()).max() < 1e-13
    assert np.abs(sys1.p_matrices()[:, 0, 0].real - states[0].p_vec()).max() < 1e-13


def test_assemble_diagonal_and_commuting():
    sys3, states = _system(n=3)
    X, P = sys3.x_matrices(), sys3.p_matrices()
    for mu in range(4):
        assert np.abs(X[mu] - np.diag(np.diag(X[mu]))).max() == 0.0
        assert np.abs(X[mu] - X[mu].conj().T).max() < 1e-12
        assert np.abs(P[mu] - P[mu].conj().T).max() < 1e-12
    expected = np.array([st.x_vec()[0] for st in states])
    assert np.allclose(np.diag(X[0]).real, expected)
    for a in range(4):
        for b in range(4):
            assert np.abs(X[a] @ X[b] - X[b] @ X[a]).max() == 0.0
            assert np.abs(X[a] @ P[b] - P[b] @ X[a]).max() == 0.0
            assert np.abs(P[a] @ P[b] - P[b] @ P[a]).max() == 0.0


def test_assemble_rejects_overlapping_blocks():
    space = allocate_blocks([("c0", 4, 4), ("d0", 4, 4), ("h0", 4, 4)])
    C, D, _ = resolve_pair(np.eye(2), np.eye(2), np.zeros((2, 2)), space,
                           labels=("c0", "d0", "h0"))
    st = ParticleState(np.concatenate((C, D)), space, MASS)
    with pytest.raises(PreconditionError):
        assemble([st, st])


def test_assemble_requires_common_mass():
    sys1, states = _system(n=1)
    other = ParticleState(states[0].packed(), states[0].space, 2 * MASS)
    with pytest.raises(InputError):
        assemble([states[0], other])


# -- gauge transformations -----------------------------------------------------

def _combine(rows, weights):
    # the per-row rotation the (2, N, G) stack code replaced
    acc = np.zeros(rows[0].shape, dtype=complex)
    for w, row in zip(weights, rows):
        acc += w * row
    return acc


def _assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a.view(float)), np.signbit(b.view(float)))


@pytest.mark.parametrize("n,seed", [(1, 2), (3, 5), (4, 11)])
def test_gauge_transform_matches_per_vector_combine(n, seed):
    sys_n, states = _system(n=n, seed=seed)
    U = random_unitary(np.random.default_rng(seed), n)
    out = gauge_transform(sys_n, U)
    for a in range(2):
        kets = [st.packed()[a] for st in states]
        bras = [st.packed()[2 + a] for st in states]
        _assert_same_bits(out.kets[a], np.stack([_combine(kets, U[i, :]) for i in range(n)]))
        _assert_same_bits(out.bras[a],
                          np.stack([_combine(bras, U.conj()[i, :]) for i in range(n)]))
    s = U[:, 0]
    for a, crow in enumerate(expectation(s, sys_n, "C")):
        _assert_same_bits(crow, _combine([st.packed()[a] for st in states], s.conj()))

def test_gauge_transform_similarity_and_constraint():
    sys3, _ = _system(n=3, mu=0.6)
    rng = np.random.default_rng(5)
    U = random_unitary(rng, 3)
    out = gauge_transform(sys3, U)
    X, P = sys3.x_matrices(), sys3.p_matrices()
    for mu in range(4):
        assert np.abs(out.x_matrices()[mu] - U @ X[mu] @ U.conj().T).max() < 1e-11
        assert np.abs(out.p_matrices()[mu] - U @ P[mu] @ U.conj().T).max() < 1e-11
    CD = out.constraint_matrix()
    target = 0.6 * np.einsum("ab,ij->abij", np.eye(2), np.eye(3))
    assert np.abs(CD - target).max() < 1e-11


def test_gauge_transform_identity_fixed_point():
    sys3, _ = _system(n=2)
    out = gauge_transform(sys3, np.eye(2))
    assert np.abs(out.x_matrices() - sys3.x_matrices()).max() == 0.0


def test_gauge_transform_rejects_non_unitary():
    sys3, _ = _system(n=2)
    with pytest.raises(InputError):
        gauge_transform(sys3, np.diag([1.0, 2.0]))


def test_gauge_transform_rejects_nan_unitary():
    sys3, _ = _system(n=2)
    with pytest.raises(InputError):
        gauge_transform(sys3, np.array([[1.0, 0.0], [0.0, np.nan]]))


# -- classical evolution ---------------------------------------------------------

U = np.finfo(float).eps / 2         # unit roundoff


def _eta_slope(P):
    """The classical flow's slope eta P/m, as the flow forms it."""
    return np.einsum("mn,nij->mij", ETA, P) / MASS


def _classical_gap_ratio(system, tau_end, steps, slope):
    """The worst ratio of the gap between evolve_matrix_classical's X and the
    reference X0 + tau_end ``slope(P0)``, over the real and imaginary parts of
    every entry, to its rounding bound.

    Both sides form x0 + t v part by part, with v = eta P/m: numpy divides a
    complex array by m through 1/m, two roundings; the einsum with eta's
    entries 0 and +-1 is exact.  The flow rounds v twice, its t = steps
    (tau_end/steps) twice, and the product and the sum once each; the
    reference rounds v twice, t v and the sum once each.  To first order in
    the unit roundoff u the two differ by at most u (2 |x0| + 10 |t v|); one
    more u |t v| covers the second-order terms.
    """
    X0, P0 = system.x_matrices(), system.p_matrices()
    X, P = evolve_matrix_classical(system, tau_end, steps)
    assert np.array_equal(P, P0)
    tv = _eta_slope(P0) * tau_end
    gap = np.abs((X - (X0 + slope(P0) * tau_end)).view(float))
    bound = U * (2 * np.abs(X0.view(float)) + 11 * np.abs(tv.view(float)))
    return float(np.max(np.divide(gap, bound, out=np.where(gap > 0, np.inf, 0.0),
                                  where=bound > 0)))


def _rotated_system(seed=9):
    """The three-particle system under a random U(3): dense complex X and P."""
    sys3, _ = _system(n=3)
    return gauge_transform(sys3, random_unitary(np.random.default_rng(seed), 3))


def test_classical_flow_affine_in_taubar():
    # at 0.1 / 11 and -2.9 / 300, steps (tau_end/steps) is not tau_end; the
    # worst ratio reads about 0.6 there, and 0 where both sides round alike
    for system in (_system(n=3)[0], _rotated_system()):
        for tau_end, steps in ((1.5, 300), (0.1, 11), (-2.9, 300)):
            assert _classical_gap_ratio(system, tau_end, steps, _eta_slope) <= 1.0


@pytest.mark.parametrize("slope", [lambda P: P / MASS, lambda P: _eta_slope(P) / 2],
                         ids=["eta-dropped", "half-rate"])
def test_classical_flow_bound_rejects_a_wrong_slope(slope):
    assert _classical_gap_ratio(_rotated_system(), 1.5, 300, slope) > 1e6


def test_classical_flow_names_the_first_non_finite_step():
    sys3, _ = _system(n=3)
    bras = sys3.bras.copy()
    bras[0, 1, np.flatnonzero(bras[0, 1])[0]] = np.nan
    poisoned = matrixmech.NSystem(sys3.space, sys3.kets, bras, MASS)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ArithmeticError, match="at step 0$"):
            evolve_matrix_classical(poisoned, 1.0, 10)
    # bras scaled by 1e153 give |P| ~ 1e306: X crosses the float limit part-way
    # through 400 unit steps, while RK4's stage sum, 6 |P|/m, stays finite
    heavy = matrixmech.NSystem(sys3.space, sys3.kets, 1e153 * sys3.bras, MASS)
    X0, P0 = heavy.x_matrices(), heavy.p_matrices()
    V = _eta_slope(P0)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.stack(list(textbook_rk4(lambda t, X: V, X0, 0.0, 1.0, 400)))
        first = int(np.argmin(np.isfinite(rows).reshape(400, -1).all(axis=1)))
        assert 0 < first < 399
        with pytest.raises(ArithmeticError, match=f"at step {first}$"):
            evolve_matrix_classical(heavy, 400.0, 400)


def test_classical_eigenvalues_are_particle_trajectories():
    sys3, states = _system(n=3)
    X, _ = evolve_matrix_classical(sys3, 1.0, 200)
    eigs = np.sort(np.linalg.eigvalsh(X[0]))
    direct = np.sort([st.x_vec()[0] + (ETA @ st.p_vec())[0] / MASS for st in states])
    assert np.abs(eigs - direct).max() < 1e-9


def test_classical_flow_commutes_with_gauge():
    sys3, _ = _system(n=3)
    rng = np.random.default_rng(9)
    U = random_unitary(rng, 3)
    Xa, _ = evolve_matrix_classical(gauge_transform(sys3, U), 1.0, 100)
    Xb, _ = evolve_matrix_classical(sys3, 1.0, 100)
    rotated = np.stack([U @ Xb[mu] @ U.conj().T for mu in range(4)])
    assert np.abs(Xa - rotated).max() < 1e-10


# -- quantum sector ---------------------------------------------------------------

@pytest.mark.parametrize("nlev", [0, -3, 2.5, True])
def test_truncated_oscillator_needs_a_positive_integer_level_count(nlev):
    with pytest.raises(InputError, match=r"^nlev must be a positive integer, got "):
        truncated_oscillator(nlev)
    assert truncated_oscillator(np.int64(3))[0].shape == (3, 3)


def test_truncated_oscillator_commutator_support():
    X, P = truncated_oscillator(20, hbar=1.0)
    comm = X @ P - P @ X
    defect = comm - 1j * np.eye(20)
    # support only in the last diagonal entry
    defect[19, 19] = 0.0
    assert np.abs(defect).max() < 1e-13
    assert np.abs(X - X.conj().T).max() == 0.0
    assert np.abs(P - P.conj().T).max() == 0.0


def _hermiticity(*mats):
    """max |M - M^dagger| over the matrices; a NaN entry makes it NaN."""
    return np.max([np.abs(M - M.conj().T).max() for M in mats])


@functools.cache
def _heisenberg_10k():
    """The 10^4-step Heisenberg flow of the 20-level oscillator to taubar = 0.4,
    run once under tracemalloc: (X, P, peak traced bytes)."""
    X0, P0 = truncated_oscillator(20, hbar=1.0)
    tracemalloc.start()
    try:
        X, P = evolve_heisenberg(X0, P0, 1.0, MASS, 0.4, 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return X, P, peak


def test_heisenberg_flow_keeps_no_steps():
    # 10^4 stored (2, 20, 20) complex steps would take 128 MB; the end state,
    # the RK4 stages and the flow's buffers take about 0.09 MB
    assert _heisenberg_10k()[2] < 1e6


def test_heisenberg_momentum_frozen_commutator_unitary_equivalent():
    X0, P0 = truncated_oscillator(20, hbar=1.0)
    taubar = 0.4
    X, P, _ = _heisenberg_10k()
    assert np.abs(P - P0).max() < 1e-13
    assert _hermiticity(X, P) == 0.0
    # the conserved object: [X, P] evolves by the similarity exp(i H taubar / hbar);
    # oracle built from an independent eigendecomposition of H
    H = (P0 @ P0 - MASS ** 2 * np.eye(20)) / (2 * MASS)
    w, V = np.linalg.eigh(H)
    U = (V * np.exp(1j * w * taubar)) @ V.conj().T
    comm0 = X0 @ P0 - P0 @ X0
    commT = X @ P - P @ X
    assert np.abs(commT - U @ comm0 @ U.conj().T).max() < 1e-9
    # spectrum of the commutator is exactly conserved
    assert np.abs(np.sort(np.linalg.eigvalsh(commT / 1j))
                  - np.sort(np.linalg.eigvalsh(comm0 / 1j))).max() < 1e-9


def test_covariant_gamma_zero_matches_heisenberg():
    # the Heisenberg flow steps in H's eigenbasis, the covariant flow the
    # matrices: the same RK4 steps up to rounding
    X0, P0 = truncated_oscillator(12, hbar=1.0)
    Xa, _ = evolve_heisenberg(X0, P0, 1.0, MASS, 0.5, 500)
    Xb, _ = covariant_evolve(X0, P0, 1.0, MASS, lambda t, X, P: np.zeros_like(X0), 0.5, 500)
    assert np.abs(Xa - Xb).max() <= 1e-14 * max(1.0, np.abs(Xb).max())


def test_schrodinger_gauge_freezes_matrices():
    X0, P0 = truncated_oscillator(20, hbar=1.0)
    X, P = covariant_evolve(X0, P0, 1.0, MASS, schrodinger_gauge(1.0, MASS), 1.0, 1000)
    assert np.abs(X - X0).max() < 1e-9
    assert np.abs(P - P0).max() < 1e-9


def _commutator_slope(hbar, gamma=None):
    """Reference slope (t, Y) -> dY of one pair Y = (X, P): i[G, Y] + [Y, H]/(i hbar)
    for both X and P, each commutator from two products, with G = ``gamma(t, X, P)``
    or 0 for None (the Heisenberg picture).  [P, H] vanishes only up to rounding.
    Y may be a stack of pairs, (..., 2, N, N), and t an array that broadcasts
    against a stack of matrices."""
    def slope(t, Y):
        X, P = Y[..., 0, :, :], Y[..., 1, :, :]
        H = ((P @ P - MASS ** 2 * np.eye(Y.shape[-1])) / (2.0 * MASS))[..., None, :, :]
        commutator = (Y @ H - H @ Y) / (1j * hbar)
        if gamma is None:
            return commutator
        G = gamma(t, X, P)[..., None, :, :]
        return 1j * (G @ Y - Y @ G) + commutator

    return slope


def _frozen_gauge(hbar):
    """Reference connection Gamma = -H(P)/hbar of each P in a stack, as
    schrodinger_gauge gives it for one P."""
    return lambda t, X, P: (P @ P - MASS ** 2 * np.eye(P.shape[-1])) / (-2.0 * MASS * hbar)


def _stepped_commutator_flow(X0, P0, hbar, gamma, tau_end, steps):
    """Reference: one system's flow, RK4 on the (2, N, N) pair with its own H per
    stage.  Returns the (steps + 1, 2, N, N) run."""
    Y0 = np.stack((X0, P0)).astype(complex)
    return np.stack([Y0, *textbook_rk4(_commutator_slope(hbar, gamma), Y0, 0.0,
                                       tau_end / steps, steps)])


def _step_bound(ends, hbar, connections, h):
    """Float64 bound on the gap between two RK4 steps of one commutator flow from
    one state, computed with their products and sums in different orders.

    ``ends`` are the step's start and end pairs Y = (X, P), ``connections`` the
    values G took at its stage times (none in the Heisenberg picture).  In
    Frobenius norms the slope map Y -> i[G, Y] + [Y, H]/(i hbar) has norm at
    most L = 2 (|H| / hbar + |G|), so the terms of one step add up to at most
    R(z) |Y| with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 and z = h L.  Each term
    passes through at most three complex n x n products, each within
    gamma = sqrt(2) (n + 2) u of its operands' norms (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Lemma 3.5 and sec. 3.6), and
    at most six sums, each within u; both steps err so.  The norms are the
    larger of the step's two ends, not of its stages: the bound is first
    order in h L.

    The pairs may be stacks (..., 2, N, N) of steps and the connections
    (..., N, N); the bound is then one per step.
    """
    n = ends[0].shape[-1]

    def norm(A, axes=(-2, -1)):
        return np.sqrt(np.sum(np.abs(A) ** 2, axis=axes))

    H = np.maximum(*(norm((Y[..., 1, :, :] @ Y[..., 1, :, :] - MASS ** 2 * np.eye(n))
                          / (2.0 * MASS)) for Y in ends))
    G = np.max([norm(G) for G in connections], axis=0, initial=0.0)
    z = 2 * h * (H / hbar + G)
    R = 1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24
    Y = np.maximum(*(norm(Y, (-3, -2, -1)) for Y in ends))
    return 2 * R * (3 * np.sqrt(2) * (n + 2) * U + 6 * U) * Y


def _state_slope(gamma):
    """Reference slope of a state s, set into column 0 of S and paired with P
    as Y = (S, P): dS = i G S with G = ``gamma(t, S, P)``, and dP = 0.  Y may
    be a stack of pairs, as in :func:`_commutator_slope`."""
    def slope(t, Y):
        S, P = Y[..., 0, :, :], Y[..., 1, :, :]
        return np.stack((1j * (gamma(t, S, P) @ S), np.zeros_like(P)), axis=-3)

    return slope


_BLOCK = 200        # steps whose references are taken at once: a stage array of
                    # 200 (2, 20, 20) pairs takes 2.6 MB


def _step_gap_ratios(monkeypatch, run, hbar, gamma, reference=None):
    """``run()`` with every step of its ``rk4`` set against one :func:`textbook_rk4`
    step from the same pair: (its result, the ratio of each step's gap to
    :func:`_step_bound`, step by step).

    The reference steps of up to ``_BLOCK`` steps are taken at once, on a
    stack of pairs: ``reference``, the slope they step, by default the full
    commutators of the connection ``gamma(t, X, P)``, takes stacks.  A
    reference of another flow must fail.
    """
    if reference is None:
        reference = _commutator_slope(hbar, gamma)
    ratios = []

    def check(t, h, block):
        """The ratios of the steps from each pair in ``block`` to the next, the
        steps starting at times ``t``."""
        Y = np.stack(block)
        Y0, Y1, t = Y[:-1], Y[1:], t[:, None, None]
        ref = next(textbook_rk4(reference, Y0, t, h, 1))
        connections = [gamma(t + s, Z[:, 0], Z[:, 1]) for s in (0.0, 0.5 * h, h) for Z in (Y0, Y1)]
        gaps = np.linalg.norm((Y1 - ref).reshape(len(Y0), -1), axis=1)
        ratios.extend(gaps / _step_bound((Y0, Y1), hbar, connections, h))

    def checked_rk4(f, y, t0, h, steps):
        block, first = [np.array(y, dtype=complex)], 0
        for k, y in enumerate(rk4(f, y, t0, h, steps), 1):
            block.append(y.copy())
            if len(block) > _BLOCK:
                check(t0 + h * np.arange(first, k), h, block)
                block, first = block[-1:], k
            yield y
        if len(block) > 1:
            check(t0 + h * np.arange(first, first + len(block) - 1), h, block)

    monkeypatch.setattr(matrixmech, "rk4", checked_rk4)
    return run(), ratios


def _covariant_case(seed=4, n=8, hbar=0.7):
    rng = np.random.default_rng(seed)
    X0, P0 = truncated_oscillator(n, hbar=hbar)
    G0 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    G0 = 0.5 * (G0 + G0.conj().T)

    def gamma(t, X, P):
        return np.cos(t) * G0 + 0.1 * (X @ X)

    return X0, P0, hbar, gamma


def test_covariant_flow_matches_reference_rk4_loop(monkeypatch):
    # each step of the flow is one textbook RK4 step of the full-commutator
    # slope within its rounding bound; the reference's [P, H], which the flow
    # never forms, is part of the rounding
    X0, P0, hbar, gamma = _covariant_case()
    tau_end, steps = 0.9, 60
    plain = covariant_evolve(X0, P0, hbar, MASS, gamma, tau_end, steps)
    end, ratios = _step_gap_ratios(
        monkeypatch, lambda: covariant_evolve(X0, P0, hbar, MASS, gamma, tau_end, steps),
        hbar, gamma)
    assert len(ratios) == steps and max(ratios) <= 1.0
    for M, plain_M in zip(end, plain):
        _assert_same_bits(M, plain_M)


def test_covariant_flow_bound_rejects_a_sign_flipped_connection(monkeypatch):
    X0, P0, hbar, gamma = _covariant_case()
    _, ratios = _step_gap_ratios(
        monkeypatch, lambda: covariant_evolve(X0, P0, hbar, MASS, gamma, 0.9, 60), hbar, gamma,
        _commutator_slope(hbar, lambda t, X, P: -gamma(t, X, P)))
    assert min(ratios) > 1e6


def _probe_state(n=20):
    """The picture-equivalence criterion's state: levels 1, 2 and 4, one amplitude imaginary."""
    s0 = np.zeros(n, dtype=complex)
    s0[1], s0[2], s0[4] = 0.6, 0.64j, 0.48
    return s0 / np.linalg.norm(s0)


def _picture_systems(hbar, wrong=None):
    """The reference (slope, connection) of each of evolve_pictures' three
    systems: the Heisenberg pair's full commutators, the frozen pair's under
    the gauge -H(P)/hbar of each stage's P, and the state's i G s under that
    gauge.  ``wrong`` picks one to replace by another flow: the Heisenberg
    system's [X, H]/(-i hbar), or the frozen system or the state under +H/hbar."""
    gauge = _frozen_gauge(hbar)
    flipped = lambda t, X, P: -gauge(t, X, P)
    systems = [(_commutator_slope(hbar), None), (_commutator_slope(hbar, gauge), gauge),
               (_state_slope(gauge), gauge)]
    if wrong is not None:
        systems[wrong] = [(_commutator_slope(-hbar), None),
                          (_commutator_slope(hbar, flipped), flipped),
                          (_state_slope(flipped), flipped)][wrong]
    return systems


def _step_derivative(z):
    """R'(z) = 1 + z + z^2/2 + z^3/6 for R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24:
    moving the linear map L of norm at most z / h by dL moves the RK4 step
    R(h L) by at most h R'(z) |dL|."""
    return 1 + z + z ** 2 / 2 + z ** 3 / 6


def _stepped_end(Y0, slope, gamma, hbar, tau_end, steps, g):
    """Reference: the end pair of a :func:`textbook_rk4` run of ``slope`` from
    the (2, N, N) pair Y0, and a float64 bound on its gap to the exact RK4
    run of the linear flow of H0 = H(P0), to first order in u.

    Each step's own rounding is at most half :func:`_step_bound`; the Heisenberg
    reference's P drifts by the rounding of its [P, H], and the step then takes
    H(P) for H0, which moves it by at most h R'(z) 2 |X| |H(P) - H0| / hbar
    (:func:`_step_derivative`, z = 2 h |H0| / hbar).  The frozen flow's slope vanishes
    for any P and the state's P is fixed, so there this term over-covers.  An
    error made at step k grows by at most ``g``, the norm of an exact step, at
    each later step.  The run is taken ``_BLOCK`` steps at a time.
    """
    n, h = Y0.shape[-1], tau_end / steps
    H = lambda P: (P @ P - MASS ** 2 * np.eye(n)) / (2.0 * MASS)
    H0 = H(Y0[1])
    dR = _step_derivative(2 * h * np.linalg.norm(H0) / hbar)
    run, end, first, err = textbook_rk4(slope, Y0, 0.0, h, steps), Y0, 0, 0.0
    while first < steps:
        block = np.stack([end, *itertools.islice(run, _BLOCK)])
        Y0b, Y1b = block[:-1], block[1:]
        t = h * np.arange(first, first + len(Y0b))[:, None, None]
        connections = [] if gamma is None else \
            [gamma(t + s, Z[:, 0], Z[:, 1]) for s in (0.0, 0.5 * h, h) for Z in (Y0b, Y1b)]
        drift = np.linalg.norm(H(Y0b[:, 1]) - H0, axis=(1, 2))
        coupling = h * dR * 2 * np.linalg.norm(Y0b[:, 0], axis=(1, 2)) * drift / hbar
        for rho in 0.5 * _step_bound((Y0b, Y1b), hbar, connections, h) + coupling:
            err = g * err + rho
        end, first = block[-1], first + len(Y0b)
    return end, err


def _closed_form_bound(P0, hbar, tau_end, steps, g):
    """Float64 bound, per unit norm of a system's start, on the gap between
    evolve_pictures' end of that system and the exact RK4 run of its linear
    flow under H0 = H(P0), to first order in u.

    The flow takes H0 = V diag(E) V^dagger from ``clifford.hermitian_eig``; the
    residual beta = |H0 - V diag(E) V^dagger| and omega = |V^dagger V - 1| are
    measured, beta with the 2 gamma_n |H0| its own products may miss (gamma_n
    = sqrt(2) (n + 2) u, as in :func:`_step_bound`; Frobenius norms).  With g
    the norm of an exact step, N = ``steps`` and z = h Lambda, where
    Lambda = 2 max|E| / hbar bounds every rate:
    - the rotations in and out take two products and a Hermitian part, within
      (4 gamma_n + u) g^N, and a V that is not unitary moves the end by at
      most 4 omega g^N;
    - H0's error moves the flow's map by at most 2 (beta + omega |E|) / hbar
      (half that for the state), which N steps amplify by at most
      tau R'(z) g^(N-1) (:func:`_step_derivative`);
    - the rates are within 12 u max|E| / hbar: the frozen pair's two tables
      cancel only to that.  With the 9 roundings of h and of D's Horner form,
      relative to |z|, D is within R'(z) (h 12 u max|E| / hbar + 9 u z), and N
      steps amplify that by N g^(N-1);
    - each of the p = bit_length(N) - 1 + popcount(N) - 1 products
      A + B + A B of the repeated squaring, its operands of modulus at most
      g^N + 1, rounds within 3 u (g^N + 1)^2, which later products amplify by
      at most g^N, and Y0 + (R^N - 1) Y0 adds 2 u (g^N + 2).
    """
    H0 = matrixmech._free_hamiltonian(P0, MASS)
    V, E = hermitian_eig(H0)
    n, h, Emax = len(P0), tau_end / steps, np.abs(E).max()
    gamma_n = np.sqrt(2) * (n + 2) * U
    beta = np.linalg.norm(H0 - (V * E) @ V.conj().T) + 2 * gamma_n * np.linalg.norm(H0)
    omega = np.linalg.norm(V.conj().T @ V - np.eye(n))
    z = h * 2 * Emax / hbar
    dR = _step_derivative(z)
    gN = g ** steps
    products = steps.bit_length() + bin(steps).count("1") - 2
    return (gN * (4 * gamma_n + U + 4 * omega + products * 3 * U * (gN + 1) ** 2)
            + 2 * U * (gN + 2)
            + tau_end * dR * g ** (steps - 1) * 2 * (beta + omega * np.linalg.norm(E)) / hbar
            + steps * g ** (steps - 1) * dR * (h * 12 * U * Emax / hbar + 9 * U * z))


def _picture_ratios(hbar, steps, wrong=None):
    """evolve_pictures' end systems from the 20-level oscillator to taubar = 0.8,
    and for each, the ratio of its gap to the end of a :func:`textbook_rk4`
    run of its reference (:func:`_picture_systems`) to the sum of the two
    bounds (:func:`_stepped_end`, :func:`_closed_form_bound`).  The state is
    stepped as the column 0 of S in the pair (S, P0)."""
    X0, P0 = truncated_oscillator(20, hbar=hbar)
    s0 = _probe_state()
    ends = evolve_pictures(X0, P0, hbar, MASS, 0.8, steps, s0)
    S0 = np.zeros((20, 20), dtype=complex)
    S0[:, 0] = s0
    E = np.linalg.eigvalsh((P0 @ P0 - MASS ** 2 * np.eye(20)) / (2.0 * MASS))
    # the norm of an exact step: the largest |R(z)| over the flows' rates
    z = 1j * np.concatenate(((E[None, :] - E[:, None]).ravel(), E)) * (0.8 / steps / hbar)
    g = max(1.0, np.abs(1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24).max())
    cf = _closed_form_bound(P0, hbar, 0.8, steps, g)
    ratios = []
    for end, Y0, (slope, gamma) in zip(ends, (np.stack((X0, P0)),) * 2 + (np.stack((S0, P0)),),
                                       _picture_systems(hbar, wrong)):
        ref, err = _stepped_end(Y0.astype(complex), slope, gamma, hbar, 0.8, steps, g)
        if isinstance(end, tuple):
            gap, size = np.linalg.norm(np.stack(end) - ref), np.linalg.norm(Y0)
        else:
            gap, size = np.linalg.norm(end - ref[0, :, 0]), np.linalg.norm(s0)
        ratios.append(gap / (err + cf * size))
    return ends, ratios


@pytest.mark.parametrize("hbar,steps", [
    pytest.param(1.0, 1, id="1"), pytest.param(1.0, 7, id="7"), pytest.param(1.0, 400, id="400"),
    # the picture-equivalence criterion's size
    pytest.param(1.0, 2000, id="2000"), pytest.param(0.7, 2000, id="2000-hbar0.7"),
    pytest.param(0.3, 400, id="400-hbar0.3"), pytest.param(2.5, 400, id="400-hbar2.5")])
def test_stacked_pictures_match_separate_stepped_flows(hbar, steps):
    # each stacked system's end, the state included, is within its derived
    # rounding bound of a textbook RK4 run of its full slope, and the
    # Heisenberg pair is evolve_heisenberg's bit for bit, signed zeros included:
    # evolve_heisenberg returns that pair, and this guards against a second path
    X0, P0 = truncated_oscillator(20, hbar=hbar)
    (heis, frozen, s), ratios = _picture_ratios(hbar, steps)
    assert max(ratios) <= 1.0, ratios
    assert [M.shape for M in (*heis, *frozen, s)] == [(20, 20)] * 4 + [(20,)]
    for M, alone_M in zip(heis, evolve_heisenberg(X0, P0, hbar, MASS, 0.8, steps)):
        _assert_same_bits(M, alone_M)


@pytest.mark.parametrize("bad", [0, 1, 2], ids=["time-reversed", "sign-flipped-gauge",
                                                "sign-flipped-state"])
def test_stacked_pictures_bound_rejects_a_wrong_reference(bad):
    # the bound admits rounding, not a reference that runs another flow: the
    # Heisenberg system against [X, H]/(-i hbar), the frozen one against
    # +H/hbar, or the state against +H/hbar
    _, ratios = _picture_ratios(0.7, 40, bad)
    assert ratios[bad] > 1e6
    assert max(ratios[i] for i in range(3) if i != bad) <= 1.0


def test_evolve_pictures_rejects_a_state_of_another_size():
    X0, P0 = truncated_oscillator(5)
    with pytest.raises(InputError, match=r"^state must be a vector of length 5, got shape \(4,\)$"):
        evolve_pictures(X0, P0, 1.0, MASS, 0.1, 5, np.ones(4) / 2)

@pytest.mark.parametrize("hbar", [1.0, 0.7])
def test_heisenberg_flow_returns_p0(hbar):
    # H is a function of P, so [P, H] = 0 and the flow never moves P, not even
    # by the rounding of a commutator it would form
    rng = np.random.default_rng(5)
    for X0, P0 in (truncated_oscillator(20, hbar=hbar),
                   (random_hermitian(rng, 9), random_hermitian(rng, 9))):
        _, P = evolve_heisenberg(X0, P0, hbar, MASS, 0.8, 50)
        assert np.array_equal(P, P0)
        (_, P), _ = evolve_pictures(X0, P0, hbar, MASS, 0.8, 50)
        assert np.array_equal(P, P0)


def test_heisenberg_rk4_matches_stability_polynomial_oracle():
    # with H = H(P0) held fixed, one RK4 step multiplies X's entries in H's
    # eigenbasis by R(z_ij), z_ij = -i h (w_j - w_i) / hbar and
    # R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 (Hairer, Norsett & Wanner, II.1)
    nlev, hbar, taubar, steps = 20, 1.0, 0.8, 2000
    X0, P0 = truncated_oscillator(nlev, hbar=hbar)
    w, V = np.linalg.eigh((P0 @ P0 - MASS ** 2 * np.eye(nlev)) / (2 * MASS))
    z = -1j * (taubar / steps) * (w[None, :] - w[:, None]) / hbar
    R = 1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24
    oracle = V @ (R ** steps * (V.conj().T @ X0 @ V)) @ V.conj().T
    X, _ = evolve_heisenberg(X0, P0, hbar, MASS, taubar, steps)
    assert np.abs(X - oracle).max() <= 1e-11


@pytest.mark.parametrize("steps", [1, 2, 7, 2000, 2 ** 20 - 1, 10 ** 17])
def test_polynomial_power_takes_bit_length_products(steps):
    # R^steps - 1 by repeated squaring takes bit_length - 1 squarings and
    # popcount - 1 further products: 10^17 steps take 75, not 10^17
    products = []

    def mul(a, b):
        products.append(None)
        return a * b

    matrixmech._polynomial_power(np.array([1e-20j]), steps, mul)
    assert len(products) == steps.bit_length() + bin(steps).count("1") - 2
    assert len(products) <= 2 * steps.bit_length()


def _random_flows(flow, X0, P0, hbar, G0, tau_end, steps):
    """(the flow's end (X, P) pairs, the stepped reference runs) for one random pair."""
    def gamma(t, X, P):
        return np.cos(t) * G0 + 0.1 * (X @ X)

    if flow == "heisenberg":
        return ([evolve_heisenberg(X0, P0, hbar, MASS, tau_end, steps)],
                [_stepped_commutator_flow(X0, P0, hbar, None, tau_end, steps)])
    if flow == "covariant":
        return ([covariant_evolve(X0, P0, hbar, MASS, gamma, tau_end, steps)],
                [_stepped_commutator_flow(X0, P0, hbar, gamma, tau_end, steps)])
    return (list(evolve_pictures(X0, P0, hbar, MASS, tau_end, steps)),
            [_stepped_commutator_flow(X0, P0, hbar, None, tau_end, steps),
             _stepped_commutator_flow(X0, P0, hbar, schrodinger_gauge(hbar, MASS),
                                      tau_end, steps)])


@pytest.mark.parametrize("flow", ["heisenberg", "covariant", "pictures"])
@pytest.mark.parametrize("hbar", [0.3, 0.7, 2.5])
def test_random_hermitian_flows_stay_hermitian(flow, hbar):
    # at sizes where P @ P is not exactly Hermitian the one-product commutator
    # moves last digits from the two-product reference, and keeps Y Hermitian
    rng = np.random.default_rng(17)
    for n in range(1, 14):
        X0, P0, G0 = (random_hermitian(rng, n) for _ in range(3))
        ends, refs = _random_flows(flow, X0, P0, hbar, G0, 0.5, 40)
        for (X, P), ref in zip(ends, refs):
            assert _hermiticity(X, P) == 0.0
            bound = 1e-14 * max(1.0, np.abs(ref).max())
            assert np.abs(X - ref[-1, 0]).max() <= bound
            assert np.abs(P - ref[-1, 1]).max() <= bound


@pytest.mark.parametrize("flow,which", [(flow, which) for flow in ("heisenberg", "pictures")
                                         for which in "XP"]
                         + [("covariant", which) for which in ("X", "P", "gamma")])
def test_matrix_flows_reject_non_hermitian_inputs(flow, which):
    X0, P0 = truncated_oscillator(5)
    skew = np.zeros((5, 5), dtype=complex)
    skew[0, 1] = 1e-3
    if which == "X":
        X0 = X0 + skew
    elif which == "P":
        P0 = P0 + skew
    run = {"heisenberg": lambda: evolve_heisenberg(X0, P0, 1.0, MASS, 0.1, 5),
           "covariant": lambda: covariant_evolve(
               X0, P0, 1.0, MASS, lambda t, X, P: skew if which == "gamma" else X, 0.1, 5),
           "pictures": lambda: evolve_pictures(X0, P0, 1.0, MASS, 0.1, 5)}[flow]
    with pytest.raises(InputError, match="not Hermitian"):
        run()


@pytest.mark.parametrize("flow", ["heisenberg", "covariant", "pictures"])
@pytest.mark.parametrize("hbar", [float("nan"), 0.0, -1.0])
def test_matrix_flows_require_positive_hbar(flow, hbar):
    X0, P0 = truncated_oscillator(4)
    run = {"heisenberg": lambda: evolve_heisenberg(X0, P0, hbar, MASS, 0.1, 5),
           "covariant": lambda: covariant_evolve(X0, P0, hbar, MASS,
                                                 lambda t, X, P: np.zeros_like(X), 0.1, 5),
           "pictures": lambda: evolve_pictures(X0, P0, hbar, MASS, 0.1, 5)}[flow]
    with pytest.raises(PreconditionError, match="hbar > 0"):
        run()


@pytest.mark.parametrize("mass", [0.0, -1.0, float("nan"), 1e-200],
                         ids=["zero", "negative", "nan", "underflowing-square"])
@pytest.mark.parametrize("entry", ["NSystem", "evolve_pictures", "evolve_heisenberg",
                                   "covariant_evolve"])
def test_matrix_flows_require_a_positive_mass(entry, mass):
    # H = (P.P - m^2 1)/(2m) needs m > 0 with m^2 in range (config.positive_mass)
    X0, P0 = truncated_oscillator(4)
    sys1, _ = _system(n=1)
    run = {"NSystem": lambda: matrixmech.NSystem(sys1.space, sys1.kets, sys1.bras, mass),
           "evolve_pictures": lambda: evolve_pictures(X0, P0, 1.0, mass, 0.1, 5),
           "evolve_heisenberg": lambda: evolve_heisenberg(X0, P0, 1.0, mass, 0.1, 5),
           "covariant_evolve": lambda: covariant_evolve(X0, P0, 1.0, mass,
                                                        lambda t, X, P: np.zeros_like(X), 0.1, 5)}
    with pytest.raises(InputError, match=r"^mass (must be positive|= 1e-200 is out of range)"):
        run[entry]()


def _step_entry_points():
    X0, P0 = truncated_oscillator(4)
    sys1, states = _system(n=1)
    return {
        "evolve_pictures": lambda steps: evolve_pictures(X0, P0, 1.0, MASS, 0.1, steps),
        "evolve_heisenberg": lambda steps: evolve_heisenberg(X0, P0, 1.0, MASS, 0.1, steps),
        "covariant_evolve": lambda steps: covariant_evolve(
            X0, P0, 1.0, MASS, lambda t, X, P: np.zeros_like(X), 0.1, steps),
        "evolve_matrix_classical": lambda steps: evolve_matrix_classical(sys1, 0.1, steps),
        "evolve_state": lambda steps: evolve_state(
            np.array([0.6, 0.8j]), np.eye(2), 0.1, steps),
        "integrate": lambda steps: integrate(states[0], constant_einbein(0.5), 0.1, steps),
    }


@pytest.mark.parametrize("steps", [0, -3, 2.5, True])
@pytest.mark.parametrize("entry", ["evolve_pictures", "evolve_heisenberg", "covariant_evolve",
                                   "evolve_matrix_classical", "evolve_state", "integrate"])
def test_step_counts_must_be_positive_integers(entry, steps):
    run = _step_entry_points()[entry]
    with pytest.raises(InputError, match=r"^steps must be a positive integer, got "):
        run(steps)
    run(np.int64(2))        # a numpy integer is a step count


def _first_overflow_step(X0, P0, hbar, tau_end, steps):
    """Reference: the first step at which the Heisenberg X~ = V^dagger X0 V, in
    the eigenbasis of H(P0) from numpy's eigh, turns non-finite in an
    allocating loop Y <- Y R(h lambda), with lambda_ij = (E_j - E_i)/(i hbar)
    and R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24; None if it stays finite."""
    E, V = np.linalg.eigh((P0 @ P0 - MASS ** 2 * np.eye(len(P0))) / (2.0 * MASS))
    z = (tau_end / steps) * (E[None, :] - E[:, None]) / (1j * hbar)
    R = 1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24
    Y = V.conj().T @ X0 @ V
    for k in range(steps):
        Y = Y * R
        if not np.isfinite(Y).all():
            return k
    return None


def test_matrix_flow_names_the_first_non_finite_step():
    X0, P0 = truncated_oscillator(8)
    # h |lambda| = 100 lies far outside RK4's stability interval: each step
    # multiplies the state by |R(100 i)| ~ 4e6 until it overflows part-way
    gamma, s0 = np.diag([1e4, -1e4]), np.array([0.6, 0.8j])
    with np.errstate(over="ignore", invalid="ignore"):
        ref = np.stack(list(textbook_rk4(lambda t, v: 1j * (gamma @ v), s0, 0.0, 0.01, 100)))
        first = int(np.argmin(np.isfinite(ref).all(axis=1)))
        assert 0 < first < 99
        with pytest.raises(ArithmeticError, match=f"at step {first}$"):
            evolve_state(s0, gamma, 1.0, 100)
        with pytest.raises(ArithmeticError, match="at step 0$"):
            evolve_heisenberg(1e200 * X0, 1e200 * P0, 1.0, MASS, 0.5, 100)
        # RK4 is unstable at h |w_i - w_j| this large: X overflows part-way.  The
        # flow multiplies by R itself, so its step is the step-polynomial loop's
        # (82), not that of RK4's stage form, whose stages overflow a step sooner
        first = _first_overflow_step(X0, 30 * P0, 1.0, 0.5, 100)
        assert 0 < first < 99
        with pytest.raises(ArithmeticError, match=f"at step {first}$"):
            evolve_heisenberg(X0, 30 * P0, 1.0, MASS, 0.5, 100)


def test_evolve_pictures_names_the_first_non_finite_step():
    # no rows are stored, so a failed run is stepped again to find the step; the
    # frozen systems' rates cancel to rounding, so the Heisenberg X~ fails first
    X0, P0 = truncated_oscillator(8)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ArithmeticError, match="at step 0$"):
            evolve_pictures(1e200 * X0, 1e200 * P0, 1.0, MASS, 0.5, 100)
        first = _first_overflow_step(X0, 30 * P0, 1.0, 0.5, 100)
        assert 0 < first < 99
        with pytest.raises(ArithmeticError, match=f"at step {first}$"):
            evolve_pictures(X0, 30 * P0, 1.0, MASS, 0.5, 100)


def test_evolve_state_rejects_a_non_finite_result():
    s0 = np.array([0.6, 0.8j])
    with pytest.raises(ArithmeticError, match="non-finite"):
        evolve_state(s0, np.full((2, 2), np.nan), 1.0, 10)


def test_gamma_gauge_transformation_law():
    # Gamma' = U Gamma U^dagger - i (dU/dtau) U^dagger makes the covariant
    # derivative transform covariantly; checked by finite differences of U.
    rng = np.random.default_rng(3)
    n = 6
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    K = 0.5 * (A + A.conj().T)            # Hermitian generator of U(t)

    def U_of(t):
        w, V = np.linalg.eigh(K)
        return (V * np.exp(-1j * w * t)) @ V.conj().T

    G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    G = 0.5 * (G + G.conj().T)            # connection at t0
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    X = 0.5 * (X + X.conj().T)
    t0, h = 0.3, 1e-6
    U0 = U_of(t0)
    dU = (U_of(t0 + h) - U_of(t0 - h)) / (2 * h)
    Gp = U0 @ G @ U0.conj().T - 1j * dU @ U0.conj().T
    # nabla X = dX/dt - i[Gamma, X]; take dX/dt = 0 at t0 in the original frame,
    # then X'(t) = U X U^dagger and nabla' X' must equal U (nabla X) U^dagger
    nabla = -1j * (G @ X - X @ G)
    dXp = dU @ X @ U0.conj().T + U0 @ X @ dU.conj().T
    nabla_p = dXp - 1j * (Gp @ (U0 @ X @ U0.conj().T) - (U0 @ X @ U0.conj().T) @ Gp)
    assert np.abs(nabla_p - U0 @ nabla @ U0.conj().T).max() < 1e-9


# -- expectation and state evolution ----------------------------------------------

def test_expectation_eigenvector_returns_eigenvalue():
    sys3, states = _system(n=3)
    s = np.zeros(3, dtype=complex)
    s[1] = 1.0
    val = expectation(s, sys3, "X")
    assert np.abs(val.real - states[1].x_vec()).max() < 1e-12
    cvec = expectation(s, sys3, "C")
    assert np.allclose(cvec[0], states[1].packed()[0])


def test_expectation_linearity_on_diagonal_x():
    sys3, states = _system(n=2)
    s = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    val = expectation(s, sys3, "X")
    mean = 0.5 * (states[0].x_vec() + states[1].x_vec())
    assert np.abs(val.real - mean).max() < 1e-12


def test_expectation_requires_unit_norm():
    sys3, _ = _system(n=2)
    with pytest.raises(InputError):
        expectation(np.array([1.0, 1.0]), sys3, "X")


@pytest.mark.parametrize("which", ["x", "bogus", ""])
@pytest.mark.parametrize("target", ["system", "stack"])
def test_expectation_rejects_an_unknown_which(target, which):
    sys3, _ = _system(n=2)
    s = np.array([1.0, 0.0], dtype=complex)
    mats = sys3 if target == "system" else sys3.x_matrices()
    with pytest.raises(InputError, match=f"which must be 'X', 'P' or 'C', got {which!r}"):
        expectation(s, mats, which)


@pytest.mark.parametrize("length,which,target", [(4, "C", "system"), (2, "C", "system"),
                                                (2, "X", "system"), (4, "P", "system"),
                                                (2, "X", "stack")])
def test_expectation_rejects_a_state_of_another_length(length, which, target):
    # a unit state of 3 particles' system must have 3 entries: a longer one
    # is not cut down to size, nor a shorter one read past its end
    sys3, _ = _system(n=3)
    s = np.zeros(length, dtype=complex)
    s[0] = 1.0
    mats = sys3 if target == "system" else sys3.x_matrices()
    with pytest.raises(InputError,
                       match=rf"^state must be a vector of length 3, got shape \({length},\)$"):
        expectation(s, mats, which)


@pytest.mark.parametrize("target", [np.float64(2.0), np.ones(3), np.ones((3, 2)),
                                    np.ones((2, 3, 3, 3))],
                         ids=["scalar", "vector", "non-square", "four-axes"])
def test_expectation_rejects_a_bare_target_that_is_not_a_matrix(target):
    # the target's shape is refused before the state's length is read against it
    shape = re.escape(str(np.shape(target)))
    with pytest.raises(InputError, match=rf"^target must be an N x N matrix or a stack of "
                                         rf"them, got shape {shape}$"):
        expectation(np.array([1.0, 0.0, 0.0]), target, "X")


def test_expectation_rejects_nan_state():
    sys3, _ = _system(n=2)
    with pytest.raises(InputError):
        expectation(np.array([1.0, np.nan]), sys3, "X")


def test_classical_expectation_stays_on_integral_curve():
    sys3, states = _system(n=3)
    X, _ = evolve_matrix_classical(sys3, 1.0, 100)
    s = np.zeros(3, dtype=complex)
    s[2] = 1.0
    # Gamma = 0: s constant; <s|X(t)|s> must track particle 2 exactly
    val = complex(s.conj() @ X[0] @ s)
    expect = states[2].x_vec()[0] + (ETA @ states[2].p_vec())[0] / MASS
    assert abs(val.real - expect) < 1e-9


def test_evolve_state_gamma_zero_constant_and_norm_preserved():
    s0 = np.array([0.6, 0.8j], dtype=complex)
    out = evolve_state(s0, np.zeros((2, 2)), 1.0, 100)
    assert np.abs(out - s0).max() == 0.0
    rng = np.random.default_rng(8)
    H = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    H = 0.5 * (H + H.conj().T)
    s0 = rng.normal(size=8) + 1j * rng.normal(size=8)
    s0 = s0 / np.linalg.norm(s0)
    out = evolve_state(s0, -H, 1.0, 10000)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10


@pytest.mark.parametrize("shape", [(3, 3), (2, 3), (2,), (1, 2, 2)],
                         ids=["3x3", "2x3", "vector", "stack"])
def test_evolve_state_rejects_a_gamma_of_another_shape(shape):
    with pytest.raises(InputError, match=rf"^gamma must be n x n for a state vector of length n, "
                                         rf"got shapes {re.escape(str(shape))} and \(2,\)$"):
        evolve_state(np.array([0.6, 0.8j]), np.zeros(shape), 1.0, 10)


def test_nonrelativistic_schrodinger_equation():
    # in the -H~/hbar gauge the state obeys the matrix Schrodinger equation
    # with the spatial-momentum Hamiltonian; oracle: eigendecomposition
    nlev, m, hbar = 12, 5.0, 1.0
    _, P = truncated_oscillator(nlev, mass=m, omega=0.2, hbar=hbar)
    H_nr = (P @ P) / (2 * m)
    s0 = np.zeros(nlev, dtype=complex)
    s0[0], s0[2] = 0.8, 0.6
    taubar, steps = 1.0, 4000
    out = evolve_state(s0, -H_nr / hbar, taubar, steps)
    w, V = np.linalg.eigh(H_nr)
    oracle = (V * np.exp(-1j * w * taubar / hbar)) @ V.conj().T @ s0
    assert np.abs(out - oracle).max() < 1e-10


def test_picture_equivalence_expectations():
    nlev = 20
    X0, P0 = truncated_oscillator(nlev, hbar=1.0)
    taubar = 0.8
    steps = 1200
    X, _ = evolve_heisenberg(X0, P0, 1.0, MASS, taubar, steps)
    # state supported on the interior levels, away from the truncation corner
    s0 = np.zeros(nlev, dtype=complex)
    s0[1], s0[3], s0[5] = 0.6, 0.64, 0.48
    s0 /= np.linalg.norm(s0)
    H = (P0 @ P0 - MASS ** 2 * np.eye(nlev)) / (2 * MASS)
    sT = evolve_state(s0, -H, taubar, steps)
    lhs = complex(s0.conj() @ X @ s0)
    rhs = complex(sT.conj() @ X0 @ sT)
    assert abs(lhs - rhs) < 1e-8


def test_born_sampling_normalized_and_deterministic():
    rng = np.random.default_rng(42)
    eigvecs = np.eye(4, dtype=complex)
    s = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    draws = [born_sample(np.random.default_rng(7), s, eigvecs) for _ in range(3)]
    assert draws[0] == draws[1] == draws[2]
    counts = np.bincount([born_sample(rng, s, eigvecs) for _ in range(2000)], minlength=4)
    assert counts.min() > 350  # uniform Born weights


def test_nonrelativistic_rate_near_unity():
    # |p| << m: dt/dtaubar = <P^0>/m within |p|^2/m^2
    m = 5.0
    sp = np.array([0.1, 0.05, 0.0])
    p0 = np.sqrt(m ** 2 + sp @ sp)
    P0 = np.diag([p0, p0])
    s = np.array([1.0, 0.0], dtype=complex)
    rate = nonrelativistic_rate(P0, s, m)
    assert abs(rate - 1.0) <= (sp @ sp) / m ** 2
