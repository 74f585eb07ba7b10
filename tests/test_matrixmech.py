"""N-particle assembly, gauge covariance, and quantum matrix evolution."""

import functools
import tracemalloc

import numpy as np
import pytest

from cliffdyn import matrixmech
from cliffdyn.clifford import allocate_blocks, resolve_pair
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

def test_classical_flow_affine_in_taubar():
    sys3, _ = _system(n=3)
    X_end, P_end = evolve_matrix_classical(sys3, 1.5, 300)
    X, P = sys3.x_matrices(), sys3.p_matrices()
    pred = X + np.einsum("mn,nij->mij", ETA, P) / MASS * 1.5
    assert np.abs(X_end - pred).max() < 1e-9
    assert np.abs(P_end - P).max() == 0.0


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


def _textbook_rk4(f, y, h, steps):
    """Reference RK4 for dy/dt = f(t, y) from t = 0, written out with a new
    array per operation, independent of the package's buffered integrator;
    returns the (steps + 1, ...) run."""
    rows = [y]
    for k in range(steps):
        t = k * h
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        rows.append(y)
    return np.stack(rows)


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
    return _textbook_rk4(_commutator_slope(hbar, gamma), np.stack((X0, P0)).astype(complex),
                         tau_end / steps, steps)


U = np.finfo(float).eps / 2         # unit roundoff


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


def _as_pairs(systems):
    """Each system a flow builder's reader returns, as one (2, N, N) pair: an
    (X, P) pair is stacked; a state s becomes (S, P0), S with s as its column 0
    and P0 the first system's P, so that :func:`_step_bound` reads H(P0) from it.
    The pairing adds |P0| to the norm the bound scales with."""
    P0 = systems[0][1]
    pairs = []
    for system in systems:
        if isinstance(system, tuple):
            pairs.append(np.stack(system))
        else:
            S = np.zeros_like(P0)
            S[:, 0] = system
            pairs.append(np.stack((S, P0)))
    return pairs


_BLOCK = 200        # steps whose references are taken at once: a stage array of
                    # 200 (2, 20, 20) pairs takes 2.6 MB


def _step_gap_ratios(monkeypatch, run, hbar, gammas, references=None):
    """``run()`` with every RK4 step of its flow set against one :func:`_textbook_rk4`
    step from the same state, system by system: (its result, the ratio of each
    step's gap to :func:`_step_bound`, step by step and system by system).

    A flow steps through ``rk4`` or, in H's eigenbasis, through
    ``_polynomial_steps``; both are wrapped, and each step is read back through
    the flow builder's reader (:func:`_as_pairs`), so an eigenbasis flow is
    checked in the original basis.  The reference steps of up to ``_BLOCK``
    steps are taken at once, on stacks of pairs: ``gammas[b]``, system b's
    connection ``gamma(t, X, P)`` or None, and ``references[b]``, the slope its
    reference steps, by default the full commutators of that connection, take
    stacks.  A reference of another flow must fail.
    """
    if references is None:
        references = [_commutator_slope(hbar, gamma) for gamma in gammas]
    ratios, readers, sizes = [], [], []
    polynomial_steps, polynomial_end = matrixmech._polynomial_steps, matrixmech._polynomial_end

    def recorder(build):
        def recorded(*args):
            flow = build(*args)
            readers.append(flow[2])      # each system's state in a flow state
            return flow
        return recorded

    def sized(Y0, rates, tau_end, steps):
        sizes.append(tau_end / steps)
        return polynomial_end(Y0, rates, tau_end, steps)

    def check(t, h, block):
        """The ratios of the steps from each pair list in ``block`` to the next,
        the steps starting at times ``t``."""
        t = t[:, None, None]
        columns = []
        for Y, gamma, slope in zip(map(np.stack, zip(*block)), gammas, references):
            Y0, Y1 = Y[:-1], Y[1:]
            ref = _textbook_rk4(lambda s, Z: slope(t + s, Z), Y0, h, 1)[-1]
            connections = [] if gamma is None else \
                [gamma(t + s, Z[:, 0], Z[:, 1]) for s in (0.0, 0.5 * h, h) for Z in (Y0, Y1)]
            gaps = np.linalg.norm((Y1 - ref).reshape(len(Y0), -1), axis=1)
            columns.append(gaps / _step_bound((Y0, Y1), hbar, connections, h))
        ratios.extend(ratio for step in zip(*columns) for ratio in step)

    def checked(steps, y, t0, h):
        block, first = [_as_pairs(readers[-1](y))], 0
        for k, y in enumerate(steps, 1):
            block.append(_as_pairs(readers[-1](y)))
            if len(block) > _BLOCK:
                check(t0 + h * np.arange(first, k), h, block)
                block, first = block[-1:], k
            yield y
        if len(block) > 1:
            check(t0 + h * np.arange(first, first + len(block) - 1), h, block)

    def checked_rk4(f, y, t0, h, steps):
        return checked(rk4(f, y, t0, h, steps), np.array(y, dtype=complex), t0, h)

    def checked_polynomial(Y, D, steps):
        return checked(polynomial_steps(Y, D, steps), Y, 0.0, sizes[-1])

    for builder in ("_commutator_flows", "_eigenbasis_flows"):
        monkeypatch.setattr(matrixmech, builder, recorder(getattr(matrixmech, builder)))
    monkeypatch.setattr(matrixmech, "_polynomial_end", sized)
    monkeypatch.setattr(matrixmech, "rk4", checked_rk4)
    monkeypatch.setattr(matrixmech, "_polynomial_steps", checked_polynomial)
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
        hbar, [gamma])
    assert len(ratios) == steps and max(ratios) <= 1.0
    for M, plain_M in zip(end, plain):
        _assert_same_bits(M, plain_M)


def test_covariant_flow_bound_rejects_a_sign_flipped_connection(monkeypatch):
    X0, P0, hbar, gamma = _covariant_case()
    _, ratios = _step_gap_ratios(
        monkeypatch, lambda: covariant_evolve(X0, P0, hbar, MASS, gamma, 0.9, 60), hbar, [gamma],
        [_commutator_slope(hbar, lambda t, X, P: -gamma(t, X, P))])
    assert min(ratios) > 1e6


def _probe_state(n=20):
    """The picture-equivalence criterion's state: levels 1, 2 and 4, one amplitude imaginary."""
    s0 = np.zeros(n, dtype=complex)
    s0[1], s0[2], s0[4] = 0.6, 0.64j, 0.48
    return s0 / np.linalg.norm(s0)


def _picture_references(hbar, gauge):
    """The reference slopes of evolve_pictures' three systems: the Heisenberg
    pair's and the frozen pair's full commutators, and the state's i G s."""
    return [_commutator_slope(hbar), _commutator_slope(hbar, gauge), _state_slope(gauge)]


@functools.cache
def _separate_flows(hbar, steps):
    """The flows evolve_pictures stacks, each run on its own from the 20-level
    oscillator to taubar = 0.8: evolve_heisenberg's pair, covariant_evolve's
    under the Schrodinger gauge of each stage's P, and evolve_state's state
    under the gauge of P0."""
    X0, P0 = truncated_oscillator(20, hbar=hbar)
    gauge = schrodinger_gauge(hbar, MASS)
    return (evolve_heisenberg(X0, P0, hbar, MASS, 0.8, steps),
            covariant_evolve(X0, P0, hbar, MASS, gauge, 0.8, steps),
            evolve_state(_probe_state(), gauge(0.0, X0, P0), 0.8, steps))


@pytest.mark.parametrize("hbar,steps", [
    pytest.param(1.0, 1, id="1"), pytest.param(1.0, 7, id="7"), pytest.param(1.0, 400, id="400"),
    # the picture-equivalence criterion's size
    pytest.param(1.0, 2000, id="2000"), pytest.param(0.7, 2000, id="2000-hbar0.7"),
    pytest.param(0.3, 400, id="400-hbar0.3"), pytest.param(2.5, 400, id="400-hbar2.5")])
def test_stacked_pictures_match_separate_stepped_flows(monkeypatch, hbar, steps):
    # every step of each stacked system, the state included, is one textbook
    # RK4 step of its full slope within its rounding bound; the Heisenberg end
    # state is evolve_heisenberg's bit for bit, signed zeros included; the
    # frozen one, stepped under the constant gauge of P0, is covariant_evolve's
    # under the gauge of each stage's P up to rounding, and the state is
    # evolve_state's, stepped by RK4's stages, up to a rounding per step
    X0, P0 = truncated_oscillator(20, hbar=hbar)
    gauge = _frozen_gauge(hbar)
    single, gauged, state = _separate_flows(hbar, steps)
    (heis, frozen, s), ratios = _step_gap_ratios(
        monkeypatch, lambda: evolve_pictures(X0, P0, hbar, MASS, 0.8, steps, _probe_state()),
        hbar, [None, gauge, gauge], _picture_references(hbar, gauge))
    assert len(ratios) == 3 * steps and max(ratios) <= 1.0
    for M, alone_M in zip(heis, single):
        assert M.shape == (20, 20)
        _assert_same_bits(M, alone_M)
    for M, ref in zip(frozen, gauged):
        assert M.shape == (20, 20)
        assert np.abs(M - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max())
    # RK4 amplifies each run's rounding by up to max |R(z)| a step, about 600 at
    # the one-step case's top level and at most 1 from 7 steps on
    z = 0.8j / steps * np.linalg.eigvalsh(gauge(0.0, X0, P0))
    growth = max(1.0, np.abs(1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24).max()) ** steps
    assert s.shape == (20,)
    assert np.abs(s - state).max() <= 1e-14 * growth


@pytest.mark.parametrize("bad", [0, 1, 2], ids=["time-reversed", "sign-flipped-gauge",
                                                "sign-flipped-state"])
def test_stacked_pictures_bound_rejects_a_wrong_reference(monkeypatch, bad):
    # the bound admits reordered rounding, not a reference that steps another
    # flow: the Heisenberg system against [X, H]/(-i hbar), the frozen one
    # against +H/hbar, or the state against +H/hbar
    hbar = 0.7
    X0, P0 = truncated_oscillator(20, hbar=hbar)
    gauge = _frozen_gauge(hbar)
    references = _picture_references(hbar, gauge)
    references[bad] = [_commutator_slope(-hbar),
                       _commutator_slope(hbar, lambda t, X, P: -gauge(t, X, P)),
                       _state_slope(lambda t, X, P: -gauge(t, X, P))][bad]
    _, ratios = _step_gap_ratios(
        monkeypatch, lambda: evolve_pictures(X0, P0, hbar, MASS, 0.8, 40, _probe_state()),
        hbar, [None, gauge, gauge], references)
    assert min(ratios[bad::3]) > 1e6         # the ratios cycle system by system
    assert max(ratios[i] for i in range(len(ratios)) if i % 3 != bad) <= 1.0



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


@pytest.mark.parametrize("flow", ["evolve_heisenberg", "evolve_pictures", "evolve_state",
                                  "evolve_state-real-gamma"])
def test_flow_rhs_allocates_nothing_per_stage(monkeypatch, flow):
    # an eigenbasis flow's step, one multiply and one add, and each stage of
    # evolve_state's RK4 write through buffers the flow made once.  numpy
    # reports its array data to tracemalloc, so a step or a stage that made an
    # array as large as the smallest one here (4 KiB, a 256-level state) would
    # show; what remains is numpy's iterators and views.  A real Gamma cast
    # anew at every stage would take 1 MB
    X0, P0 = truncated_oscillator(20)
    real = -np.diag(np.arange(256.0))
    gauge = real.astype(complex)
    s0 = np.full(256, 1 / 16, dtype=complex)
    stages, loops, polynomial_steps = [], [], matrixmech._polynomial_steps
    monkeypatch.setattr(matrixmech, "_rk4_end", lambda Y0, rhs, *_: stages.append((Y0, rhs)) or Y0)
    monkeypatch.setattr(matrixmech, "_polynomial_steps",
                        lambda Y, D, steps: loops.append(polynomial_steps(Y, D, 9)) or iter(()))
    {"evolve_heisenberg": lambda: evolve_heisenberg(X0, P0, 1.0, MASS, 0.8, 10),
     "evolve_pictures": lambda: evolve_pictures(X0, P0, 1.0, MASS, 0.8, 10, s0[:20]),
     "evolve_state": lambda: evolve_state(s0, gauge, 0.8, 10),
     "evolve_state-real-gamma": lambda: evolve_state(s0, real, 0.8, 10)}[flow]()
    if loops:
        loop, = loops
        step = lambda k: next(loop)
    else:
        (Y0, rhs), = stages
        Y, dY = np.array(Y0, dtype=complex), np.empty(np.shape(Y0), dtype=complex)
        step = lambda k: rhs(0.1 * k, Y, dY)
    step(0)
    tracemalloc.start()
    try:
        for k in range(8):
            step(k + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096


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


def test_matrix_flow_names_the_first_non_finite_step():
    X0, P0 = truncated_oscillator(8)
    # h |lambda| = 100 lies far outside RK4's stability interval: each step
    # multiplies the state by |R(100 i)| ~ 4e6 until it overflows part-way
    gamma, s0 = np.diag([1e4, -1e4]), np.array([0.6, 0.8j])
    with np.errstate(over="ignore", invalid="ignore"):
        ref = _textbook_rk4(lambda t, v: 1j * (gamma @ v), s0, 0.01, 100)
        first = int(np.argmin(np.isfinite(ref[1:]).all(axis=1)))
        assert 0 < first < 99
        with pytest.raises(ArithmeticError, match=f"at step {first}$"):
            evolve_state(s0, gamma, 1.0, 100)
        with pytest.raises(ArithmeticError, match="at step 0$"):
            evolve_heisenberg(1e200 * X0, 1e200 * P0, 1.0, MASS, 0.5, 100)
        # RK4 is unstable at h |w_i - w_j| this large: X overflows part-way
        ref = _stepped_commutator_flow(X0, 30 * P0, 1.0, None, 0.5, 100)
        first = int(np.argmin(np.isfinite(ref[1:]).reshape(100, -1).all(axis=1)))
        assert 0 < first < 99
        with pytest.raises(ArithmeticError, match=f"at step {first}$"):
            evolve_heisenberg(X0, 30 * P0, 1.0, MASS, 0.5, 100)


def test_evolve_pictures_names_the_first_non_finite_step():
    # no rows are stored, so a failed run is stepped again to find the step
    X0, P0 = truncated_oscillator(8)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ArithmeticError, match="at step 0$"):
            evolve_pictures(1e200 * X0, 1e200 * P0, 1.0, MASS, 0.5, 100)
        ref = _stepped_commutator_flow(X0, 30 * P0, 1.0, None, 0.5, 100)
        first = int(np.argmin(np.isfinite(ref[1:]).reshape(100, -1).all(axis=1)))
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
