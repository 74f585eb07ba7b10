"""N-particle assembly, gauge covariance, and quantum matrix evolution."""

import numpy as np
import pytest

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
    MatrixTrajectory,
    nonrelativistic_rate,
    schrodinger_gauge,
    truncated_oscillator,
)
from cliffdyn.particle import ParticleState, constant_einbein, integrate, rk4
from cliffdyn.sampling import random_hermitian, random_unitary
from cliffdyn.spinors import ETA, covec_to_spinor_down, vec_to_spinor

MASS = 1.0


def _system(n=3, mu=0.6, seed=0, hbar=0.0):
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
        c, d, _ = resolve_pair(vec_to_spinor(x), covec_to_spinor_down(p),
                               mu * np.eye(2), space,
                               labels=(f"c{i}", f"d{i}", f"h{i}"))
        states.append(ParticleState(c, d, MASS))
    return assemble(states, hbar=hbar), states


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
    c, d, _ = resolve_pair(np.eye(2), np.eye(2), np.zeros((2, 2)), space,
                           labels=("c0", "d0", "h0"))
    st = ParticleState(c, d, MASS)
    with pytest.raises(PreconditionError):
        assemble([st, st])


def test_assemble_requires_common_mass():
    sys1, states = _system(n=1)
    other = ParticleState(states[0].c, states[0].dstar, 2 * MASS)
    with pytest.raises(InputError):
        assemble([states[0], other])


# -- gauge transformations -----------------------------------------------------

def _combine(vectors, weights):
    # the per-vector rotation the (2, N, G) stack code replaced
    acc = np.zeros(vectors[0].space.size, dtype=complex)
    for w, v in zip(weights, vectors):
        acc += w * v.coeffs
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
        kets = [st.c[a] for st in states]
        bras = [st.dstar[a] for st in states]
        _assert_same_bits(out.kets[a], np.stack([_combine(kets, U[i, :]) for i in range(n)]))
        _assert_same_bits(out.bras[a],
                          np.stack([_combine(bras, U.conj()[i, :]) for i in range(n)]))
    s = U[:, 0]
    for a, cvec in enumerate(expectation(s, sys_n, "C")):
        _assert_same_bits(cvec.coeffs, _combine([st.c[a] for st in states], s.conj()))

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
    traj = evolve_matrix_classical(sys3, 1.5, 300)
    X, P = sys3.x_matrices(), sys3.p_matrices()
    pred = X + np.einsum("mn,nij->mij", ETA, P) / MASS * 1.5
    assert np.abs(traj.X[-1] - pred).max() < 1e-9
    assert np.abs(traj.P[-1] - P).max() == 0.0


def test_classical_eigenvalues_are_particle_trajectories():
    sys3, states = _system(n=3)
    traj = evolve_matrix_classical(sys3, 1.0, 200)
    eigs = np.sort(np.linalg.eigvalsh(traj.X[-1][0]))
    direct = np.sort([st.x_vec()[0] + (ETA @ st.p_vec())[0] / MASS for st in states])
    assert np.abs(eigs - direct).max() < 1e-9


def test_classical_flow_commutes_with_gauge():
    sys3, _ = _system(n=3)
    rng = np.random.default_rng(9)
    U = random_unitary(rng, 3)
    a = evolve_matrix_classical(gauge_transform(sys3, U), 1.0, 100)
    b = evolve_matrix_classical(sys3, 1.0, 100)
    rotated = np.stack([U @ b.X[-1][mu] @ U.conj().T for mu in range(4)])
    assert np.abs(a.X[-1] - rotated).max() < 1e-10


def test_classical_flow_independent_of_phi():
    sys3, states = _system(n=3)
    other = assemble(states, phi=np.array([0.3, 1.7, -2.0]))
    a = evolve_matrix_classical(sys3, 1.0, 50)
    b = evolve_matrix_classical(other, 1.0, 50)
    assert np.abs(a.X[-1] - b.X[-1]).max() == 0.0


def test_classical_requires_hbar_zero():
    sys3, _ = _system(n=2, hbar=1.0)
    with pytest.raises(PreconditionError):
        evolve_matrix_classical(sys3, 1.0, 10)


# -- quantum sector ---------------------------------------------------------------

def test_truncated_oscillator_commutator_support():
    X, P = truncated_oscillator(20, hbar=1.0)
    comm = X @ P - P @ X
    defect = comm - 1j * np.eye(20)
    # support only in the last diagonal entry
    defect[19, 19] = 0.0
    assert np.abs(defect).max() < 1e-13
    assert np.abs(X - X.conj().T).max() == 0.0
    assert np.abs(P - P.conj().T).max() == 0.0


def test_heisenberg_momentum_frozen_commutator_unitary_equivalent():
    X0, P0 = truncated_oscillator(20, hbar=1.0)
    taubar = 0.4
    traj = evolve_heisenberg(X0, P0, 1.0, MASS, taubar, 10_000)
    assert np.abs(traj.P[-1] - P0).max() < 1e-13
    assert traj.hermiticity_drift() < 1e-10
    # the conserved object: [X, P] evolves by the similarity exp(i H taubar / hbar);
    # oracle built from an independent eigendecomposition of H
    H = (P0 @ P0 - MASS ** 2 * np.eye(20)) / (2 * MASS)
    w, V = np.linalg.eigh(H)
    U = (V * np.exp(1j * w * taubar)) @ V.conj().T
    comm0 = X0 @ P0 - P0 @ X0
    commT = traj.X[-1] @ traj.P[-1] - traj.P[-1] @ traj.X[-1]
    assert np.abs(commT - U @ comm0 @ U.conj().T).max() < 1e-9
    # spectrum of the commutator is exactly conserved
    assert np.abs(np.sort(np.linalg.eigvalsh(commT / 1j))
                  - np.sort(np.linalg.eigvalsh(comm0 / 1j))).max() < 1e-9


def test_covariant_gamma_zero_matches_heisenberg():
    X0, P0 = truncated_oscillator(12, hbar=1.0)
    a = evolve_heisenberg(X0, P0, 1.0, MASS, 0.5, 500)
    b = covariant_evolve(X0, P0, 1.0, MASS, lambda t, X, P: np.zeros_like(X0),
                         0.5, 500)
    assert np.abs(a.X[-1] - b.X[-1]).max() == 0.0


def test_schrodinger_gauge_freezes_matrices():
    X0, P0 = truncated_oscillator(20, hbar=1.0)
    traj = covariant_evolve(X0, P0, 1.0, MASS, schrodinger_gauge(1.0, MASS), 1.0, 1000)
    assert np.abs(traj.X[-1] - X0).max() < 1e-9
    assert np.abs(traj.P[-1] - P0).max() < 1e-9


def test_covariant_flow_matches_reference_rk4_loop():
    # reference: classic RK4 written out on X and P separately; stepping the
    # stacked pair through the shared integrator must agree bit for bit
    rng = np.random.default_rng(4)
    n, hbar, tau_end, steps = 8, 0.7, 0.9, 60
    X0, P0 = truncated_oscillator(n, hbar=hbar)
    G0 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    G0 = 0.5 * (G0 + G0.conj().T)

    def gamma(t, X, P):
        return np.cos(t) * G0 + 0.1 * (X @ X)

    def rhs(t, X, P):
        H = (P @ P - MASS ** 2 * np.eye(n)) / (2.0 * MASS)
        G = gamma(t, X, P)
        return (1j * (G @ X - X @ G) + (X @ H - H @ X) / (1j * hbar),
                1j * (G @ P - P @ G) + (P @ H - H @ P) / (1j * hbar))

    h = tau_end / steps
    X, P = X0.astype(complex), P0.astype(complex)
    for k in range(steps):
        t = k * h
        k1x, k1p = rhs(t, X, P)
        k2x, k2p = rhs(t + h / 2, X + h / 2 * k1x, P + h / 2 * k1p)
        k3x, k3p = rhs(t + h / 2, X + h / 2 * k2x, P + h / 2 * k2p)
        k4x, k4p = rhs(t + h, X + h * k3x, P + h * k3p)
        X = X + (h / 6) * (k1x + 2 * k2x + 2 * k3x + k4x)
        P = P + (h / 6) * (k1p + 2 * k2p + 2 * k3p + k4p)
    traj = covariant_evolve(X0, P0, hbar, MASS, gamma, tau_end, steps)
    assert np.array_equal(traj.X[-1], X)
    assert np.array_equal(traj.P[-1], P)


def _stepped_commutator_flow(X0, P0, hbar, gamma, tau_end, steps):
    """Reference: one system's flow as stepped before the flows shared a batch.

    RK4 on the (2, N, N) pair with its own H per stage; ``gamma(t, X, P)``
    or None for the Heisenberg picture.  Returns the (steps + 1, 2, N, N) run.
    """
    n = X0.shape[0]

    def rhs(t, Y):
        H = (Y[1] @ Y[1] - MASS ** 2 * np.eye(n)) / (2.0 * MASS)
        commutator = (Y @ H - H @ Y) / (1j * hbar)
        if gamma is None:
            return commutator
        G = gamma(t, *Y)
        return 1j * (G @ Y - Y @ G) + commutator

    Y0 = np.stack((X0, P0)).astype(complex)
    return np.stack([Y0, *rk4(rhs, Y0, 0.0, tau_end / steps, steps)])


@pytest.mark.parametrize("hbar,steps", [
    pytest.param(1.0, 1, id="1"), pytest.param(1.0, 7, id="7"), pytest.param(1.0, 400, id="400"),
    # the picture-equivalence criterion's size
    pytest.param(1.0, 2000, id="2000"), pytest.param(0.7, 2000, id="2000-hbar0.7")])
def test_stacked_pictures_match_separate_stepped_flows(hbar, steps):
    # evolve_pictures keeps only the end states: each must be the last row of
    # its stepped reference and of its single-system flow, bit for bit
    X0, P0 = truncated_oscillator(20, hbar=hbar)
    heis, frozen = evolve_pictures(X0, P0, hbar, MASS, 0.8, steps)
    ref_heis = _stepped_commutator_flow(X0, P0, hbar, None, 0.8, steps)
    ref_frozen = _stepped_commutator_flow(X0, P0, hbar, schrodinger_gauge(hbar, MASS), 0.8, steps)
    for traj, ref in ((heis, ref_heis), (frozen, ref_frozen)):
        assert traj.X.shape == traj.P.shape == (1, 20, 20)
        assert np.array_equal(traj.X[0], ref[-1, 0])
        assert np.array_equal(traj.P[0], ref[-1, 1])
    single = evolve_heisenberg(X0, P0, hbar, MASS, 0.8, steps)
    gauged = covariant_evolve(X0, P0, hbar, MASS, schrodinger_gauge(hbar, MASS), 0.8, steps)
    for a, b in ((single, heis), (gauged, frozen)):
        assert np.array_equal(a.taubar[-1:], b.taubar)
        assert np.array_equal(a.X[-1:], b.X) and np.array_equal(a.P[-1:], b.P)


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
    traj = evolve_heisenberg(X0, P0, hbar, MASS, taubar, steps)
    assert np.abs(traj.X[-1] - oracle).max() <= 1e-11


def _random_flows(flow, X0, P0, hbar, G0, tau_end, steps):
    """(flow's trajectories, the stepped reference runs) for one random pair."""
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
        trajs, refs = _random_flows(flow, X0, P0, hbar, G0, 0.5, 40)
        for traj, ref in zip(trajs, refs):
            assert traj.hermiticity_drift() == 0.0
            bound = 1e-14 * max(1.0, np.abs(ref).max())
            rows = ref[-len(traj.taubar):]      # evolve_pictures keeps the end state only
            assert np.abs(traj.X - rows[:, 0]).max() <= bound
            assert np.abs(traj.P - rows[:, 1]).max() <= bound


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
            np.array([0.6, 0.8j]), lambda t: np.eye(2), 0.1, steps),
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
    with np.errstate(over="ignore", invalid="ignore"):
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
        evolve_state(s0, lambda t: np.full((2, 2), np.nan), 1.0, 10)


def test_hermiticity_drift_propagates_nan():
    # Python's max(0.0, nan) is 0.0: a NaN in P must reach the drift
    X0, P0 = truncated_oscillator(4)
    P = np.stack([P0, P0]).astype(complex)
    P[1, 2, 1] = np.nan
    traj = MatrixTrajectory(np.array([0.0, 0.1]), np.stack([X0, X0]), P)
    assert np.isnan(traj.hermiticity_drift())


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
    assert np.allclose(cvec[0].coeffs, states[1].c[0].coeffs)


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


def test_expectation_rejects_nan_state():
    sys3, _ = _system(n=2)
    with pytest.raises(InputError):
        expectation(np.array([1.0, np.nan]), sys3, "X")


def test_classical_expectation_stays_on_integral_curve():
    sys3, states = _system(n=3)
    traj = evolve_matrix_classical(sys3, 1.0, 100)
    s = np.zeros(3, dtype=complex)
    s[2] = 1.0
    # Gamma = 0: s constant; <s|X(t)|s> must track particle 2 exactly
    val = complex(s.conj() @ traj.X[-1][0] @ s)
    expect = states[2].x_vec()[0] + (ETA @ states[2].p_vec())[0] / MASS
    assert abs(val.real - expect) < 1e-9


def test_evolve_state_gamma_zero_constant_and_norm_preserved():
    s0 = np.array([0.6, 0.8j], dtype=complex)
    out = evolve_state(s0, lambda t: np.zeros((2, 2)), 1.0, 100)
    assert np.abs(out - s0).max() == 0.0
    rng = np.random.default_rng(8)
    H = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    H = 0.5 * (H + H.conj().T)
    s0 = rng.normal(size=8) + 1j * rng.normal(size=8)
    s0 = s0 / np.linalg.norm(s0)
    out = evolve_state(s0, lambda t: -H, 1.0, 10000)
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
    out = evolve_state(s0, lambda t: -H_nr / hbar, taubar, steps)
    w, V = np.linalg.eigh(H_nr)
    oracle = (V * np.exp(-1j * w * taubar / hbar)) @ V.conj().T @ s0
    assert np.abs(out - oracle).max() < 1e-10


def test_picture_equivalence_expectations():
    nlev = 20
    X0, P0 = truncated_oscillator(nlev, hbar=1.0)
    taubar = 0.8
    steps = 1200
    heis = evolve_heisenberg(X0, P0, 1.0, MASS, taubar, steps)
    # state supported on the interior levels, away from the truncation corner
    s0 = np.zeros(nlev, dtype=complex)
    s0[1], s0[3], s0[5] = 0.6, 0.64, 0.48
    s0 /= np.linalg.norm(s0)
    H = (P0 @ P0 - MASS ** 2 * np.eye(nlev)) / (2 * MASS)
    sT = evolve_state(s0, lambda t: -H, taubar, steps)
    lhs = complex(s0.conj() @ heis.X[-1] @ s0)
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
