"""Sigma dictionary, epsilon flips, and the four-vector contraction identity."""

import numpy as np
import pytest

from cliffdyn.sampling import random_fourvector
from cliffdyn.spinors import (
    DP_DOWN,
    DX_UP,
    EPS_LO,
    EPS_UP,
    covec_to_spinor_down,
    eps_flip_pair,
    flip_both,
    minkowski_dot,
    minkowski_norm,
    spinor_down_to_covec,
    spinor_to_vec,
    vec_to_spinor,
)


def test_vec_to_spinor_stack_equals_per_vector_calls_bit_for_bit():
    # c30-identity draws and converts its vectors as one stack; the draw takes the
    # per-vector calls' stream, and each matrix is the per-vector call's bits,
    # signed zeros included (x^0 + x^3 and x^0 - x^3 vanish on some rows)
    V = random_fourvector(np.random.default_rng(8), complex_valued=True, shape=(300,))
    rng = np.random.default_rng(8)
    assert np.array_equal(V, [random_fourvector(rng, complex_valued=True) for _ in range(300)])
    V[::5, 3], V[1::5, 3], V[2::7, 1:] = V[::5, 0], -V[1::5, 0], 0.0
    S = vec_to_spinor(V)
    assert S.shape == (300, 2, 2)
    for v, s in zip(V, S):
        one = vec_to_spinor(v)
        assert np.array_equal(s, one)
        assert np.array_equal(np.signbit(s.view(float)), np.signbit(one.view(float)))


def test_vec_to_spinor_basis_cases():
    assert np.allclose(vec_to_spinor([1, 0, 0, 0]), np.eye(2))
    assert np.allclose(vec_to_spinor([0, 0, 0, 1]), np.diag([1, -1]))
    assert np.allclose(vec_to_spinor([1, 1, 0, 0]), np.ones((2, 2)))


def test_spinor_to_vec_cases_and_roundtrip():
    assert np.allclose(spinor_to_vec(np.eye(2)), [1, 0, 0, 0])
    # solved by hand from the linear system: diag(2, 0) = sigma_0 + sigma_3
    assert np.allclose(spinor_to_vec(np.diag([2.0, 0.0])), [1, 0, 0, 1])
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = random_fourvector(rng, complex_valued=True)
        assert np.allclose(spinor_to_vec(vec_to_spinor(v)), v, atol=1e-14)


def test_hermiticity_for_real_vectors():
    rng = np.random.default_rng(1)
    v = random_fourvector(rng)
    S = vec_to_spinor(v)
    assert np.abs(S - S.conj().T).max() < 1e-15


def test_minkowski_norm_is_metric_contraction():
    assert minkowski_norm(np.eye(2)) == pytest.approx(1.0)
    assert minkowski_norm(np.diag([1.0, -1.0])) == pytest.approx(-1.0)
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = random_fourvector(rng)
        S = vec_to_spinor(v)
        assert abs(minkowski_norm(S) - minkowski_dot(v, v)) < 1e-12


def _contraction_identity_residual(v):
    """|V_{AE} V^{BE} - delta_A^B (V_{FE} V^{FE}) / 2|, relative."""
    up = vec_to_spinor(v)
    down = flip_both(up)
    lhs = down @ up.T                      # (A, B) with E summed
    full = np.sum(down * up)
    rhs = 0.5 * full * np.eye(2)
    scale = max(1.0, abs(full))
    return np.abs(lhs - rhs).max() / scale


def test_contraction_identity_thousand_vectors():
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(1000):
        v = random_fourvector(rng, complex_valued=True)
        worst = max(worst, _contraction_identity_residual(v))
    assert worst < 1e-12


def test_contraction_identity_identity_spinor():
    # for V = (1,0,0,0): V_{FE} V^{FE} = 2 V.V = 2
    up = np.eye(2)
    down = flip_both(up)
    assert np.sum(down * up) == pytest.approx(2.0)


def test_single_flip_squares_to_minus_one():
    rng = np.random.default_rng(3)
    S = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    # flip_both is the first-index flip EPS_UP on the left times the second-index
    # flip EPS_LO on the right; each one, applied twice, is minus the identity
    assert np.allclose(flip_both(S), EPS_UP @ S @ EPS_LO)
    assert np.allclose(EPS_UP @ (EPS_UP @ S), -S)
    assert np.allclose((S @ EPS_LO) @ EPS_LO, -S)


def test_double_raise_lower_is_identity():
    rng = np.random.default_rng(4)
    S = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    once = EPS_UP @ (EPS_UP @ S)
    twice = EPS_UP @ (EPS_UP @ once)
    assert np.allclose(twice, S)
    assert np.allclose(flip_both(flip_both(S)), S)


def test_flip_both_preserves_hermiticity():
    rng = np.random.default_rng(5)
    v = random_fourvector(rng)
    S = flip_both(vec_to_spinor(v))
    assert np.abs(S - S.conj().T).max() < 1e-15


def test_eps_flip_pair_matches_matrix_flip():
    a, b = 1.2 + 0.3j, -0.7 + 2.0j
    flipped = eps_flip_pair([a, b])
    assert flipped[0] == b and flipped[1] == -a


def test_covec_spinor_roundtrip_and_gradient_maps():
    rng = np.random.default_rng(6)
    p = random_fourvector(rng)
    P = covec_to_spinor_down(p)
    assert np.allclose(spinor_down_to_covec(P), p, atol=1e-14)
    assert np.abs(P - P.conj().T).max() < 1e-14
    # the probed gradient tensors are the matrix elements of the linear maps
    assert np.allclose(np.einsum("mab,ab->m", DP_DOWN, P), p, atol=1e-14)
    x = random_fourvector(rng)
    X = vec_to_spinor(x)
    assert np.allclose(np.einsum("mab,ab->m", DX_UP, X), x, atol=1e-14)
