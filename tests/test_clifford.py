"""Generator spaces, the bullet product, and Gram resolutions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffdyn.clifford import (
    allocate,
    allocate_blocks,
    bullet,
    bullet_gram,
    hermitian_eig,
    hermitian_from_json,
    hermitian_to_json,
    resolve_hermitian,
    resolve_pair,
    standard_basis,
    validate_hermitian,
)
from cliffdyn.errors import InputError, PreconditionError
from cliffdyn.sampling import random_hermitian, random_unitary
from cliffdyn.tolerances import DEFAULT


def test_allocate_generator_norms():
    space = allocate(2, 2)
    g = np.eye(4, dtype=complex)          # generator k is row k
    assert bullet(g[0], g[0], space.signs) == 2.0
    assert bullet(g[1], g[1], space.signs) == 2.0
    assert bullet(g[2], g[2], space.signs) == -2.0
    assert bullet(g[0], g[2], space.signs) == 0.0
    assert bullet(g[0], g[1], space.signs) == 0.0


def test_allocate_rejects_empty():
    with pytest.raises(InputError):
        allocate(0, 0)


def test_blocks_are_disjoint():
    space = allocate_blocks([("a", 1, 1), ("b", 2, 0)])
    sa = space.block_slice("a")
    sb = space.block_slice("b")
    assert sa == slice(0, 2)
    assert sb == slice(2, 4)
    assert space.block_signature("b") == (2, 0)
    # cross-block products vanish
    g = np.eye(space.size, dtype=complex)
    assert bullet(g[0], g[2], space.signs) == 0.0


def test_vector_requires_matching_length():
    space = allocate(2, 1)
    row = np.ones(3, dtype=complex)
    for a, b in ((np.ones(2), row), (row, np.ones(2)), (row, np.ones((1, 3)))):
        with pytest.raises(InputError, match="space size 3"):
            bullet(a, b, space.signs)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_bullet_symmetric_and_bilinear(seed):
    rng = np.random.default_rng(seed)
    space = allocate(3, 2)
    signs = space.signs
    u, v, w = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    alpha = complex(rng.normal(), rng.normal())
    assert bullet(u, v, signs) == pytest.approx(bullet(v, u, signs), abs=1e-12)
    lhs = bullet(alpha * u + v, w, signs)
    rhs = alpha * bullet(u, w, signs) + bullet(v, w, signs)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_conj_involution_and_product_conjugation():
    rng = np.random.default_rng(7)
    space = allocate(2, 3)
    u, v = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    assert np.array_equal(u.conj().conj(), u)
    assert bullet(u.conj(), v.conj(), space.signs) == pytest.approx(
        np.conj(bullet(u, v, space.signs)), rel=1e-12, abs=1e-12)


def test_standard_basis_product_table():
    space = allocate(4, 4)
    E, F = standard_basis(space)
    signs = space.signs
    assert E.shape == F.shape == (2, space.size)
    for i in range(2):
        for j in range(2):
            d = 1.0 if i == j else 0.0
            assert bullet(E[i], E[j].conj(), signs) == pytest.approx(-d, abs=1e-14)
            assert bullet(F[i], F[j].conj(), signs) == pytest.approx(+d, abs=1e-14)
            assert bullet(E[i], E[j], signs) == pytest.approx(0.0, abs=1e-14)
            assert bullet(F[i], F[j], signs) == pytest.approx(0.0, abs=1e-14)
            assert bullet(E[i], F[j], signs) == pytest.approx(0.0, abs=1e-14)
            assert bullet(E[i], F[j].conj(), signs) == pytest.approx(0.0, abs=1e-14)
    # the null combination advertised for zero eigenvalues
    null = E[0] + F[0]
    assert bullet(null, null.conj(), signs) == pytest.approx(0.0, abs=1e-14)


def test_standard_basis_requires_matched_even_signature():
    with pytest.raises(PreconditionError):
        standard_basis(allocate(3, 3))
    with pytest.raises(PreconditionError):
        standard_basis(allocate(4, 2))


def test_unknown_block_label_is_a_precondition_error():
    # block_signature looks the label up as block_slice does, not by a bare KeyError
    space = allocate(2, 2)
    for call in (lambda: space.block_signature("nope"),
                 lambda: resolve_hermitian(np.eye(1), space, "nope"),
                 lambda: standard_basis(space, "nope")):
        with pytest.raises(PreconditionError, match="no block labelled 'nope'"):
            call()


def test_hermitian_eig_diagonal_and_pauli():
    U, lam = hermitian_eig(np.diag([3.0, -1.0]))
    assert np.allclose(lam, [3.0, -1.0])
    assert np.allclose(np.abs(U), np.eye(2))
    U, lam = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(lam, [1.0, -1.0])


def test_hermitian_eig_random_reconstruction():
    rng = np.random.default_rng(11)
    for _ in range(10):
        H = random_hermitian(rng, 5)
        U, lam = hermitian_eig(H)
        recon = (U * lam) @ U.conj().T
        assert np.abs(recon - H).max() < 1e-11
        assert np.abs(U.conj().T @ U - np.eye(5)).max() < 1e-11
        # independent oracle: same spectrum as numpy's eigensolver
        ref = np.sort(np.linalg.eigvalsh(H))
        assert np.allclose(np.sort(lam), ref, atol=1e-11)
        # descending order
        assert np.all(np.diff(lam) <= 1e-15)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(InputError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hermitian_eig_rejects_non_finite(bad):
    with pytest.raises(InputError, match="non-finite"):
        hermitian_eig(np.array([[1.0, bad], [bad, 0.0]]))


def test_resolve_degenerate_spectrum_n8():
    rng = np.random.default_rng(8)
    U = random_unitary(rng, 8)
    H = (U * [2.0, 2.0, 2.0, -1.0, -1.0, 0.0, 0.0, 0.0]) @ U.conj().T
    H = 0.5 * (H + H.conj().T)
    V, lam = hermitian_eig(H)
    assert np.abs((V * lam) @ V.conj().T - H).max() < 1e-11
    assert np.all(np.diff(lam) <= 0.0)
    assert np.allclose(lam, [2, 2, 2, 0, 0, 0, -1, -1], atol=1e-12)
    res = resolve_hermitian(H, allocate(16, 16))
    assert res.gram_residual() < 1e-10
    assert res.null_residual() < 1e-12


def test_resolve_diag_plus_minus():
    space = allocate(4, 4)
    res = resolve_hermitian(np.diag([1.0, -1.0]), space)
    E, F = standard_basis(space)
    # c_1 = F_1 and c_2 = E_2 exactly (descending eigenvalue order)
    assert np.allclose(res.coeffs[0], F[0])
    assert np.allclose(res.coeffs[1], E[1])
    assert res.gram_residual() < 1e-14
    assert res.null_residual() < 1e-14


def test_resolve_zero_matrix_unit_null_vector():
    space = allocate(2, 2)
    res = resolve_hermitian(np.zeros((1, 1)), space)
    E, F = standard_basis(space)
    assert np.allclose(res.coeffs[0], E[0] + F[0])
    assert bullet(res.coeffs[0], res.coeffs[0].conj(), space.signs) == pytest.approx(
        0.0, abs=1e-14)


def test_resolve_random_mixed_signature():
    rng = np.random.default_rng(23)
    H = random_hermitian(rng, 4, n_zero=1)
    space = allocate(8, 8)
    res = resolve_hermitian(H, space)
    assert res.gram_residual() < 1e-10
    assert res.null_residual() < 1e-12
    assert res.gram_residual() <= DEFAULT.gram_residual
    assert res.null_residual() <= DEFAULT.gram_null


def test_resolve_property_suite_small():
    # desk-size slice of acceptance criterion 1
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        n_zero = int(rng.integers(0, n + 1)) if rng.random() < 0.4 else 0
        H = random_hermitian(rng, n, n_zero=n_zero)
        space = allocate(2 * n, 2 * n)
        res = resolve_hermitian(H, space)
        assert res.gram_residual() < 1e-10
        assert res.null_residual() < 1e-12


def test_resolve_insufficient_space():
    with pytest.raises(PreconditionError):
        resolve_hermitian(np.eye(3), allocate(4, 4))


def _pair_grams(c, dstar, signs):
    x = np.array([[bullet(c[a], c[b].conj(), signs) for b in range(2)] for a in range(2)])
    p = np.array([[bullet(dstar[a], dstar[b].conj(), signs) for b in range(2)]
                  for a in range(2)])
    m = np.array([[bullet(c[a], dstar[b], signs) for b in range(2)] for a in range(2)])
    return x, p, m


def test_resolve_pair_disjoint_blocks_m_zero():
    x = np.diag([2.0, 1.0])
    p = np.diag([1.0, 0.5])
    c, dstar, space = resolve_pair(x, p, np.zeros((2, 2)))
    gx, gp, gm = _pair_grams(c, dstar, space.signs)
    assert np.abs(gx - x).max() < 1e-12
    assert np.abs(gp - p).max() < 1e-12
    assert np.abs(gm).max() < 1e-13


def test_resolve_pair_noether_constrained():
    mu = 1.0
    x = np.eye(2)
    p = np.eye(2)
    c, dstar, space = resolve_pair(x, p, mu * np.eye(2))
    _, _, gm = _pair_grams(c, dstar, space.signs)
    assert np.abs(gm - mu * np.eye(2)).max() < 1e-13


def test_resolve_pair_random_all_blocks():
    rng = np.random.default_rng(31)
    for _ in range(5):
        x = random_hermitian(rng, 2)
        p = random_hermitian(rng, 2)
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        c, dstar, space = resolve_pair(x, p, M)
        gx, gp, gm = _pair_grams(c, dstar, space.signs)
        assert np.abs(gx - x).max() < 1e-10
        assert np.abs(gp - p).max() < 1e-10
        assert np.abs(gm - M).max() < 1e-10
        # same-kind products stay null
        for a in range(2):
            for b in range(2):
                assert abs(bullet(c[a], c[b], space.signs)) < 1e-12
                assert abs(bullet(dstar[a], dstar[b], space.signs)) < 1e-12


def test_resolve_pair_requires_h_block():
    space = allocate_blocks([("c", 4, 4), ("d", 4, 4)])
    with pytest.raises(PreconditionError):
        resolve_pair(np.eye(2), np.eye(2), np.zeros((2, 2)), space)


def test_hermitian_json_roundtrip():
    rng = np.random.default_rng(3)
    H = random_hermitian(rng, 3)
    H2 = hermitian_from_json(hermitian_to_json(H))
    assert np.abs(H - H2).max() < 1e-15
    with pytest.raises(InputError):
        hermitian_from_json({"n": 2, "re": [[0, 1], [1, 0]], "im": [[0, 1], [1, 0]]})


def test_validate_hermitian_symmetrizes():
    H = np.array([[1.0, 1e-16j], [0.0, 2.0]])
    out = validate_hermitian(H)
    assert np.abs(out - out.conj().T).max() == 0.0


def test_validate_hermitian_halves_before_it_sums():
    # 0.5 H + 0.5 H^dagger is 0.5 (H + H^dagger) bit for bit in the normal
    # range, and stays finite for finite entries near the float64 limit
    rng = np.random.default_rng(2)
    for n in range(1, 9):
        H = random_hermitian(rng, n) * 10.0 ** rng.uniform(-300, 300)
        H[np.triu_indices(n, 1)] *= 1 + 1e-15          # within hermitian_input
        assert_same_bits(validate_hermitian(H), 0.5 * (H + H.conj().T))
    big = validate_hermitian(np.diag([1.7e308, 1.0]))
    assert np.array_equal(big, np.diag([1.7e308, 1.0]))



def test_validate_hermitian_refuses_an_entry_whose_modulus_overflows(recwarn):
    # |1.7e308 + 1.7e308j| overflows, so no tolerance is finite: the matrix used
    # to pass and come back as diag(1.7e308, 1), its imaginary part dropped
    with pytest.raises(InputError, match="^matrix is out of range: the modulus of an entry "
                                         "overflows$"):
        validate_hermitian(np.diag([1.7e308 + 1.7e308j, 1.0]))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

# -- packed paths against the per-vector references ---------------------------
#
# The references are the loops the coefficient-stack code replaced: one bullet
# per Gram entry and one row sum per (row, eigendirection).  The resolution rows
# must agree with them bit for bit, signed zeros included.  The Gram tables are
# bullet_gram's product, which sums in another order than bullet's, so they
# agree with the loop to the float64 bound of both sums.

EPS = np.finfo(float).eps


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a.view(float)), np.signbit(b.view(float)))


def _seeded_resolutions(seed, count=40):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 9))
        n_zero = int(rng.integers(0, n + 1)) if rng.random() < 0.35 else 0
        H = random_hermitian(rng, n, n_zero=n_zero)
        yield H, resolve_hermitian(H, allocate(2 * n, 2 * n))


def _bullet_loop(rows, signs, conj=True):
    """bullet(v_i, conj(v_j)), or bullet(v_i, v_j) without ``conj``, one entry at a time."""
    return np.array([[bullet(vi, vj.conj() if conj else vj, signs) for vj in rows]
                     for vi in rows])


def _loop_bound(rows, signs):
    """Rounding of both sides' G-term sums of complex products: 2 (G + 2) eps sum |terms|."""
    mag = np.abs(rows)
    return 2 * (len(signs) + 2) * EPS * bullet_gram(mag, mag, np.abs(signs))


def _within(got, ref, bound):
    return got.shape == ref.shape and bool(np.all(np.abs(got - ref) <= bound))


@pytest.mark.parametrize("seed", [0, 7])
def test_gram_tables_match_bullet_loop(seed):
    for _, res in _seeded_resolutions(seed):
        rows, signs = res.coeffs, res.space.signs
        bound = _loop_bound(rows, signs)
        assert _within(res.realized_gram(), _bullet_loop(rows, signs), bound)
        assert _within(bullet_gram(rows, rows, signs), _bullet_loop(rows, signs, conj=False),
                       bound)
        assert res.null_residual() == float(np.abs(bullet_gram(rows, rows, signs)).max())


@pytest.mark.parametrize("mutation", ["unconjugated", "unsigned"])
def test_gram_bound_rejects_a_wrong_reference(mutation):
    # the bound admits a reordered sum, not a loop that drops the conjugate or the signs
    excess = []
    for _, res in _seeded_resolutions(0):
        rows, signs = res.coeffs, res.space.signs
        wrong = (_bullet_loop(rows, signs, conj=False) if mutation == "unconjugated"
                 else _bullet_loop(rows, np.abs(signs)))
        excess.append(np.max(np.abs(res.realized_gram() - wrong) - _loop_bound(rows, signs)))
    assert max(excess) > 1e-6


@pytest.mark.parametrize("seed", [1, 12345])
def test_resolve_rows_match_per_entry_accumulation(seed):
    for H, res in _seeded_resolutions(seed):
        space = res.space
        E, F = standard_basis(space)
        U, lam = hermitian_eig(H)
        zero_cut = 1e-9 * np.abs(lam).max(initial=0.0)
        n = H.shape[0]
        for i in range(n):
            acc = np.zeros(space.size, dtype=complex)
            for k in range(n):
                if abs(lam[k]) <= zero_cut:
                    basis, weight = E[k] + F[k], 1.0
                elif lam[k] > 0:
                    basis, weight = F[k], np.sqrt(lam[k])
                else:
                    basis, weight = E[k], np.sqrt(-lam[k])
                acc = acc + U[i, k] * weight * basis
            assert_same_bits(res.coeffs[i], acc)


@pytest.mark.parametrize("seed", [0, 11])
def test_resolution_of_a_stack_equals_per_matrix_calls_bit_for_bit(seed):
    # proposition resolves its matrices one stack per size, and bracket-reduction
    # its states one stack: each matrix's eigenpairs, rows and residuals are its
    # own call's bits, and a single matrix's residuals are floats
    rng = np.random.default_rng(seed)
    for n in (1, 3, 8):
        H = np.stack([random_hermitian(rng, n, n_zero=k % (n + 1)) for k in range(9)])
        space = allocate(2 * n, 2 * n)
        (U, lam), res = hermitian_eig(H), resolve_hermitian(H, space)
        for k, Hk in enumerate(H):
            (Uk, lamk), one = hermitian_eig(Hk), resolve_hermitian(Hk, space)
            for a, b in ((U[k], Uk), (lam[k], lamk), (res.coeffs[k], one.coeffs),
                         (res.target[k], one.target)):
                assert_same_bits(np.ascontiguousarray(a), np.ascontiguousarray(b))
            assert isinstance(one.gram_residual(), float)
            assert (res.gram_residual()[k], res.null_residual()[k]) \
                == (one.gram_residual(), one.null_residual())
    x, p = (np.stack([random_hermitian(rng, 2) for _ in range(6)]) for _ in range(2))
    M = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
    C, D, _ = resolve_pair(x, p, M)
    for k in range(6):
        Ck, Dk, _ = resolve_pair(x[k], p[k], M[k])
        assert_same_bits(C[k], Ck)
        assert_same_bits(D[k], Dk)


def test_validate_hermitian_names_the_first_failing_matrix_of_a_stack():
    H = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.5, 0.0]]), np.array([[0.0, 3.0], [0.0, 0.0]])])
    with pytest.raises(InputError, match=r"^matrix is not Hermitian: max deviation 5\.000e-01 > "):
        validate_hermitian(H)
    with pytest.raises(InputError, match="^expected a square matrix, got shape"):
        validate_hermitian(np.zeros((3, 2, 3)))
    assert_same_bits(validate_hermitian(H[:1]), validate_hermitian(H[0])[None])


def test_resolve_pair_rows_match_vector_arithmetic():
    rng = np.random.default_rng(31)
    for _ in range(10):
        x, p = random_hermitian(rng, 2), random_hermitian(rng, 2)
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        C, D, space = resolve_pair(x, p, M)
        Eh, Fh = standard_basis(space, "h")
        c_ref = [v + (Eh[A] + Fh[A])
                 for A, v in enumerate(resolve_hermitian(x, space, "c").coeffs)]
        d_ref = list(resolve_hermitian(p, space, "d").coeffs)
        for B in range(2):
            for i in range(2):
                d_ref[B] = d_ref[B] + complex(M[i, B]) * ((Eh[i] - Fh[i]).conj()
                                                          * complex(-0.5))
        assert_same_bits(C, np.stack(c_ref))
        assert_same_bits(D, np.stack(d_ref))


def test_bullet_gram_is_the_bullet_table():
    rng = np.random.default_rng(4)
    space = allocate(3, 5)
    V = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
    W = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
    ref = np.array([[bullet(v, w, space.signs) for w in W] for v in V])
    assert np.allclose(bullet_gram(V, W, space.signs), ref, rtol=0, atol=1e-14)
