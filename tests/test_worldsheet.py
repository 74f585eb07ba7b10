"""Wave-state construction, field evaluation, residual suites, charges."""

import functools
import math

import numpy as np
import pytest

from cliffdyn.clifford import bullet, bullet_gram
from cliffdyn.errors import InputError, PreconditionError, VerificationError
from cliffdyn.spinors import flip_both, spinor_to_vec
from cliffdyn.worldsheet import (
    ETA_WS,
    Curve,
    arc_curve,
    build_wave_state,
    constant_time_curve,
    curve_polymomenta,
    dilaton,
    dstar_upper,
    dilaton_residual,
    energy_momentum,
    estimate_order,
    eval_c,
    eval_c_packed,
    eval_dc,
    eval_x,
    eval_x_from_vectors,
    make_mode_spec,
    mode_spec_from_json,
    mode_spec_to_json,
    momentum_and_polymomenta,
    residual_f51,
    residual_f52,
    simpson_weights,
    spinning_mode_spec,
    spinning_string,
    total_momentum,
    wave_residual,
)

MASS = 1.1


def _rich_spec():
    return make_mode_spec(
        mass=MASS, modes=(1, -1, 2, -2),
        k_block=0.3 * np.eye(2),
        a_self={1: np.diag([0.15, 0.18]), -1: np.diag([0.17, 0.14]),
                2: 0.12 * np.eye(2), -2: 0.13 * np.eye(2)},
        a_cross={1: np.array([[0.14, 0.01], [0.02, 0.15]]), 2: 0.115 * np.eye(2)},
        b_self={1: np.diag([0.16, 0.13]), -1: np.diag([0.12, 0.19])},
        b_cross={1: np.array([[0.13, -0.01j], [0.01, 0.12]])})


@pytest.fixture(scope="module")
def rich_state():
    return build_wave_state(_rich_spec())


@pytest.fixture(scope="module")
def two_mode_state():
    return build_wave_state(make_mode_spec(
        mass=MASS, modes=(1, -1),
        k_block=0.3 * np.eye(2),
        a_self={1: np.diag([0.15, 0.18]), -1: np.diag([0.17, 0.14])},
        a_cross={1: np.array([[0.14, 0.01], [0.02, 0.15]])},
        b_self={1: np.diag([0.16, 0.13]), -1: np.diag([0.12, 0.19])},
        b_cross={1: np.array([[0.13, -0.01j], [0.01, 0.12]])}))


@pytest.fixture(scope="module")
def plain_state():
    return build_wave_state(make_mode_spec(mass=MASS, k_block=0.4 * np.eye(2)))


# -- spec validation -----------------------------------------------------------

def test_mode_spec_rejects_forbidden_blocks():
    spec = _rich_spec()
    G = spec.gram.copy()
    i = spec.index("k", 0)
    j = spec.index("l", 0)
    G[i, j] = 0.1
    G[j, i] = 0.1
    with pytest.raises(InputError):
        type(spec)(MASS, spec.modes, G)


def test_mode_spec_rejects_off_shell_l_block():
    with pytest.raises(InputError):
        make_mode_spec(mass=MASS, l_block=2.0 * MASS ** 3 * np.eye(2))


def test_mode_spec_rejects_zero_mode_number():
    with pytest.raises(InputError):
        make_mode_spec(mass=MASS, modes=(0, 1))


def test_mode_spec_p_squared_on_shell():
    spec = _rich_spec()
    assert spec.p_squared() == pytest.approx(MASS ** 2, rel=1e-12)


# -- construction and dual-route evaluation --------------------------------------

def test_build_state_gram_realized(rich_state):
    assert rich_state.bullet_gram_residual() < 1e-10


def test_dual_route_x_agreement(rich_state):
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        t = rng.uniform(-1.0, 1.5)
        s = rng.uniform(0.0, math.pi)
        diff = np.abs(eval_x(rich_state, t, s)
                      - eval_x_from_vectors(rich_state, t, s)).max()
        worst = max(worst, diff)
    assert worst < 1e-11


def test_sigma_period_two_pi(rich_state):
    a = eval_x(rich_state, 0.7, 0.5)
    b = eval_x(rich_state, 0.7, 0.5 + 2 * math.pi)
    assert np.abs(a - b).max() < 1e-12


def test_single_pair_fourier_coefficient():
    # x must contain an exp(i(tau+sigma)) term whose coefficient is the
    # (a_1, a_-1) cross block; extract it by discrete Fourier sampling in sigma
    cross = np.array([[0.06, 0.01], [0.02, 0.04]])
    spec = make_mode_spec(mass=MASS, modes=(1, -1),
                          a_self={1: np.diag([0.05, 0.02]), -1: np.diag([0.03, 0.01])},
                          a_cross={1: cross})
    st = build_wave_state(spec)
    tau = 0.37
    coef = np.zeros((2, 2), dtype=complex)
    for k in range(4):
        sigma = k * math.pi / 2
        coef += 0.25 * eval_x(st, tau, sigma) * np.exp(-1j * sigma)
    assert np.abs(coef - cross * np.exp(1j * tau)).max() < 1e-12


def test_no_mode_state_is_quadratic(plain_state):
    x0 = eval_x(plain_state, 0.0, 1.0)
    spec = plain_state.spec
    assert np.abs(x0 - spec.block("k", "k")).max() < 1e-14
    x2 = eval_x(plain_state, 2.0, 0.3)
    assert np.abs(x2 - spec.block("k", "k") - 4.0 * spec.block("l", "l")).max() < 1e-13


def test_eval_c_and_derivative_consistency(rich_state):
    # analytic d_beta c against central differences of eval_c
    h = 1e-6
    t, s = 0.43, 1.21
    for beta in range(2):
        if beta == 0:
            fd = [(a - b) / (2 * h) for a, b in
                  zip(eval_c(rich_state, t + h, s), eval_c(rich_state, t - h, s))]
        else:
            fd = [(a - b) / (2 * h) for a, b in
                  zip(eval_c(rich_state, t, s + h), eval_c(rich_state, t, s - h))]
        an = eval_dc(rich_state, t, s, beta)
        for A in range(2):
            assert np.abs(fd[A].coeffs - an[A].coeffs).max() < 1e-9


# -- residual suites ----------------------------------------------------------------

def test_wave_residual_mode_state_small_and_second_order(rich_state):
    r1 = wave_residual(rich_state, h=2e-3).max()
    r2 = wave_residual(rich_state, h=1e-3).max()
    assert r2 < 1e-6
    assert 1.8 <= estimate_order(r1, r2) <= 2.2


def test_wave_residual_no_mode_exact(plain_state):
    assert wave_residual(plain_state, h=1e-3).max() < 1e-6


def test_wave_residual_bosonic_limit():
    spec = make_mode_spec(mass=MASS, modes=(1, -1), l_block=np.zeros((2, 2)),
                          a_self={1: np.diag([0.05, 0.02]), -1: np.diag([0.03, 0.04])},
                          a_cross={1: 0.02 * np.eye(2)}, on_shell=False)
    st = build_wave_state(spec)
    # box x = 2 l.l* = 0: the string degenerates to the wave equation
    assert wave_residual(st, h=1e-3).max() < 1e-6
    with pytest.raises(PreconditionError):
        momentum_and_polymomenta(st)


def test_f51_f52_residuals_and_order(rich_state):
    for fn in (residual_f51, residual_f52):
        r1 = fn(rich_state, h=2e-3).max()
        r2 = fn(rich_state, h=1e-3).max()
        assert r2 < 1e-6
        assert 1.8 <= estimate_order(r1, r2) <= 2.2


def test_momentum_constant_and_polymomenta_shape(rich_state):
    p_up, poly = momentum_and_polymomenta(rich_state)
    # p is built from the l block alone, hence constant over the sheet
    assert np.abs(p_up - rich_state.spec.l_block() / MASS ** 2).max() < 1e-13
    d = poly(0.3, 0.7, 1)
    assert len(d) == 2
    # f51 in its solved form: d_alpha c^A = p^{AE} d_{alpha E}
    dc = eval_dc(rich_state, 0.3, 0.7, 1)
    rhs = [complex(p_up[A, 0]) * d[0] + complex(p_up[A, 1]) * d[1] for A in range(2)]
    for A in range(2):
        assert np.abs(dc[A].coeffs - rhs[A].coeffs).max() < 1e-11


# -- energy-momentum and dilaton -----------------------------------------------------

def test_energy_momentum_symmetric_traceless(rich_state):
    rng = np.random.default_rng(2)
    for _ in range(10):
        t = rng.uniform(-1, 1)
        s = rng.uniform(0, math.pi)
        T = energy_momentum(rich_state, t, s)
        assert T[0, 1] == pytest.approx(T[1, 0], abs=1e-14)
        # eta-trace T^00 - T^11 vanishes on shell
        assert abs(T[0, 0] - T[1, 1]) < 1e-9


def test_energy_momentum_constant_for_no_mode(plain_state):
    T1 = energy_momentum(plain_state, 0.1, 0.5)
    T2 = energy_momentum(plain_state, 1.4, 2.5)
    assert np.abs(T1 - T2).max() < 1e-12
    # oracle: for the non-vibrating string d*^tau = conj(l)/m and d*^sigma = 0,
    # so T^00 = m^2 - p.(d* d*) = -m^2 and T^11 = -m^2, T^01 = 0
    assert T1[0, 0] == pytest.approx(-MASS ** 2, rel=1e-12)
    assert T1[1, 1] == pytest.approx(-MASS ** 2, rel=1e-12)
    assert abs(T1[0, 1]) < 1e-13


def test_dilaton_no_mode_closed_form(plain_state):
    t, s = 0.8, 1.3
    val = dilaton(plain_state, t, s, k_const=0.2, k_lin=(0.1, -0.3))
    expect = 0.2 + 0.1 * t - 0.3 * s + 0.5 * MASS ** 2 * (t ** 2 + s ** 2)
    assert val == pytest.approx(expect, rel=1e-12)
    assert dilaton_residual(plain_state, h=1e-3).max() < 1e-6


def _ref_dilaton(state, tau, sigma):
    """The dilaton with every mode's l contraction taken afresh, one mode at a time."""
    spec = state.spec

    def l_contract(block):
        return complex(np.sum(state.L_down * block))

    m2 = spec.mass ** 2
    phi = 0.5 * m2 * (tau ** 2 + sigma ** 2)
    mode_sum = 0.0 + 0.0j
    for n in spec.modes:
        mode_sum += 0.5 * n ** 2 * l_contract(spec.block(f"a{n}", f"a{n}")) * (tau + sigma) ** 2
        mode_sum += 0.5 * n ** 2 * l_contract(spec.block(f"b{n}", f"b{n}")) * (tau - sigma) ** 2
        if -n in spec.modes:
            mode_sum += l_contract(spec.block(f"a{n}", f"a{-n}")) * np.exp(1j * n * (tau + sigma))
            mode_sum += l_contract(spec.block(f"b{n}", f"b{-n}")) * np.exp(1j * n * (tau - sigma))
    phi += 0.25 / m2 ** 2 * mode_sum
    return float(np.real(phi))


def test_dilaton_matches_per_mode_reference(rich_state):
    assert len(rich_state.spec.modes) == 4
    rng = np.random.default_rng(5)
    for _ in range(50):
        t, s = rng.uniform(-1.5, 1.5), rng.uniform(0.0, math.pi)
        assert dilaton(rich_state, t, s) == _ref_dilaton(rich_state, t, s)


def test_dilaton_residual_second_order(rich_state):
    r1 = dilaton_residual(rich_state, h=2e-3).max()
    r2 = dilaton_residual(rich_state, h=1e-3).max()
    assert r2 < 1e-6
    assert 1.8 <= estimate_order(r1, r2) <= 2.2


def test_dilaton_splits_into_movers_plus_quadratic(rich_state):
    # phi minus the quadratic part satisfies the free wave equation
    def nonquad(t, s):
        return dilaton(rich_state, t, s) - 0.5 * MASS ** 2 * (t ** 2 + s ** 2)

    h, hs = 1e-3, 5e-4
    t, s = 0.5, 1.1
    box = (nonquad(t + h, s) - 2 * nonquad(t, s) + nonquad(t - h, s)) / h ** 2 \
        - (nonquad(t, s + hs) - 2 * nonquad(t, s) + nonquad(t, s - hs)) / hs ** 2
    assert abs(box) < 1e-6


def test_dilaton_integration_constants_affect_only_linear_part(rich_state):
    base = dilaton(rich_state, 0.4, 0.9)
    shifted = dilaton(rich_state, 0.4, 0.9, k_const=1.5, k_lin=(2.0, -1.0))
    assert shifted - base == pytest.approx(1.5 + 2.0 * 0.4 - 1.0 * 0.9, rel=1e-12)


# -- array paths against the per-point references ------------------------------------
#
# The references below are the single-point field code and the per-point
# residual loops that the array paths replaced.  eval_x, the dilaton and the
# box residual keep their arithmetic and must agree with them bit for bit.
# c, its derivatives and the polymomenta are one (points, labels) @
# (labels, 2G) phase-matrix product, which sums the K label terms in another
# order than the per-mode loop; they must agree per entry within
#
#     _ROUND * K * eps * sum_l |Phi_l| |C_l|
#
# (Phi_l the label's phase factor, C_l its coefficient row), a bound carried
# through the bilinear forms, sums and difference quotients built on them.

EPS = np.finfo(float).eps
_ROUND = 4.0                 # the small constant of the rounding bound above


def _label_rows(state, label):
    i = 2 * state.spec.labels.index(label)
    return state.coeffs[i:i + 2]


def _ref_c(state, tau, sigma, modes=None):
    rows = functools.partial(_label_rows, state)
    out = rows("k") + tau * rows("l")
    for n in state.spec.modes if modes is None else modes:
        out = out + np.exp(0.5j * n * (tau + sigma)) * rows(f"a{n}")
        out = out + np.exp(0.5j * n * (tau - sigma)) * rows(f"b{n}")
    return out


def _ref_dc(state, tau, sigma, beta, right=-1):
    """d_beta c, mode by mode; ``right`` is the sign of the right movers in d_sigma c."""
    rows = functools.partial(_label_rows, state)
    out = rows("l").astype(complex).copy() if beta == 0 else np.zeros_like(rows("l"))
    for n in state.spec.modes:
        out = out + (0.5j * n) * np.exp(0.5j * n * (tau + sigma)) * rows(f"a{n}")
        right_term = (0.5j * n) * np.exp(0.5j * n * (tau - sigma)) * rows(f"b{n}")
        out = out + right_term if beta == 0 or right > 0 else out - right_term
    return out


def _round(state, magnitude):
    return _ROUND * len(state.spec.labels) * EPS * magnitude


def _c_bound(state, tau, sigma):
    rows = functools.partial(_label_rows, state)
    mag = np.abs(rows("k")) + abs(tau) * np.abs(rows("l"))
    for n in state.spec.modes:
        mag = mag + np.abs(rows(f"a{n}")) + np.abs(rows(f"b{n}"))
    return _round(state, mag)


def _dstar_bound(state, tau=None, sigma=None):
    """(alpha, A, G) bound on d*: p2^-2 |L_down| times sum_l |Phi_l| |C_l| of d_alpha c.

    The phases have modulus 1, so the bound is the same at every point.
    """
    rows = functools.partial(_label_rows, state)
    out = []
    for beta in range(2):
        mag = np.abs(rows("l")) if beta == 0 else np.zeros(rows("l").shape)
        for n in state.spec.modes:
            mag = mag + 0.5 * abs(n) * (np.abs(rows(f"a{n}")) + np.abs(rows(f"b{n}")))
        out.append(_round(state, state.p2 ** -2 * np.abs(state.L_down) @ mag))
    return np.stack(out)


def _gram_bound(state, x, y, dx, dy):
    """Bound on the change of bullet_gram(x, conj(y)) when x and y move by dx and dy,
    plus the rounding of the G-term sum on each side."""
    signs = np.abs(state.space.signs)
    ax, ay = np.abs(x), np.abs(y)
    return (bullet_gram(ax, dy, signs) + bullet_gram(dx, ay, signs)
            + 2 * state.space.size * EPS * bullet_gram(ax, ay, signs))


def _T_bound(state, tau, sigma):
    ds = np.stack(_ref_dstar(state, tau, sigma))
    dd = _dstar_bound(state)
    dD = _gram_bound(state, ds[:, None], ds[None], dd[:, None], dd[None])
    return np.einsum("AB,abAB->ab", np.abs(state.p_up), 0.5 * (dD + np.swapaxes(dD, 0, 1)))


def _within(got, ref, bound):
    got, ref = np.asarray(got), np.asarray(ref)
    return got.shape == ref.shape and bool(np.all(np.abs(got - ref) <= bound))


def _ref_x(state, tau, sigma):
    spec = state.spec
    x = spec.block("k", "k") + spec.block("l", "l") * tau ** 2
    for n in spec.modes:
        x = x + spec.block(f"a{n}", f"a{n}") + spec.block(f"b{n}", f"b{n}")
        if -n in spec.modes:
            x = x + spec.block(f"a{n}", f"a{-n}") * np.exp(1j * n * (tau + sigma))
            x = x + spec.block(f"b{n}", f"b{-n}") * np.exp(1j * n * (tau - sigma))
    return x


def _ref_dstar(state, tau, sigma, right=-1):
    scale = state.p2 ** -2
    return [scale * ETA_WS[a, a] * (state.L_down @ _ref_dc(state, tau, sigma, a, right).conj())
            for a in range(2)]


def _ref_T(state, tau, sigma):
    ds = np.stack(_ref_dstar(state, tau, sigma))
    D = bullet_gram(ds[:, None], ds[None].conj(), state.space.signs)
    Dsym = 0.5 * (D + np.swapaxes(D, 0, 1))
    T = 0.5 * (3 * state.p2 - state.spec.mass ** 2) * ETA_WS \
        - np.einsum("AB,abAB->ab", state.p_up, Dsym)
    return T.real


def _ref_grid():
    return [(float(t), float(s)) for t in np.linspace(0.15, 1.35, 4)
            for s in np.linspace(0.3, math.pi - 0.3, 4)]


def _ref_wave(state, h):
    x = functools.partial(_ref_x, state)
    ht, hs = h, 0.5 * h
    out = []
    for t, s in _ref_grid():
        box = (x(t + ht, s) - 2 * x(t, s) + x(t - ht, s)) / ht ** 2 \
            - (x(t, s + hs) - 2 * x(t, s) + x(t, s - hs)) / hs ** 2
        out.append(np.abs(box - 2.0 * state.L_up).max())
    return np.array(out)


def _ref_f51(state, h):
    out = []
    for t, s in _ref_grid():
        ds = _ref_dstar(state, t, s)
        worst = []
        for alpha, (dt, dsg) in enumerate(((h, 0.0), (0.0, h))):
            fd = (_ref_c(state, t + dt, s + dsg) - _ref_c(state, t - dt, s - dsg)) / (2 * h)
            rhs = state.p_up @ (ETA_WS[alpha, alpha] * ds[alpha].conj())
            worst.append(np.abs(fd - rhs).max())
        out.append(max(worst))
    return np.array(out)


def _ref_f52(state, h):
    d = functools.partial(_ref_dstar, state)
    ht, hs = h, 0.5 * h
    out = []
    for t, s in _ref_grid():
        div = (d(t + ht, s)[0] - d(t - ht, s)[0]) / (2 * ht) \
            + (d(t, s + hs)[1] - d(t, s - hs)[1]) / (2 * hs)
        out.append(np.abs(div).max())
    return np.array(out)


def _ref_f90(state, h):
    phi = functools.partial(_ref_dilaton, state)
    signs = state.space.signs
    out = []
    for t, s in _ref_grid():
        dtt = (phi(t + h, s) - 2 * phi(t, s) + phi(t - h, s)) / h ** 2
        dss = (phi(t, s + h) - 2 * phi(t, s) + phi(t, s - h)) / h ** 2
        dts = (phi(t + h, s + h) - phi(t + h, s - h)
               - phi(t - h, s + h) + phi(t - h, s - h)) / (4 * h ** 2)
        fd = np.array([[dtt, dts], [dts, dss]])
        ds = _ref_dstar(state, t, s)
        Pi = sum(bullet_gram(ETA_WS[g, g] * ds[g], ds[g].conj(), signs) for g in range(2))
        u = np.stack([ETA_WS[a, a] * np.stack([ds[a][1], -ds[a][0]]) for a in range(2)])
        D = bullet_gram(u[:, None], u[None].conj(), signs)
        Dsym = 0.5 * (D + np.swapaxes(D, 0, 1))
        rhs = -state.spec.mass ** 2 * ETA_WS + np.einsum("AB,abAB->ab", Pi, Dsym).real
        out.append(np.abs(fd - rhs).max())
    return np.array(out)


def _f51_bound(state, h):
    db = _dstar_bound(state)
    out = []
    for t, s in _ref_grid():
        worst = []
        for alpha, (dt, dsg) in enumerate(((h, 0.0), (0.0, h))):
            fd = (_c_bound(state, t + dt, s + dsg) + _c_bound(state, t - dt, s - dsg)) / (2 * h)
            worst.append((fd + np.abs(state.p_up) @ db[alpha]).max())
        out.append(max(worst))
    return np.array(out)


def _f52_bound(state, h):
    db = _dstar_bound(state)
    ht, hs = h, 0.5 * h
    div = 2 * db[0] / (2 * ht) + 2 * db[1] / (2 * hs)
    return np.full(len(_ref_grid()), div.max())


def _f90_bound(state, h):
    signs = state.space.signs
    db = _dstar_bound(state)
    du = db[:, ::-1]                     # u^a = eta (d*^a_1, -d*^a_0): components swap
    out = []
    for t, s in _ref_grid():
        ds = _ref_dstar(state, t, s)
        Pi = sum(bullet_gram(ETA_WS[g, g] * ds[g], ds[g].conj(), signs) for g in range(2))
        dPi = sum(_gram_bound(state, ds[g], ds[g], db[g], db[g]) for g in range(2))
        u = np.stack([ETA_WS[a, a] * np.stack([ds[a][1], -ds[a][0]]) for a in range(2)])
        D = bullet_gram(u[:, None], u[None].conj(), signs)
        dD = _gram_bound(state, u[:, None], u[None], du[:, None], du[None])
        Dsym = np.abs(0.5 * (D + np.swapaxes(D, 0, 1)))
        dDsym = 0.5 * (dD + np.swapaxes(dD, 0, 1))
        rhs = np.einsum("AB,abAB->ab", np.abs(Pi), dDsym) \
            + np.einsum("AB,abAB->ab", dPi, Dsym + dDsym)
        out.append(rhs.max())
    return np.array(out)


def _same(a, b):
    """Equal values and equal sign bits (so -0.0 and 0.0 count as different)."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


def _agrees(got, ref, bound):
    """Bit equality without a bound, else agreement within it."""
    return _same(got, ref) if bound is None else _within(got, ref, bound)


@pytest.fixture(params=["acceptance", "two_mode"])
def any_state(request, rich_state, two_mode_state):
    return rich_state if request.param == "acceptance" else two_mode_state


def test_fields_on_point_arrays_match_per_point_reference(any_state):
    # enough points that an array ** 2 in place of Python's pow shows in some last bit
    rng = np.random.default_rng(8)
    pts = [(rng.uniform(-1.5, 1.5), rng.uniform(0.0, math.pi)) for _ in range(1000)]
    taus, sigmas = (np.array(v).reshape(25, 40) for v in zip(*pts))
    cases = [(eval_x, _ref_x, None), (dilaton, _ref_dilaton, None),
             (eval_c_packed, _ref_c, _c_bound), (energy_momentum, _ref_T, _T_bound),
             (dstar_upper, lambda *a: np.stack(_ref_dstar(*a)), _dstar_bound)]
    for fn, ref, bound in cases:
        def expected(points):
            values = np.array([ref(any_state, t, s) for t, s in points])
            return values, None if bound is None else np.array(
                [bound(any_state, t, s) for t, s in points])

        got = fn(any_state, taus, sigmas)
        assert got.shape[:2] == (25, 40), fn.__name__
        expect, tol = expected(pts)
        assert _agrees(got.reshape(expect.shape), expect, tol), fn.__name__
        # a scalar tau broadcasts against an array of sigmas
        expect, tol = expected([(pts[0][0], s) for s in sigmas[0]])
        assert _agrees(fn(any_state, pts[0][0], sigmas[0]), expect, tol), fn.__name__


def test_fields_at_one_point_keep_their_shape_and_type(rich_state):
    G = rich_state.space.size
    assert isinstance(dilaton(rich_state, 0.3, 0.7), float)
    assert eval_x(rich_state, 0.3, 0.7).shape == (2, 2)
    assert eval_c_packed(rich_state, 0.3, 0.7).shape == (2, G)
    assert dstar_upper(rich_state, 0.3, 0.7).shape == (2, 2, G)
    T = energy_momentum(rich_state, 0.3, 0.7)
    assert T.shape == (2, 2) and T.dtype == float


@pytest.mark.parametrize("h", [1e-3, 2e-3])
def test_residuals_match_per_point_reference(any_state, h):
    for fn, ref, bound in ((wave_residual, _ref_wave, None),
                           (residual_f51, _ref_f51, _f51_bound),
                           (residual_f52, _ref_f52, _f52_bound),
                           (dilaton_residual, _ref_f90, _f90_bound)):
        tol = None if bound is None else bound(any_state, h)
        assert _agrees(fn(any_state, h), ref(any_state, h), tol), fn.__name__


def test_curve_polymomenta_matches_per_node_reference(any_state):
    curve = arc_curve(0.5, 0.2)
    us = np.linspace(0.0, 1.0, 129)
    points, dproj = curve_polymomenta(any_state, curve, us)
    db = _dstar_bound(any_state)
    for m, u in enumerate(us):
        t, s = curve(float(u))
        vt, vs = curve.velocity(float(u))
        ds = _ref_dstar(any_state, t, s)
        assert tuple(points[m]) == (t, s)
        assert _within(dproj[m], vs * ds[0] - vt * ds[1], abs(vs) * db[0] + abs(vt) * db[1])


def test_curve_polymomenta_calls_the_curve_once_on_the_node_array(rich_state):
    base = arc_curve(0.5, 0.2)
    shapes = []

    def recorded(fn):
        return lambda u: (shapes.append(np.shape(u)), fn(u))[1]

    us = np.linspace(0.0, 1.0, 129)
    recording = Curve(recorded(base), recorded(base.velocity))
    points, dproj = curve_polymomenta(rich_state, recording, us)
    assert shapes == [(129,), (129,)]
    ref_points, ref_dproj = curve_polymomenta(rich_state, base, us)
    assert np.array_equal(points, ref_points) and np.array_equal(dproj, ref_dproj)


def test_curve_needs_its_derivative():
    with pytest.raises(TypeError):
        Curve(lambda u: (0.5, math.pi * u))


@pytest.mark.parametrize("mutation", ["mode-dropped", "right-mover-flipped"])
def test_rounding_bound_rejects_a_wrong_reference(rich_state, mutation):
    # the bound admits a reordered sum, not a field with a term missing or mis-signed
    rng = np.random.default_rng(9)
    pts = [(rng.uniform(-1.5, 1.5), rng.uniform(0.0, math.pi)) for _ in range(50)]
    taus, sigmas = np.array(pts).T
    if mutation == "mode-dropped":
        got = eval_c_packed(rich_state, taus, sigmas)
        modes = rich_state.spec.modes[:-1]
        wrong = np.array([_ref_c(rich_state, t, s, modes=modes) for t, s in pts])
        bound = np.array([_c_bound(rich_state, t, s) for t, s in pts])
    else:
        got = dstar_upper(rich_state, taus, sigmas)
        wrong = np.array([np.stack(_ref_dstar(rich_state, t, s, right=+1)) for t, s in pts])
        bound = _dstar_bound(rich_state)
    assert np.max(np.abs(got - wrong) - bound) > 1e-6


def test_non_real_field_at_one_point_raises(rich_state, monkeypatch):
    # tau + sigma = 0 at the first point, where the skewed a-pair term below is real
    taus, sigmas = np.array([0.4, 0.4]), np.array([-0.4, 1.0])
    dilaton(rich_state, taus, sigmas)
    lc = dict(rich_state.l_contractions)
    lc["a1", "a-1"] += 0.1
    monkeypatch.setattr(rich_state, "l_contractions", lc)
    dilaton(rich_state, taus[0], sigmas[0])
    with pytest.raises(VerificationError):
        dilaton(rich_state, taus, sigmas)
    monkeypatch.undo()
    for fn in (dilaton, energy_momentum):
        with pytest.raises(VerificationError):
            fn(rich_state, np.array([0.4, float("nan"), 0.6]), 1.0)
    monkeypatch.setattr(rich_state, "p_up", rich_state.p_up + 0.1j * np.eye(2))
    with pytest.raises(VerificationError):
        energy_momentum(rich_state, taus, sigmas)


# -- total momentum --------------------------------------------------------------------

def test_total_momentum_nonvibrating_pi_squared_identity(plain_state):
    dtot, p_tot = total_momentum(plain_state, constant_time_curve(0.5))
    p_down = flip_both(plain_state.p_up)
    assert np.abs(p_tot - math.pi ** 2 * p_down).max() < 1e-8
    # and the straight curve equals the plain sigma integral of d*^tau
    assert bullet(dtot[0], dtot[0].conj()) == pytest.approx(
        math.pi ** 2 * p_down[0, 0], abs=1e-10)


def test_total_momentum_matches_per_node_reference(rich_state):
    curve = arc_curve(0.5, 0.2)
    us = np.linspace(0.0, 1.0, 257)
    w = simpson_weights(257, us[1] - us[0])
    db = _dstar_bound(rich_state)
    acc = np.zeros((2, rich_state.space.size), dtype=complex)
    mag = np.zeros(acc.shape)
    dacc = np.zeros(acc.shape)
    for u, wu in zip(us, w):
        t, s = curve(float(u))
        vt, vs = curve.velocity(float(u))
        ds = _ref_dstar(rich_state, t, s)
        acc += wu * (vs * ds[0] - vt * ds[1])
        mag += wu * np.abs(vs * ds[0] - vt * ds[1])
        dacc += wu * (abs(vs) * db[0] + abs(vt) * db[1])
    dacc += 2 * len(us) * EPS * mag      # the node sum, taken in another order
    dtot, p_tot = total_momentum(rich_state, curve)
    assert _within(np.stack([v.coeffs for v in dtot]), acc, dacc)
    p_ref = bullet_gram(acc, acc.conj(), rich_state.space.signs)
    assert _within(p_tot, p_ref, _gram_bound(rich_state, acc, acc, dacc, dacc))


def test_total_momentum_path_independent(rich_state):
    _, p_a = total_momentum(rich_state, constant_time_curve(0.5))
    _, p_b = total_momentum(rich_state, arc_curve(0.5, 0.2))
    assert np.abs(p_a - p_b).max() < 1e-8


def test_total_momentum_rejects_bad_curves(rich_state):
    with pytest.raises(PreconditionError):
        total_momentum(rich_state, Curve(lambda u: (0.0, 0.5 + u), lambda u: (0.0, 1.0)))
    timelike = Curve(lambda u: (2.0 * np.sin(math.pi * u), math.pi * u),
                     lambda u: (2.0 * math.pi * np.cos(math.pi * u), math.pi))
    with pytest.raises(PreconditionError):
        total_momentum(rich_state, timelike)


# -- spinning string -------------------------------------------------------------------

def test_spinning_string_closed_forms():
    a_n, k_n = 0.35, 0.8
    st = build_wave_state(spinning_mode_spec(a_n, k_n))
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        t = rng.uniform(0, 2 * math.pi)
        s = rng.uniform(0, math.pi)
        x, y, z, tt = spinning_string(a_n, k_n, t, s)
        v = spinor_to_vec(eval_x(st, t, s)).real
        worst = max(worst, abs(v[0] - tt), abs(v[1] - x), abs(v[2] - y), abs(v[3] - z))
        assert z == 0.0
        assert x ** 2 + y ** 2 == pytest.approx((2 * a_n * math.cos(s)) ** 2, abs=1e-12)
    assert worst < 1e-10


# -- JSON ------------------------------------------------------------------------------

def test_mode_spec_json_roundtrip():
    spec = _rich_spec()
    obj = mode_spec_to_json(spec)
    back = mode_spec_from_json(obj)
    assert back.labels == spec.labels
    assert np.abs(back.gram - spec.gram).max() < 1e-15
    assert back.mass == spec.mass
    with pytest.raises(InputError):
        mode_spec_from_json({"mass": 1.0, "modes": [1], "gram": {"zz.0|k.9": [1, 0]}})


def test_mode_spec_json_rejects_a_component_index_other_than_0_or_1():
    # "k.2" is not a component of k; 2 * index + 2 would address l.0 instead
    obj = mode_spec_to_json(_rich_spec())
    obj["gram"]["k.2|k.2"] = obj["gram"]["l.0|l.0"]
    with pytest.raises(InputError, match="k.2"):
        mode_spec_from_json(obj)


@pytest.mark.parametrize("modes", ["1", [1.7], [True]], ids=["string", "float", "bool"])
def test_mode_spec_json_rejects_modes_that_are_not_integers(modes):
    # int() would read each of these as mode 1
    obj = mode_spec_to_json(make_mode_spec(mass=1.1, modes=(1,), k_block=0.2 * np.eye(2)))
    obj["modes"] = modes
    with pytest.raises(InputError, match="modes must be a list of integers"):
        mode_spec_from_json(obj)
