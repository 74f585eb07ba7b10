"""Canonical particle dynamics: actions, flow, charges, brackets."""

import csv
import functools
import io
import math
import time
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from cliffdyn.clifford import bullet, bullet_gram
from cliffdyn.errors import InputError, PreconditionError
from cliffdyn.particle import (
    _COLUMN_BLOCK,
    EinbeinFn,
    ParticleState,
    build_state,
    canonical_rhs,
    clifford_bracket,
    conjugate_momentum_norm,
    constant_einbein,
    hamiltonian_c5,
    integrate,
    lagrangian_c2,
    linear_einbein,
    mu_of_tau,
    noether_charges,
    pair_charges,
    poisson_bracket,
    polyakov_lagrangian,
    polynomial_observable,
    rk4,
    Trajectory,
)
from cliffdyn.spinors import (DP_DOWN, EPS_LO, ETA, eta_flip, flip_both, minkowski_dot,
                              spinor_down_to_covec, spinor_to_vec, vec_to_spinor)

MASS = 1.3


def _onshell_p(rng=None, m=MASS):
    if rng is None:
        sp = np.array([0.3, 0.1, -0.2])
    else:
        sp = rng.uniform(-0.4, 0.4, size=3)
    return np.array([np.sqrt(m ** 2 + sp @ sp), *sp])


def _state(mu=0.7, tau=0.0):
    return build_state(np.array([0.2, -0.1, 0.4, 0.0]), _onshell_p(), mu, MASS, tau=tau)


# -- state construction -----------------------------------------------------

def test_build_state_reproduces_inputs():
    x = np.array([0.2, -0.1, 0.4, 0.0])
    p = _onshell_p()
    st = build_state(x, p, 0.7, MASS)
    assert np.abs(st.x_vec() - x).max() < 1e-12
    assert np.abs(st.p_vec() - p).max() < 1e-12
    assert abs(st.mass_shell()) < 1e-12
    assert st.mu_charge() == pytest.approx(0.7, abs=1e-13)


def test_state_requires_a_four_row_stack_of_the_space():
    st = _state()
    Y, G = st.packed(), st.space.size
    for bad in (Y[:2], Y[:, :-1], np.zeros((4, G + 1)), Y[None]):
        with pytest.raises(InputError, match=f"\\(4, {G}\\)"):
            ParticleState(bad, st.space, MASS)
    assert np.array_equal(ParticleState(Y, st.space, MASS).packed(), Y)


def test_state_grams_hermitian():
    st = _state()
    for S in (st.x_spinor(), st.p_spinor()):
        assert np.abs(S - S.conj().T).max() < 1e-13


# -- actions ----------------------------------------------------------------

def _velocity_of_flow(st, e_val):
    dc, _ = canonical_rhs(st, e_val)
    return dc


def test_lagrangian_quartic_invariant_two_routes():
    # oracle: evaluate the double contraction with explicit epsilon lowering
    st = _state()
    dc = _velocity_of_flow(st, 0.5)
    W = np.array([[bullet(dc[a], dc[b].conj(), st.space.signs) for b in range(2)]
                  for a in range(2)])
    W_low = flip_both(W)
    direct = 0.5 * np.sum(W * W_low)
    via_vec = minkowski_dot(spinor_to_vec(W), spinor_to_vec(W))
    assert direct == pytest.approx(via_vec, rel=1e-12)
    assert lagrangian_c2(dc, st.space.signs, MASS) == pytest.approx(
        4.0 * np.sqrt(MASS) * direct.real ** 0.25, rel=1e-12)


def test_lagrangian_homogeneous_degree_one():
    st = _state()
    dc = _velocity_of_flow(st, 0.5)
    lam = -2.0 + 0.7j
    scaled = lam * dc
    assert lagrangian_c2(scaled, st.space.signs, MASS) == pytest.approx(
        abs(lam) * lagrangian_c2(dc, st.space.signs, MASS), rel=1e-12)


def test_lagrangian_rejects_negative_radicand():
    # a spacelike velocity: c moving only through the x^1 direction
    st = _state()
    space = st.space
    # dx/dtau = (0,1,0,0): W = sigma_1 has det < 0
    from cliffdyn.clifford import resolve_hermitian, allocate
    sp = allocate(4, 4)
    res = resolve_hermitian(vec_to_spinor([0.0, 1.0, 0.0, 0.0]), sp)
    with pytest.raises(PreconditionError):
        lagrangian_c2(res.coeffs, sp.signs, MASS)


def test_polyakov_stationary_einbein_recovers_quartic_action():
    st = _state()
    dc = _velocity_of_flow(st, 0.5)
    W = np.array([[bullet(dc[a], dc[b].conj(), st.space.signs) for b in range(2)]
                  for a in range(2)])
    Q = minkowski_dot(spinor_to_vec(W), spinor_to_vec(W)).real
    e_star = Q ** 0.25 / MASS ** 1.5
    assert polyakov_lagrangian(dc, st.space.signs, e_star, MASS) == pytest.approx(
        lagrangian_c2(dc, st.space.signs, MASS), rel=1e-12)
    # einbein-form momenta satisfy p.p = e^{-4/3} Q^{1/3}
    assert conjugate_momentum_norm(dc, st.space.signs, 0.5) == pytest.approx(MASS ** 2,
                                                                             rel=1e-10)


# -- Hamiltonian and flow ----------------------------------------------------

def test_hamiltonian_vanishes_on_shell():
    st = _state()
    assert hamiltonian_c5(st, 0.9) == pytest.approx(0.0, abs=1e-12)
    assert hamiltonian_c5(st, 0.0) == 0.0


def test_hamiltonian_off_shell_value():
    st = build_state(np.zeros(4), np.array([2 * MASS, 0, 0, 0]), 0.5, MASS)
    assert hamiltonian_c5(st, 1.0) == pytest.approx(3 * MASS ** 2, rel=1e-12)


def test_rhs_free_particle_momentum_frozen():
    st = _state()
    _, dd = canonical_rhs(st, 0.5)
    assert all(np.abs(v).max() == 0.0 for v in dd)
    dc, _ = canonical_rhs(st, 0.0)
    assert all(np.abs(v).max() == 0.0 for v in dc)


def test_rhs_x_flow_proportional_to_momentum():
    # bullet(dc, conj(c)) + c.c. must equal 2 mu dH/dp as a spinor matrix
    mu = 0.7
    e_val = 0.5
    st = _state(mu=mu)
    dc, _ = canonical_rhs(st, e_val)
    c, signs = st.packed()[:2], st.space.signs
    dx = np.array([[bullet(dc[a], c[b].conj(), signs) + bullet(c[a], dc[b].conj(), signs)
                    for b in range(2)] for a in range(2)])
    from cliffdyn.spinors import DP_DOWN, ETA
    grad_p = 2.0 * e_val * (ETA @ st.p_vec())
    Gp = np.einsum("m,mab->ab", grad_p.astype(complex), DP_DOWN)
    assert np.abs(dx - 2.0 * mu * Gp).max() < 1e-12
    # and the resulting four-velocity is parallel to p
    v = spinor_to_vec(dx).real
    p_contra = eta_flip(st.p_vec()).real
    cross = np.outer(v, p_contra) - np.outer(p_contra, v)
    assert np.abs(cross).max() < 1e-12


def test_integrate_free_particle_straight_line():
    mu0 = 0.7
    e = constant_einbein(0.5, tau0=0.0)
    tau_s = mu0 / (MASS ** 2 * 0.5)          # so that mu(tau_s) = mu0
    x0 = np.array([0.2, -0.1, 0.4, 0.0])
    p = _onshell_p()
    st = build_state(x0, p, mu0, MASS, tau=tau_s)
    traj = integrate(st, e, tau_s + 2.0, 2000)
    # momentum exactly frozen
    assert np.abs(traj.p - traj.p[0]).max() == 0.0
    assert traj.constraint_drift() < 1e-12
    # x(taubar) = x(0) + (p/m) taubar
    p_contra = eta_flip(p).real
    pred = x0[None, :] + np.outer(traj.taubar, p_contra / MASS)
    assert np.abs(traj.x - pred).max() < 1e-8
    # charges conserved
    assert traj.charge_drift() < 1e-9


def test_integrate_mu_matches_quadrature():
    mu0 = 0.4
    e = linear_einbein(0.3, 0.05, tau0=0.0)
    # choose start so mu(charges) and the quadrature agree from the same turning point:
    # mu(tau_s) = mu0 -> solve 0.3 tau + 0.025 tau^2 = mu0 / m^2
    m2 = MASS ** 2
    a, b = 0.3, 0.05
    c0 = -mu0 / m2
    tau_s = (-a + np.sqrt(a ** 2 - 2 * b * c0)) / b
    st = build_state(np.zeros(4), _onshell_p(), mu0, MASS, tau=tau_s)
    traj = integrate(st, e, tau_s + 1.5, 1500)
    for k in range(0, len(traj.tau), 150):
        assert traj.mu[k] == pytest.approx(mu_of_tau(e, MASS, traj.tau[k]), abs=1e-8)


def test_integrate_reparametrized_canonical_equations():
    # finite differences of x against taubar must give p/m (H of the c18 form)
    mu0 = 0.7
    e = constant_einbein(0.5)
    tau_s = mu0 / (MASS ** 2 * 0.5)
    st = build_state(np.zeros(4), _onshell_p(), mu0, MASS, tau=tau_s)
    traj = integrate(st, e, tau_s + 1.0, 4000)
    p_contra = eta_flip(traj.p[0]).real
    mid = slice(1, -1)
    dx = (traj.x[2:] - traj.x[:-2])
    dtb = (traj.taubar[2:] - traj.taubar[:-2])[:, None]
    assert np.abs(dx / dtb - p_contra / MASS).max() < 1e-7


def test_integrate_rejects_bad_steps():
    st = _state()
    with pytest.raises(InputError):
        integrate(st, constant_einbein(1.0), 1.0, 0)


@pytest.mark.parametrize("e", [constant_einbein(0.5), linear_einbein(0.6, 0.3)],
                         ids=["const", "linear"])
def test_integrate_columns_match_per_state_path(e):
    # 2501 rows span several blocks of columns; a mixed Gram off the identity,
    # with a complex trace, keeps J and j away from zero.  Each row of the
    # stepped reference is read back as a ParticleState
    st = _mixed_state(tau=0.4)
    traj = integrate(st, e, 2.4, 2500)
    ref = _reference(e, 2500)
    states = [ParticleState(Y, st.space, MASS, tau) for Y, tau in zip(ref.Y, ref.tau)]
    charges = [noether_charges(s) for s in states]
    per_state = {"x": [s.x_vec() for s in states], "p": [s.p_vec() for s in states],
                 "J": [J for J, _ in charges], "j": [j for _, j in charges],
                 "mu": [s.mu_charge() for s in states]}
    bounds = _column_bounds(st, e, 2.4, ref)
    for name, column in per_state.items():
        assert _worst_ratio(getattr(traj, name), np.array(column), bounds[name]) <= 1.0, name
    shell = np.array([s.mass_shell() for s in states])
    assert traj.constraint_drift() == np.abs(shell - shell[0]).max()


def _derived_columns(Y: np.ndarray, signs: np.ndarray) -> dict[str, np.ndarray]:
    """Oracle: x, p, J, j and mu of a (rows, 4, G) stack of coefficient rows,
    computed from the rows as ParticleState and noether_charges compute them."""
    C, D = Y[:, :2], Y[:, 2:]
    J, trace_cd = pair_charges(C, D, signs)
    return {"x": spinor_to_vec(bullet_gram(C, C.conj(), signs)).real,
            "p": spinor_down_to_covec(bullet_gram(D, D.conj(), signs)).real,
            "J": J, "j": (1j * (trace_cd - np.conj(trace_cd))).real, "mu": 0.5 * trace_cd.real}


def _textbook_rk4(f, y, t0, h, steps):
    """Reference RK4 for dy/dt = f(t, y), written out with a new array per
    operation, independent of the package's buffered :func:`rk4`; yields y
    after each step."""
    for k in range(steps):
        t = t0 + k * h
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        yield y


def _wrong_rk4(f, y, t0, h, steps, weights=(1, 2, 2, 1), half=0.5):
    """A wrong reference: :func:`_textbook_rk4` with other stage ``weights``
    or with its two middle stages at t + ``half`` h."""
    w1, w2, w3, w4 = weights
    for k in range(steps):
        t = t0 + k * h
        k1 = f(t, y)
        k2 = f(t + half * h, y + 0.5 * h * k1)
        k3 = f(t + half * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / sum(weights)) * (w1 * k1 + w2 * k2 + w3 * k3 + w4 * k4)
        yield y


# Simpson's weights, which give the c rows (e1 + 2 e2 + e4)/4 a step, and the
# middle stages' einbein taken at the step's start
_SIMPSON_WEIGHTS = functools.partial(_wrong_rk4, weights=(1, 1, 1, 1))
_EARLY_MIDDLE = functools.partial(_wrong_rk4, half=0.0)


def _stepped_integrate(state0, e, tau_end, steps, stepper=_textbook_rk4):
    """Reference: the free flow stepped by RK4 on its full flow state.

    One step of ``stepper``, by default :func:`_textbook_rk4`, at a time on
    the flow state (c rows plus a taubar column), each stage calling the
    einbein once; returns (tau, taubar, Y).
    """
    signs, mass, tau0 = state0.space.signs, state0.mass, state0.tau
    Y0 = state0.packed().astype(complex)
    C, D = Y0[:2], Y0[2:]
    G = Y0.shape[1]
    eta_p = ETA @ spinor_down_to_covec(bullet_gram(D, D.conj(), signs))
    signed_D_T = (D * signs).T
    D_conj = np.concatenate((D.conj(), np.zeros((2, 1))), axis=1)

    def flow(tau, y):
        e_val = float(e.values(np.asarray(tau, dtype=float)))
        grad_p = 2.0 * e_val * eta_p
        Gp = np.einsum("m,mab->ab", grad_p, DP_DOWN)
        cd = y[:, :G] @ signed_D_T
        mu = 0.5 * (cd[0, 0] + cd[1, 1]).real
        dy = Gp @ D_conj
        dy[0, G] = 2.0 * mass * mu * e_val
        return dy

    h = (tau_end - tau0) / steps
    Y = np.empty((steps + 1, *Y0.shape), dtype=complex)
    Y[0] = Y0
    Y[1:, 2:] = D
    taubar = np.zeros(steps + 1)
    y0 = np.concatenate((C, np.zeros((2, 1))), axis=1)
    for k, y in enumerate(stepper(flow, y0, tau0, h, steps)):
        if not np.all(np.isfinite(y)):
            raise ArithmeticError(f"integration produced non-finite values at step {k}")
        Y[k + 1, :2] = y[:, :-1]
        taubar[k + 1] = y[0, -1].real
    tau = tau0 + np.arange(steps + 1) * h
    tau[0] = tau0
    return tau, taubar, Y


def test_rk4_matches_the_allocating_loop_bit_for_bit():
    # buffered stages keep the digits, signed zeros included, of the loop with
    # a new array per operation; every step yields the one updated array
    rng = np.random.default_rng(5)
    M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    M[-1] = 0.0
    y0 = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    y0[-1] = complex(-0.0, -0.0)
    h, steps = 0.05, 40
    # the negation leaves slopes with a real -0.0 beside a negative imaginary
    # part, where 2 k and k + k differ in the sign of zero
    expected = list(_textbook_rk4(lambda t, y: -(np.cos(t) * (M @ y) + 0.5j * y),
                                  y0, 0.3, h, steps))
    before = y0.copy()
    stepped = rk4(lambda t, y, out: np.negative(np.cos(t) * (M @ y) + 0.5j * y, out=out),
                  y0, 0.3, h, steps)
    rows = [(id(y), y.copy()) for y in stepped]
    assert len({key for key, _ in rows}) == 1
    for (_, row), ref in zip(rows, expected, strict=True):
        assert np.array_equal(row, ref)
        assert np.array_equal(np.signbit(row.view(float)), np.signbit(ref.view(float)))
    assert np.array_equal(y0, before)


def _mixed_state(tau=0.0):
    M = np.array([[0.7 + 0.02j, 0.05 + 0.01j], [0.05 - 0.01j, 0.6]])
    return build_state(np.array([0.3, -0.2, 0.1, 0.4]), _onshell_p(), M, MASS, tau=tau)


class _Reference(NamedTuple):
    tau: np.ndarray
    taubar: np.ndarray
    Y: np.ndarray
    columns: dict


@functools.cache
def _reference(e, steps, stepper=_textbook_rk4):
    """The stepped run of ``_mixed_state(tau=0.4)`` to tau = 2.4 and its oracle
    columns, once per (einbein, steps, stepper): the 10^4-step runs take seconds."""
    st = _mixed_state(tau=0.4)
    tau, taubar, Y = _stepped_integrate(st, e, 2.4, steps, stepper)
    return _Reference(tau, taubar, Y, _derived_columns(Y, st.space.signs))


U = np.finfo(float).eps / 2         # unit roundoff


def _column_bounds(state0, e, tau_end, ref):
    """Float64 bounds, row by row, on the gap between ``integrate``'s columns and
    the oracle columns of the stepped reference ``ref`` of the same run.

    Both take the same RK4 steps of dc/dtau = e(tau) K, in different orders:
    the reference adds each step's four stage slopes, each e K formed anew, to
    its c rows y; integrate sums the scalar weights w_i = (h/6)(e1 + 4 e2 + e4)
    into W and evaluates its columns as polynomials in W.  To first order in
    the unit roundoff u, with |.| the largest modulus of an array's entries and
    kappa the largest entry of K's envelope |grad_p| |DP_DOWN| |d*| (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 3.5; complex
    inner products of n terms within sqrt(2) (n + 2) u, Lemma 3.5 and
    sec. 3.6), the two runs' c rows after k steps differ by at most

        delta_k = u (sum_{i <= k} (|y_i| + W_i kappa) + 44 W_k kappa):

    one rounding per step in the reference's row sum and in integrate's running
    W; at most 24 roundings of w_i kappa per reference increment (the slope's
    products, the stage sum and h/6) and 20 in integrate's K and weights, whose
    sums over the steps are W_k kappa.  Each column is bilinear in the rows: x
    in c and conj(c), J and the trace tr bullet(c, d*) behind j and mu in c and
    d*.  A row gap delta_k moves them by at most 2 delta_k times the largest
    row sum n1 of the envelope M_k = max(|y_k|, |c0| + W_k |K|) (x) or of |d*|
    (J and the trace); each side's own products of G generator terms, with
    their sums, add at most (3 G + 15) u n1 |M_k| (x) and (6 G + 16) u |M_k| n1
    (J and the trace).  taubar sums 2 m w_i times mu at the step's stages,
    whose gap is half the trace's at the stage rows (within 2 u and h max(e)
    kappa of the step's envelope), plus 12 roundings of its magnitude and one
    add per step on each side.  p reads the fixed d* rows alone on both sides.
    """
    G = state0.space.size
    Y0 = state0.packed()
    c0, D = Y0[:2], Y0[2:]
    h = (tau_end - state0.tau) / (len(ref.tau) - 1)
    t = ref.tau[:-1]
    e1, e2, e4 = (e.values(t + s) for s in (0.0, 0.5 * h, h))
    w = (h / 6.0) * (e1 + 4 * e2 + e4)
    W = np.concatenate(([0.0], np.cumsum(w)))
    grad_p = 2.0 * (ETA @ state0.p_vec())
    K_env = np.einsum("m,mab->ab", np.abs(grad_p), np.abs(DP_DOWN)) @ np.abs(D)
    kappa = K_env.max()
    c_rows = np.abs(ref.Y[:, :2])
    ny = c_rows.max(axis=(1, 2))
    delta = U * (np.cumsum(ny) - ny[0] + np.cumsum(W * kappa) + 44 * W * kappa)
    M = np.maximum(c_rows, np.abs(c0) + W[:, None, None] * K_env)
    n1M, mM = M.sum(axis=2).max(axis=1), M.max(axis=(1, 2))
    n1D = np.abs(D).sum(axis=1).max()
    trace = 2 * delta * n1D + (6 * G + 16) * U * mM * n1D
    stage = np.maximum(mM[:-1], mM[1:]) + h * np.maximum(np.maximum(e1, e2), e4) * kappa
    d_mu = (delta[1:] + 2 * U * stage) * n1D + 0.5 * (6 * G + 16) * U * stage * n1D
    per_step = (2 * state0.mass * w * (d_mu + 12 * U * stage * n1D)
                + 2 * U * np.abs(ref.taubar[1:]))
    return {"x": 2 * delta * n1M + (3 * G + 15) * U * n1M * mM,
            "p": np.full(len(W), (3 * G + 15) * U * n1D * np.abs(D).max()),
            "J": trace, "j": 2 * trace, "mu": 0.5 * trace,
            "taubar": np.concatenate(([0.0], np.cumsum(per_step)))}


def _worst_ratio(column, ref_column, bound):
    """The largest ratio of a row's gap, its largest modulus, to the row's bound."""
    gap = np.abs(column - ref_column).reshape(len(bound), -1).max(axis=1)
    return float(np.max(np.divide(gap, bound, out=np.where(gap > 0, np.inf, 0.0),
                                  where=bound > 0)))


def _bound_ratios(e, steps, stepper=_textbook_rk4):
    """The worst ratio of each column of integrate's run to its bound against
    the cached reference of this stepper."""
    st = _mixed_state(tau=0.4)
    traj = integrate(st, e, 2.4, steps)
    ref = _reference(e, steps, stepper)
    assert np.array_equal(traj.tau, ref.tau)
    bounds = _column_bounds(st, e, 2.4, ref)
    columns = {"taubar": ref.taubar, **ref.columns}
    return {name: _worst_ratio(getattr(traj, name), column, bounds[name])
            for name, column in columns.items()}


# 2 * _COLUMN_BLOCK + 1 carries a row across two block boundaries; 1023-1025
# straddle a later one (the blocks of 256 steps end at 1024)
@pytest.mark.parametrize("steps", [1, 7, _COLUMN_BLOCK - 1, _COLUMN_BLOCK, _COLUMN_BLOCK + 1,
                                   2 * _COLUMN_BLOCK + 1, 1023, 1024, 1025, 10_000])
@pytest.mark.parametrize("e", [constant_einbein(0.5), linear_einbein(0.6, 0.3)],
                         ids=["const", "linear"])
def test_integrate_matches_stepped_rk4_bit_for_bit(e, steps):
    # the name is kept for its test ids; since integrate takes the run in
    # closed form, every column of every row stays within its derived bound of
    # the stepped reference, and tau is still equal bit for bit
    ratios = _bound_ratios(e, steps)
    assert max(ratios.values()) <= 1.0, ratios


@pytest.mark.parametrize("steps", [7, 257])
@pytest.mark.parametrize("stepper,column", [(_SIMPSON_WEIGHTS, "taubar"), (_EARLY_MIDDLE, "x")],
                         ids=["simpson-weights", "early-middle-stages"])
def test_integrate_bound_rejects_a_wrong_reference(stepper, column, steps):
    # for this linear einbein Simpson's weights take the same c rows, but
    # taubar's rate is quadratic in tau, where they are not exact; middle
    # stages at the step's start move the c rows themselves
    ratios = _bound_ratios(linear_einbein(0.6, 0.3), steps, stepper)
    assert ratios[column] > 1e6, ratios


def _raised(fn, *args):
    with pytest.raises((ArithmeticError, PreconditionError)) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("steps", [7, 3000])
def test_integrate_names_the_first_non_positive_einbein(steps):
    # e = 0.5 - tau reaches zero at tau = 0.5, in the second block of 3000 steps
    st = _mixed_state()
    e = linear_einbein(0.5, -1.0)
    kind, message = _raised(integrate, st, e, 1.0, steps)
    assert kind is PreconditionError
    assert (kind, message) == _raised(_stepped_integrate, st, e, 1.0, steps)


def test_integrate_names_the_first_non_finite_step():
    # a steep einbein overflows the state part-way through the third block
    st = _mixed_state()
    e = linear_einbein(1.0, 5e153)
    with np.errstate(over="ignore", invalid="ignore"):
        kind, message = _raised(integrate, st, e, 1.0, 3000)
        assert (kind, message) == _raised(_stepped_integrate, st, e, 1.0, 3000)
    assert kind is ArithmeticError and message.endswith("at step 2451")
    Y = st.packed().copy()
    Y[0, 3] = np.nan
    poisoned = ParticleState(Y, st.space, MASS, 0.0)
    with pytest.raises(ArithmeticError, match="at step 0$"):
        integrate(poisoned, constant_einbein(0.5), 1.0, 10)


def test_einbein_values_check_every_entry_in_order():
    e = linear_einbein(1.0, -1.0)
    taus = np.array([[0.0, 0.5, 0.9], [2.0, 0.2, 3.0]])
    with pytest.raises(PreconditionError, match=r"e\(2\.0\) = -1\.0"):
        e.values(taus)
    assert np.array_equal(e.values(taus[:1].T), 1.0 - taus[:1].T)
    const = constant_einbein(0.5).values(taus)
    assert const.shape == taus.shape and np.all(const == 0.5)
    assert e.values(np.array(0.25)) == 0.75


def test_constraint_drift_matches_per_state_shell():
    # the free flow freezes p, so stitch runs of off-shell states together
    # to make the shell vary along the p column
    starts = [build_state(np.zeros(4), scale * _onshell_p(), 0.7, MASS)
              for scale in (1.0, 1.1, 0.95)]
    e = constant_einbein(0.5)
    runs = [integrate(st, e, 0.1, 1) for st in starts]
    traj = Trajectory(MASS, *(
        np.concatenate([getattr(r, col) for r in runs])
        for col in ("tau", "taubar", "x", "p", "J", "j", "mu")))
    shell = np.array([ParticleState(Y, st.space, MASS, st.tau).mass_shell()
                      for st in starts for Y in _stepped_integrate(st, e, 0.1, 1)[2]])
    drift = np.abs(shell - shell[0]).max()
    assert drift > 0.1
    assert traj.constraint_drift() == drift


def test_integrate_memory_grows_with_the_columns_alone():
    # streamed blocks: 30 000 more steps add their columns (160 bytes a row)
    # and nothing else, where stored coefficient rows would add 46 MB
    st = _mixed_state()
    e = constant_einbein(0.5)

    def peak_and_columns(steps):
        tracemalloc.start()
        try:
            traj = integrate(st, e, 1.0, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, sum(getattr(traj, name).nbytes
                         for name in ("tau", "taubar", "x", "p", "J", "j", "mu"))

    small, large = peak_and_columns(10_000), peak_and_columns(40_000)
    assert large[0] - small[0] <= 1.1 * (large[1] - small[1])


@pytest.mark.parametrize("column,index", [("J", (4, 1, 0)), ("j", (4,))])
def test_charge_drift_propagates_nan(column, index):
    # Python's max(0.3, nan) is 0.3: each charge must be able to poison the drift
    traj = integrate(_mixed_state(), constant_einbein(0.5), 1.0, 10)
    getattr(traj, column)[index] = np.nan
    assert np.isnan(traj.charge_drift())


# -- charges ------------------------------------------------------------------

def test_charges_vanish_on_constrained_state():
    J, j = noether_charges(_state(mu=0.9))
    assert np.abs(J).max() < 1e-13
    assert abs(j) < 1e-13


def _ref_pair_charges(state, eps=EPS_LO, swapped=1):
    """J_AB = bullet(d*_A, c_B) + bullet(d*_B, c_A) with c_B = c^E eps_{EB}, one bullet
    per term, the trace of bullet(c^A, d*_A), and the bound on both sides' rounding.
    ``eps`` and ``swapped`` (the weight of the A <-> B term) make wrong references."""
    Y, signs = state.packed(), state.space.signs
    c_low = [eps[0, B] * Y[0] + eps[1, B] * Y[1] for B in range(2)]
    J = np.array([[bullet(Y[2 + A], c_low[B], signs)
                   + swapped * bullet(Y[2 + B], c_low[A], signs)
                   for B in range(2)] for A in range(2)])
    trace = bullet(Y[0], Y[2], signs) + bullet(Y[1], Y[3], signs)
    mag = np.abs(Y)
    gram = 2 * (Y.shape[1] + 2) * np.finfo(float).eps * bullet_gram(mag, mag, np.abs(signs))
    # |c_B| = |c^E| for the one nonzero eps entry of each column
    bound = gram[2:, [1, 0]] + gram[2:, [1, 0]].T
    return J, trace, bound, gram[0, 2] + gram[1, 3]


@pytest.mark.parametrize("mu", [0.9, np.array([[0.7 + 0.02j, 0.05 + 0.01j],
                                               [0.05 - 0.01j, 0.6]])], ids=["constrained", "mixed"])
def test_pair_charges_match_per_term_bullets(mu):
    st = build_state(np.array([0.3, -0.2, 0.1, 0.4]), _onshell_p(), mu, MASS)
    Y = st.packed()
    J, trace = pair_charges(Y[:2], Y[2:], st.space.signs)
    J_ref, trace_ref, bound, trace_bound = _ref_pair_charges(st)
    assert np.all(np.abs(J - J_ref) <= bound)
    assert abs(trace - trace_ref) <= trace_bound
    # a stack of states gives each state's charges
    stacked = pair_charges(np.stack([Y[:2], Y[:2]]), np.stack([Y[2:], Y[2:]]), st.space.signs)
    assert np.array_equal(stacked[0], np.stack([J, J]))
    assert np.array_equal(stacked[1], np.stack([trace, trace]))


@pytest.mark.parametrize("mutation", ["c-raised", "swap-dropped"])
def test_pair_charges_bound_rejects_a_wrong_reference(mutation):
    # the bound admits a reordered sum, not c raised where it is lowered or J unsymmetrized
    st = _mixed_state()
    Y = st.packed()
    J, _ = pair_charges(Y[:2], Y[2:], st.space.signs)
    bound = _ref_pair_charges(st)[2]
    wrong = _ref_pair_charges(st, **({"eps": EPS_LO.T} if mutation == "c-raised"
                                     else {"swapped": 0}))[0]
    assert np.max(np.abs(J - wrong) - bound) > 1e-6


def test_offdiagonal_mixed_gram_shows_in_J():
    x = np.array([1.0, 0, 0, 0])
    p = np.array([MASS, 0, 0, 0])
    m12 = 0.25 + 0.1j
    M = np.array([[0.6, m12], [0.0, 0.6]])
    st = build_state(x, p, M, MASS)
    J, _ = noether_charges(st)
    # oracle: J_AB = bullet(d*_A, c_B) + (A<->B) with the right-lowered c_B = c^E eps_{EB};
    # for bullet(c^A, d*_B) = M[A, B] this gives J[0,0] = 2 M[1,0], J[1,1] = -2 M[0,1],
    # J[0,1] = J[1,0] = M[1,1] - M[0,0].
    expect = np.array([[2 * M[1, 0], M[1, 1] - M[0, 0]],
                       [M[1, 1] - M[0, 0], -2 * M[0, 1]]])
    assert np.abs(J - expect).max() < 1e-12


def test_complex_mu_shows_in_u1_charge():
    mu = 0.5 + 0.3j
    st = build_state(np.array([1.0, 0, 0, 0]), np.array([MASS, 0, 0, 0]),
                     mu * np.eye(2), MASS)
    _, j = noether_charges(st)
    # j = i(tr CD - conj(tr CD)) = -2 Im(2 mu) = -4 Im(mu)
    assert j == pytest.approx(-4 * mu.imag, rel=1e-12)
    mu_real = 0.5
    st = build_state(np.array([1.0, 0, 0, 0]), np.array([MASS, 0, 0, 0]),
                     mu_real * np.eye(2), MASS)
    _, j = noether_charges(st)
    assert abs(j) < 1e-13


# -- mu(tau) -------------------------------------------------------------------

def test_mu_constant_einbein():
    e = constant_einbein(0.8, tau0=0.5)
    assert mu_of_tau(e, MASS, 2.5) == pytest.approx(MASS ** 2 * 0.8 * 2.0, rel=1e-12)
    assert mu_of_tau(e, MASS, 0.5) == 0.0


def test_mu_linear_einbein_elementary_integral():
    e = linear_einbein(1e-12, 1.0, tau0=0.0)
    # e(t) ~ t on [0,1]: integral m^2/2
    assert mu_of_tau(e, 1.0, 1.0) == pytest.approx(0.5, rel=1e-9)


def test_mu_against_scipy_oracle():
    from scipy.integrate import quad
    e = linear_einbein(0.3, 0.2, tau0=0.1)
    val = mu_of_tau(e, MASS, 1.7)
    ref, _ = quad(lambda t: MASS ** 2 * (0.3 + 0.2 * t), 0.1, 1.7)
    assert val == pytest.approx(ref, rel=1e-11)


def test_mu_exp_einbein_matches_closed_form():
    assert mu_of_tau(EinbeinFn(np.exp), 1.0, 1.0) == pytest.approx(np.e - 1.0, rel=1e-12)


def test_mu_step_einbein_raises_naming_tau():
    # global refinement converges only at O(h) across a jump, so the node cap is reached
    step = EinbeinFn(lambda t: np.where(t < 0.3, 1.0, 2.0))
    start = time.perf_counter()
    with pytest.raises(ArithmeticError, match="tau = 1.0 "):
        mu_of_tau(step, 1.0, 1.0)
    with pytest.raises(ArithmeticError, match="tau = 0.5 "):
        mu_of_tau(step, 1.0, np.array([0.2, 0.5, 0.9]))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("e", [linear_einbein(0.6, 0.3, tau0=0.1), EinbeinFn(np.exp, tau0=0.1)],
                         ids=["linear", "exp"])
def test_mu_array_tau_matches_scalar_calls(e):
    # exp's taus converge after different numbers of doublings; each keeps its own
    taus = np.concatenate(([0.1], np.geomspace(0.11, 6.0, 23))).reshape(4, 6)
    got = mu_of_tau(e, MASS, taus)
    assert got.shape == (4, 6)
    assert np.array_equal(got, [[mu_of_tau(e, MASS, float(t)) for t in row] for row in taus])
    assert got[0, 0] == 0.0
    assert isinstance(mu_of_tau(e, MASS, 1.0), float)
    with pytest.raises(PreconditionError, match="tau = -0.5 "):
        mu_of_tau(e, MASS, np.array([0.5, -0.5, -1.0]))


def test_nan_einbein_rejected():
    with pytest.raises(PreconditionError):
        constant_einbein(float("nan")).values(np.array(0.0))


def test_mu_before_turning_point_rejected():
    with pytest.raises(PreconditionError):
        mu_of_tau(constant_einbein(1.0, tau0=0.0), MASS, -0.5)


@pytest.mark.parametrize("mass,tau0,tau", [
    (float("nan"), 0.0, 1.0), (float("inf"), 0.0, 1.0),
    (MASS, 0.0, float("nan")), (MASS, 0.0, float("inf")), (MASS, float("nan"), 1.0)])
def test_mu_rejects_non_finite_input(mass, tau0, tau):
    # a NaN error estimate never passes the adaptive test; without the check the
    # quadrature would recurse to depth 48 on every branch
    with pytest.raises(InputError):
        mu_of_tau(constant_einbein(1.0, tau0=tau0), mass, tau)


@pytest.mark.parametrize("mass", [float("nan"), 0.0, -1.0])
def test_state_rejects_non_positive_mass(mass):
    with pytest.raises(InputError):
        build_state(np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]), 0.5, mass)


# -- brackets ------------------------------------------------------------------

def _coordinate(mu):
    """x^mu as a one-term polynomial."""
    return polynomial_observable([(1.0, np.eye(4, dtype=int)[mu], [0, 0, 0, 0])])


def _momentum(mu):
    """p_mu as a one-term polynomial."""
    return polynomial_observable([(1.0, [0, 0, 0, 0], np.eye(4, dtype=int)[mu])])


def test_a_stack_of_states_and_brackets_is_its_states_one_by_one():
    # bracket-reduction builds and brackets its 100 states as one stack: each
    # state's rows and the polynomials' gradients are the per-state calls' bits,
    # and each bracket is the per-state call's float to rounding
    rng = np.random.default_rng(23)
    k = 7
    x, p, mu = rng.uniform(-1, 1, (k, 4)), np.stack([_onshell_p(rng) for _ in range(k)]), \
        rng.uniform(0.2, 1.5, k)
    mass = np.sqrt(minkowski_dot(p, p).real)
    terms = [(rng.normal(size=k), rng.integers(0, 3, (k, 4)), rng.integers(0, 3, (k, 4)))
             for _ in range(6)]
    N, M = polynomial_observable(terms[:3]), polynomial_observable(terms[3:])
    st = build_state(x, p, mu, mass)
    cb = clifford_bracket(N, M, st)
    pb = poisson_bracket(N, M, st.x_vec(), st.p_vec())
    assert st.packed().shape == (k, 4, st.space.size) and cb.shape == pb.shape == (k,)
    for i in range(k):
        one = build_state(x[i], p[i], mu[i], mass[i])
        assert np.array_equal(st.packed()[i], one.packed()) and st.mass[i] == one.mass
        N1, M1 = (polynomial_observable([(c[i], a[i], b[i]) for c, a, b in half])
                  for half in (terms[:3], terms[3:]))
        for grad in ("grad_x", "grad_p"):
            assert np.array_equal(getattr(N, grad)(st.x_vec(), st.p_vec())[i],
                                  getattr(N1, grad)(one.x_vec(), one.p_vec()))
        assert cb[i] == pytest.approx(clifford_bracket(N1, M1, one), rel=1e-12, abs=1e-14)
        assert pb[i] == pytest.approx(poisson_bracket(N1, M1, one.x_vec(), one.p_vec()),
                                      rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("masses,message", [
    ([1.0, -1.0], "^mass must be positive$"),
    ([1.0, float("nan")], "^mass must be positive$"),
    ([1.0, 1e200], "its square overflows$"),
    ([1e-200, 1.0], "its square underflows$"),
])
def test_a_stack_of_states_refuses_a_bad_mass(masses, message):
    x, p = np.zeros((2, 4)), np.stack([_onshell_p()] * 2)
    with pytest.raises(InputError, match=message):
        build_state(x, p, 0.5, masses)
    with pytest.raises(InputError, match=r"\(4, 24\)"):
        build_state(x, p, 0.5, 1.0)            # a stack takes one mass per state


def test_bracket_canonical_pair():
    st = _state(mu=1.0)
    N = _coordinate(0)
    M = _momentum(0)
    assert clifford_bracket(N, M, st) == pytest.approx(1.0, abs=1e-12)


def test_bracket_antisymmetric_and_reality():
    rng = np.random.default_rng(17)
    st = _state(mu=0.8)
    terms_n = [(rng.normal(), rng.integers(0, 2, 4), rng.integers(0, 2, 4)) for _ in range(3)]
    terms_m = [(rng.normal(), rng.integers(0, 2, 4), rng.integers(0, 2, 4)) for _ in range(3)]
    N = polynomial_observable(terms_n)
    M = polynomial_observable(terms_m)
    nm = clifford_bracket(N, M, st)
    mn = clifford_bracket(M, N, st)
    assert isinstance(nm, float)
    assert nm == pytest.approx(-mn, rel=1e-10, abs=1e-12)
    assert clifford_bracket(N, N, st) == pytest.approx(0.0, abs=1e-12)


def test_bracket_reduces_to_poisson_on_constrained_states():
    rng = np.random.default_rng(99)
    for _ in range(20):
        mu = rng.uniform(0.2, 1.5)
        x = rng.uniform(-1, 1, size=4)
        p = _onshell_p(rng)
        st = build_state(x, p, mu, MASS)
        terms_n = [(rng.normal(), rng.integers(0, 3, 4), rng.integers(0, 2, 4))
                   for _ in range(3)]
        terms_m = [(rng.normal(), rng.integers(0, 2, 4), rng.integers(0, 3, 4))
                   for _ in range(3)]
        N = polynomial_observable(terms_n)
        M = polynomial_observable(terms_m)
        cb = clifford_bracket(N, M, st)
        pb = poisson_bracket(N, M, st.x_vec(), st.p_vec())
        assert abs(cb - mu * pb) < 1e-9 * (1 + abs(pb))


def test_bracket_unconstrained_state_differs():
    # a mixed Gram with unequal diagonal feeds the x^0/p_3 kernel, which the
    # Poisson bracket cannot see ({x^0, p_3}_PB = 0)
    M_gram = np.diag([0.5, -0.2 + 0.3j])
    st = build_state(np.array([1.0, 0.2, 0, 0]), _onshell_p(), M_gram, MASS)
    N = _coordinate(0)
    M = _momentum(3)
    cb = clifford_bracket(N, M, st)
    pb = poisson_bracket(N, M, st.x_vec(), st.p_vec())
    mu = st.mu_charge()
    assert pb == 0.0
    assert abs(cb - mu * pb) > 1e-3  # no reduction without the constraint


def _evaluate(terms, x, p):
    """The terms' sum c prod (x^mu)^a_mu p_mu^b_mu, one Python product per factor."""
    total = 0.0
    for c, a, b in terms:
        for base, exps in ((x, a), (p, b)):
            for v, e in zip(base, exps):
                c *= float(v) ** int(e)
        total += c
    return total


def _gradient_gap(terms, poly, x, p, h=1e-6):
    """Worst relative gap between poly's gradients and central differences of
    ``_evaluate(terms)`` in each x^mu and p_mu."""
    exact = np.concatenate((poly.grad_x(x, p), poly.grad_p(x, p)))
    gaps = []
    for k in range(8):
        step = np.zeros(8)
        step[k] = h
        up, down = np.concatenate((x, p)) + step, np.concatenate((x, p)) - step
        fd = (_evaluate(terms, up[:4], up[4:]) - _evaluate(terms, down[:4], down[4:])) / (2 * h)
        gaps.append(abs(fd - exact[k]) / max(1.0, abs(exact[k])))
    return max(gaps)


_TERMS = [(0.7, [2, 0, 1, 0], [0, 1, 0, 0]),
          (-1.3, [0, 1, 2, 1], [2, 0, 1, 0]),
          (0.4, [1, 1, 0, 2], [0, 2, 0, 1]),
          (2.1, [0, 0, 0, 0], [1, 0, 0, 2])]


@pytest.mark.parametrize("seed", range(4))
def test_polynomial_gradients_are_exact(seed):
    # the fixed terms and three random ones, exponents 0, 1 and 2 in every slot
    rng = np.random.default_rng(seed)
    terms = [*_TERMS, *[(rng.normal(), rng.integers(0, 3, 4), rng.integers(0, 3, 4))
                        for _ in range(3)]]
    x, p = rng.uniform(-1.5, 1.5, 4), rng.uniform(-1.5, 1.5, 4)
    assert _gradient_gap(terms, polynomial_observable(terms), x, p) < 1e-6


@pytest.mark.parametrize("term", range(len(_TERMS)))
@pytest.mark.parametrize("slot", range(8))
def test_gradient_gap_rejects_a_changed_exponent(term, slot):
    x, p = np.array([1.6, 2.1, 1.8, 2.4]), np.array([2.2, 1.7, 2.0, 1.5])
    changed = [(c, np.array(a), np.array(b)) for c, a, b in _TERMS]
    changed[term][1 + slot // 4][slot % 4] += 1
    assert _gradient_gap(_TERMS, polynomial_observable(_TERMS), x, p) < 1e-6
    assert _gradient_gap(_TERMS, polynomial_observable(changed), x, p) > 1e-3


def _loop_gradient(terms, x, p, wrt_x):
    """dN/dx^mu (or dN/dp_mu) term by term and component by component, with
    scalar powers: the reference the array gradients equal bit for bit."""
    g = np.zeros(4)
    for c, a, b in terms:
        exps, base = (np.asarray(a), x) if wrt_x else (np.asarray(b), p)
        other = np.prod(p ** np.asarray(b)) if wrt_x else np.prod(x ** np.asarray(a))
        for mu in range(4):
            if exps[mu] == 0:
                continue
            rest = 1.0
            for nu in range(4):
                rest *= base[nu] ** (exps[nu] - (nu == mu))
            g[mu] += float(c) * exps[mu] * rest * other
    return g


def test_polynomial_gradients_equal_the_term_loop_bit_for_bit():
    # the terms of verify-all's bracket-reduction criterion, and longer sums
    rng = np.random.default_rng(5)
    for n_terms in (3, 3, 7, 12) * 50:
        terms = [(rng.normal(), rng.integers(0, 3, 4), rng.integers(0, 3, 4))
                 for _ in range(n_terms)]
        x, p = rng.uniform(-1, 1, 4), _onshell_p(rng)
        poly = polynomial_observable(terms)
        assert np.array_equal(poly.grad_x(x, p), _loop_gradient(terms, x, p, True))
        assert np.array_equal(poly.grad_p(x, p), _loop_gradient(terms, x, p, False))


def test_zero_exponent_contributes_exactly_zero_next_to_an_overflow():
    # p_0^400 overflows to inf; the components whose exponent is 0 must
    # still read 0.0, not 0 * inf = NaN
    poly = polynomial_observable([(1.0, [1, 0, 0, 0], [400, 0, 0, 0])])
    x, p = np.array([1.0, 0.0, 2.0, -1.0]), np.array([10.0, 0.0, 1.0, 3.0])
    with np.errstate(over="ignore"):
        gx, gp = poly.grad_x(x, p), poly.grad_p(x, p)
    assert gx.tolist() == [math.inf, 0.0, 0.0, 0.0]
    assert gp.tolist() == [math.inf, 0.0, 0.0, 0.0]


# -- trajectory export ---------------------------------------------------------

def test_trajectory_csv_columns():
    st = _state()
    traj = integrate(st, constant_einbein(0.5), 0.5, 10)
    text = traj.to_csv()
    lines = text.strip().split("\n")
    assert lines[0].split(",")[:4] == ["tau", "taubar", "x0", "x1"]
    assert len(lines) == 12


def _ref_to_csv(traj):
    """Reference: csv.writer with one f"{value:.17g}" per value, row by row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["tau", "taubar", "x0", "x1", "x2", "x3", "p0", "p1", "p2", "p3",
                     "J11_re", "J11_im", "J12_re", "J12_im", "J22_re", "J22_im", "j", "mu"])
    for k in range(len(traj.tau)):
        J = traj.J[k]
        writer.writerow([f"{v:.17g}" for v in (
            traj.tau[k], traj.taubar[k], *traj.x[k], *traj.p[k],
            J[0, 0].real, J[0, 0].imag, J[0, 1].real, J[0, 1].imag, J[1, 1].real, J[1, 1].imag,
            traj.j[k], traj.mu[k])])
    return buf.getvalue()


def test_trajectory_csv_matches_per_value_formatting():
    M = np.array([[0.7 + 0.02j, 0.05 + 0.01j], [0.05 - 0.01j, 0.6]])
    traj = integrate(build_state(np.array([0.3, -0.2, 0.1, 0.4]), _onshell_p(), M, MASS),
                     linear_einbein(0.6, 0.3), 1.5, 40)
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308, -1.5e-310]
    traj.x[1:9, 2] = special
    traj.J.real[1:9, 0, 1] = special
    traj.J.imag[1:9, 0, 1] = special[::-1]
    traj.mu[1:9] = special[::-1]
    assert traj.to_csv() == _ref_to_csv(traj)
