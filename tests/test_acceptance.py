"""The acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion; the same checks back the ``cliffdyn verify-all`` command.
"""

import dataclasses
import functools
import json
import math
import os
import re
import time
import tracemalloc

import numpy as np
import pytest

from cliffdyn import acceptance, clifford, current_algebra, matrixmech, particle, worldsheet
from cliffdyn.acceptance import (CRITERIA, Window, algebra_suite, bracket_reduction,
                                 contraction_identity, particle_dynamics,
                                 picture_equivalence, proposition_suite, run_all,
                                 string_suite, un_covariance)
from cliffdyn.cli import main
from cliffdyn.clifford import GramResolution
from cliffdyn.sampling import random_fourvector, random_hermitian, random_timelike
from cliffdyn.spinors import DP_DOWN, DX_UP, flip_both, vec_to_spinor
from cliffdyn.tolerances import DEFAULT

SEED = 20260810

_ORDER = Window(2, "fd_order_window")

# every (criterion, field, bound) row, in payload order: a Tolerances field
# name gates value < bound, 0.0 an exact zero, a Window an inclusive range,
# and None marks a record that is reported, not gated
GATES = [
    ("proposition", "gram_residual", "gram_residual"),
    ("proposition", "null_residual", "gram_null"),
    ("c30-identity", "rel_residual", "c30_identity"),
    ("bracket-reduction", "scaled_residual", "bracket_reduction"),
    ("particle-dynamics", "straight_line", "straight_line"),
    ("particle-dynamics", "shell_drift", "constraint_drift"),
    ("particle-dynamics", "mu_quadrature", "mu_match"),
    ("un-covariance", "evolve_gauge_commutator", "unitary_covariance"),
    ("un-covariance", "constraint_invariance", "constraint_invariance"),
    ("picture-equivalence", "expectation_gap", "picture_equivalence"),
    ("picture-equivalence", "stationarity", "stationarity"),
    ("string-suite", "box_order", _ORDER),
    ("string-suite", "f51_order", _ORDER),
    ("string-suite", "f52_order", _ORDER),
    ("string-suite", "f90_order", _ORDER),
    ("string-suite", "box_residual", "fd_residual"),
    ("string-suite", "f51_residual", "fd_residual"),
    ("string-suite", "f52_residual", "fd_residual"),
    ("string-suite", "f90_residual", "fd_residual"),
    ("string-suite", "trace_T", "trace_vanish"),
    ("string-suite", "pi2_p", "total_momentum"),
    ("string-suite", "spinning", "spinning_match"),
    ("algebra-suite", "g1_residual", "g1_identity"),
    ("algebra-suite", "dagger_cross", 0.0),
    ("algebra-suite", "su2_residual", "algebra_closure"),
    ("algebra-suite", "poincare_mismatch", "algebra_closure"),
    ("algebra-suite", "pp_residual", 0.0),
    ("algebra-suite", "unitary_brackets", "unitary_brackets"),
    ("algebra-suite", "jacobi", None),      # gated inside current_algebra.charge_algebra
    ("algebra-suite", "n_nodes", None),
]


@pytest.mark.parametrize("key", [name for name, _ in CRITERIA])
def test_criterion(key, capsys):
    result = dict(CRITERIA)[key](SEED)
    with capsys.disabled():
        print(result.line())
    assert result.passed, result.line()
    # the rows this run yielded are the table's, and the payload is their fields
    assert [(key, row.field, row.bound) for row in result.rows] \
        == [gate for gate in GATES if gate[0] == key]
    assert list(result.details) == [row.field for row in result.rows]


def test_gate_table_names_tolerances_and_every_criterion():
    names = {f.name for f in dataclasses.fields(DEFAULT)}
    bounds = [bound for _, _, bound in GATES]
    named = [b.half_width if isinstance(b, Window) else b for b in bounds]
    assert all(name in names for name in named if isinstance(name, str))
    assert all(isinstance(b, (str, Window)) or b in (0.0, None) for b in bounds)
    assert [key for key, _ in CRITERIA] == list(dict.fromkeys(key for key, _, _ in GATES))


def test_all_criteria_under_different_seed():
    # the suite is property-based; a second seed exercises fresh inputs
    for key, _ in CRITERIA:
        result = dict(CRITERIA)[key](SEED + 1)
        assert result.passed, result.line()


def test_nonzero_dagger_cross_block_fails_algebra_suite(monkeypatch):
    # the charge presentation's J-Jdagger block must vanish exactly; the FAIL
    # row shows that field over its bound, whatever the later checks do
    original = current_algebra.charge_algebra

    def crossed(*args, **kwargs):
        pres, report = original(*args, **kwargs)
        f = pres.f.copy()
        f[0, 3, 0] = 1e-3
        return dataclasses.replace(pres, f=f), report

    monkeypatch.setattr(current_algebra, "charge_algebra", crossed)
    result = algebra_suite(11)
    assert not result.passed
    assert result.details["dagger_cross"] == 1e-3
    assert result.line().startswith("[FAIL] algebra suite: g1_residual=")
    assert "dagger_cross=1.000e-03" in result.line()
    row = next(row for row in result.rows if row.field == "dagger_cross")
    assert row.bound == 0.0 and not row.holds(DEFAULT)


def _poison_on_call(monkeypatch, owner, name, call, value=float("nan")):
    """Patch owner.name so that its call-th call adds ``value`` (NaN or Inf) to
    its result; the other calls run unchanged."""
    original = getattr(owner, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(None)
        result = original(*args, **kwargs)
        return result + value if len(calls) == call else result

    monkeypatch.setattr(owner, name, patched)


def _poison_item(monkeypatch, owner, name, item, value=float("nan")):
    """Patch owner.name, a layer that takes stacks, so that entry ``item`` of its
    results, counted along their leading axis over its calls in order, gets
    ``value`` added; every other entry is unchanged.  Returns the list of the
    stack sizes it saw."""
    original = getattr(owner, name)
    sizes = []

    def patched(*args, **kwargs):
        result = np.array(original(*args, **kwargs))
        k = item - sum(sizes)
        sizes.append(len(result))
        if 0 <= k < len(result):
            result[k] += value
        return result

    monkeypatch.setattr(owner, name, patched)
    return sizes


def _poison_drawn_matrix(monkeypatch, item, value=float("nan")):
    """Add ``value`` to the gram_residual of the proposition suite's ``item``-th
    drawn matrix, in the stack of its size where it is resolved; the suite keeps
    each size's matrices in the order it draws them."""
    draw, residual, sizes = acceptance.random_hermitian, GramResolution.gram_residual, []

    def recorded(rng, n, *args, **kwargs):
        sizes.append(n)
        return draw(rng, n, *args, **kwargs)

    def poisoned(self):
        result = np.array(residual(self))
        n = sizes[item]
        if self.target.shape[-1] == n:
            result[sizes[:item].count(n)] += value
        return result

    monkeypatch.setattr(acceptance, "random_hermitian", recorded)
    monkeypatch.setattr(GramResolution, "gram_residual", poisoned)


def test_nan_gram_residual_fails_proposition(monkeypatch):
    _poison_drawn_matrix(monkeypatch, 4)
    result = proposition_suite(11)
    assert not result.passed
    assert math.isnan(result.details["gram_residual"])
    assert result.line().startswith("[FAIL]") and "gram_residual=nan" in result.line()


def test_nan_clifford_bracket_fails_bracket_reduction(monkeypatch):
    sizes = _poison_item(monkeypatch, particle, "clifford_bracket", 6)
    result = bracket_reduction(11)
    assert sizes == [100]
    assert not result.passed
    assert "scaled_residual=nan" in result.line()


def test_verify_all_prints_every_row_when_a_criterion_is_nan(monkeypatch, capsys):
    _poison_drawn_matrix(monkeypatch, 4)
    code = main(["verify-all", "--seed", "11"])
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
    assert code == 1
    assert len(rows) == len(CRITERIA)
    assert rows[0].startswith("[FAIL]") and "gram_residual=nan" in rows[0]
    assert all(row.startswith("[PASS]") for row in rows[1:])


def test_string_suite_fails_an_order_of_none(monkeypatch):
    # residual_suite reports None as the order of a suite exactly 0 at both
    # order steps; its Window row must fail, not raise TypeError
    original = worldsheet.residual_suite

    def without_f52_order(*args, **kwargs):
        residuals, orders = original(*args, **kwargs)
        return residuals, {**orders, "f52": None}

    monkeypatch.setattr(worldsheet, "residual_suite", without_f52_order)
    result = string_suite(11)
    assert not result.passed
    assert "f52_order=None" in result.line()
    row = next(row for row in result.rows if row.field == "f52_order")
    assert row.bound == _ORDER and not row.holds(DEFAULT)


def test_string_suite_fails_a_residual_of_none(monkeypatch):
    # a None value under a Tolerances-name bound is a FAIL row, not a TypeError
    original = worldsheet.residual_suite

    def without_f52_residual(*args, **kwargs):
        residuals, orders = original(*args, **kwargs)
        return {**residuals, "f52": None}, orders

    monkeypatch.setattr(worldsheet, "residual_suite", without_f52_residual)
    result = string_suite(11)
    assert not result.passed
    assert "f52_residual=None" in result.line()
    row = next(row for row in result.rows if row.field == "f52_residual")
    assert row.bound == "fd_residual" and not row.holds(DEFAULT)


def _shows_non_finite(result):
    """A detail is NaN or Inf, or the row's error message names one."""
    return any((isinstance(v, float) and not math.isfinite(v))
               or (isinstance(v, str) and re.search(r"\b(nan|inf)\b", v))
               for v in result.details.values())


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("criterion,owner,name,item", [
    (particle_dynamics, particle, "mu_of_tau", None),
    (picture_equivalence, matrixmech, "expectation", None),
    (contraction_identity, acceptance, "flip_both", 0),      # the first vector of the stack
    (un_covariance, acceptance, "random_unitary", None),    # InputError, shown under ``error``
    (string_suite, worldsheet, "_phases", None),
    (algebra_suite, current_algebra, "_node_gram", None),
], ids=["particle-dynamics", "picture-equivalence", "c30-identity", "un-covariance",
        "string-suite", "algebra-suite"])
def test_non_finite_layer_fails_its_criterion(monkeypatch, criterion, owner, name, item, value):
    # a layer without a stack is poisoned on its first call, a stacked one in one entry
    if item is None:
        _poison_on_call(monkeypatch, owner, name, 1, value)
    else:
        _poison_item(monkeypatch, owner, name, item, value)
    with np.errstate(invalid="ignore", over="ignore"):
        result = criterion(11)
    assert not result.passed
    assert result.line().startswith("[FAIL]")
    assert _shows_non_finite(result), result.line()


# the two mistakes the picture-equivalence probe must catch: X left unevolved,
# and the Heisenberg flow run backwards while the state runs forwards
_evolve_pictures = matrixmech.evolve_pictures


def _unevolved_heisenberg(X0, P0, hbar, mass, tau_end, steps, state):
    (_, P), frozen, s = _evolve_pictures(X0, P0, hbar, mass, tau_end, steps, state)
    return (X0, P), frozen, s


def _reversed_flows(X0, P0, hbar, mass, tau_end, steps, state):
    heisenberg, _, _ = _evolve_pictures(X0, P0, hbar, mass, -tau_end, steps, state)
    _, frozen, s = _evolve_pictures(X0, P0, hbar, mass, tau_end, steps, state)
    return heisenberg, frozen, s


@pytest.mark.parametrize("broken", [_unevolved_heisenberg, _reversed_flows],
                         ids=["unevolved-X", "flow-to-minus-T"])
def test_picture_equivalence_fails_on_a_wrong_heisenberg_flow(monkeypatch, broken):
    monkeypatch.setattr(matrixmech, "evolve_pictures", broken)
    result = picture_equivalence(11)
    assert result.line().startswith("[FAIL]")
    assert result.details["expectation_gap"] > 0.5


def test_picture_equivalence_stationarity_fails_on_a_wrong_gauge(monkeypatch):
    # Gamma = +H/hbar instead of -H/hbar: the frozen system then turns at
    # twice the Heisenberg rate, so X and P leave their initial values
    built = []

    def plus_h_gauge(X0, P0, hbar, mass, tau_end, steps, state):
        built.append(steps)
        heisenberg, _, _ = _evolve_pictures(X0, P0, hbar, mass, tau_end, steps, state)
        gauge = matrixmech.schrodinger_gauge(hbar, mass)
        plus = lambda t, X, P: -gauge(t, X, P)
        frozen = matrixmech.covariant_evolve(X0, P0, hbar, mass, plus, tau_end, steps)
        return heisenberg, frozen, matrixmech.evolve_state(state, plus(0.0, X0, P0),
                                                           tau_end, steps)

    monkeypatch.setattr(matrixmech, "evolve_pictures", plus_h_gauge)
    result = picture_equivalence(11)
    assert built == [2000]                      # the criterion stepped the patched flow
    assert result.line().startswith("[FAIL]")
    assert result.details["stationarity"] > DEFAULT.stationarity


def test_un_covariance_fails_when_the_bras_turn_by_u(monkeypatch):
    # P moves by the similarity U P U^dagger only if the bras turn by U*; turned
    # by U, the flows' X no longer commute with the gauge transformation
    def bras_by_u(sys, U):
        return matrixmech.NSystem(sys.space, matrixmech._rotate(sys.kets, U),
                                  matrixmech._rotate(sys.bras, U), sys.mass)

    monkeypatch.setattr(matrixmech, "gauge_transform", bras_by_u)
    result = un_covariance(11)
    assert result.line().startswith("[FAIL]")
    assert result.details["evolve_gauge_commutator"] > 1e6 * DEFAULT.unitary_covariance


def test_picture_equivalence_takes_every_step(monkeypatch):
    # the criterion's 2000 steps reach the closed form R^2000 - 1: a run that
    # took fewer, longer steps fails here, though its gates could still pass
    power, taken = matrixmech._polynomial_power, []

    def counted(D, k, mul):
        taken.append(k)
        return power(D, k, mul)

    monkeypatch.setattr(matrixmech, "_polynomial_power", counted)
    assert picture_equivalence(11).passed
    assert taken == [2000]


def test_stacked_criteria_take_every_item(monkeypatch):
    # each title's size is the number of items that reach the criterion's stacked
    # layer: a shortened stack fails here, though every gate could still pass
    counts = {}

    def count(owner, name, key, stack_shape):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key] = counts.get(key, 0) + math.prod(stack_shape(*args))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(clifford, "resolve_hermitian", "matrices", lambda H, *_: np.shape(H)[:-2])
    count(acceptance, "flip_both", "vectors", lambda S: np.shape(S)[:-2])
    count(particle, "clifford_bracket", "states", lambda N, M, st: st.packed().shape[:-2])
    for criterion, key, size in ((proposition_suite, "matrices", 200),
                                 (contraction_identity, "vectors", 1000),
                                 (bracket_reduction, "states", 100)):
        counts.clear()
        assert criterion(11).passed
        assert counts[key] == size, criterion.title


# -- the stacked criteria against the per-item loops they replaced -------------
#
# proposition's loop gives the same bits.  The other two loops take their
# complex moduli, sums and products on other array layouts, so they may differ
# by rounding; each returns the worst value with its rounding bound, first
# order in the unit roundoff U: Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., Lemma 3.5 (a complex product is within sqrt(5) U of
# |a||b|, a sum of k terms within (k - 1) U of the sum of their moduli).

U = np.finfo(float).eps / 2


def _proposition_loop(seed):
    """proposition_suite's former body: one resolution per matrix, in draw order."""
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(200):
        n = int(rng.integers(1, 9))
        n_zero = int(rng.integers(0, n + 1)) if rng.random() < 0.35 else 0
        H = random_hermitian(rng, n, n_zero=n_zero)
        res = clifford.resolve_hermitian(H, clifford.allocate(2 * n, 2 * n))
        residuals.append((res.gram_residual(), res.null_residual()))
    worst_gram, worst_null = (float(w) for w in np.max(residuals, axis=0))
    return {"gram_residual": worst_gram, "null_residual": worst_null}


def _contraction_loop(seed, wrong=False):
    """contraction_identity's former body, one vector at a time: the worst
    rel_residual and the bound on its gap to another evaluation.

    Per vector, lhs = D U^T sums two complex products per entry and full =
    sum(D * U) four, so each side's lhs - full/2 is within (sqrt(5) + 3) U < 6 U
    of ``mag`` = max(|D| |U|^T) + sum(|D| |U|)/2, and the two sides within 12 U;
    the moduli and the quotient add 6 U relative.  ``wrong`` forgets the index
    flip, D = U."""
    rng = np.random.default_rng(seed)
    errors, bounds = [], []
    for _ in range(1000):
        v = random_fourvector(rng, complex_valued=True)
        up = vec_to_spinor(v)
        down = up if wrong else flip_both(up)
        full = np.sum(down * up)
        lhs = down @ up.T
        rhs = 0.5 * full * np.eye(2)
        errors.append(np.abs(lhs - rhs).max() / max(1.0, abs(full)))
        mag = np.max(np.abs(down) @ np.abs(up).T) + 0.5 * np.sum(np.abs(down) * np.abs(up))
        bounds.append(12 * U * (1 + errors[-1]) * mag / max(1.0, abs(full)) + 6 * U * errors[-1])
    return float(np.max(errors)), max(bounds)


def _bracket_magnitudes(N, M, st):
    """clifford_bracket and poisson_bracket with every term replaced by its modulus:
    the polynomials' |coef| at |x| and |p|, the spinor tables' moduli and |CD|."""
    x, p = np.abs(st.x_vec()), np.abs(st.p_vec())
    (gxN, gpN), (gxM, gpM) = ((Q.grad_x(x, p), Q.grad_p(x, p)) for Q in (
        particle.Polynomial(np.abs(P.coef), P.ax, P.bp) for P in (N, M)))

    def spinor(grad, table):
        return np.einsum("m,mab->ab", grad, np.abs(table))

    CD = np.abs(st.cd_gram())
    cb = 2 * np.sum((spinor(gxN, DX_UP).T @ spinor(gpM, DP_DOWN)) * CD) \
        + 2 * np.sum((spinor(gxM, DX_UP).T @ spinor(gpN, DP_DOWN)) * CD)
    return cb, gxN @ gpM + gxM @ gpN


def _bracket_loop(seed, wrong=False):
    """bracket_reduction's former body, one state at a time: the worst
    scaled_residual and the bound on its gap to another evaluation.

    A gradient term multiplies eight powers, each within 2 U, by its coefficient
    and exponent: 25 U, and 27 U once three terms are summed.  The spinor tables
    add U, the 2 x 2 product (sqrt(5) + 1) U, the product with CD sqrt(5) U and
    the two sums 6 U: clifford_bracket is within 40 U of its magnitude, and
    poisson_bracket's four-term dots and difference within 32 U.  Two sides
    differ by twice that; ``wrong`` drops the factor mu."""
    rng = np.random.default_rng(seed)
    errors, bounds = [], []
    for _ in range(100):
        mu = rng.uniform(0.2, 1.5)
        x = rng.uniform(-1, 1, size=4)
        p = random_timelike(rng)
        mass = math.sqrt(max(p[0] ** 2 - p[1:] @ p[1:], 0.04))
        st = particle.build_state(x, p, mu, mass)
        terms_n = [(rng.normal(), rng.integers(0, 3, 4), rng.integers(0, 2, 4))
                   for _ in range(3)]
        terms_m = [(rng.normal(), rng.integers(0, 2, 4), rng.integers(0, 3, 4))
                   for _ in range(3)]
        N = particle.polynomial_observable(terms_n)
        M = particle.polynomial_observable(terms_m)
        cb = particle.clifford_bracket(N, M, st)
        pb = particle.poisson_bracket(N, M, st.x_vec(), st.p_vec())
        errors.append(abs(cb - (1.0 if wrong else mu) * pb) / (1.0 + abs(pb)))
        cb_mag, pb_mag = _bracket_magnitudes(N, M, st)
        bounds.append((80 * U * cb_mag + 64 * U * (mu + errors[-1]) * pb_mag) / (1.0 + abs(pb))
                      + 6 * U * errors[-1])
    return float(np.max(errors)), max(bounds)


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_stacked_criteria_match_their_per_item_loops(seed):
    assert proposition_suite(seed).details == _proposition_loop(seed)       # bit for bit
    worst, bound = _contraction_loop(seed)
    assert abs(contraction_identity(seed).details["rel_residual"] - worst) <= bound
    worst, bound = _bracket_loop(seed)
    assert abs(bracket_reduction(seed).details["scaled_residual"] - worst) <= bound


@pytest.mark.parametrize("loop,criterion,field", [
    (_contraction_loop, contraction_identity, "rel_residual"),
    (_bracket_loop, bracket_reduction, "scaled_residual"),
], ids=["c30-identity", "bracket-reduction"])
def test_loop_bounds_reject_a_wrong_reference(loop, criterion, field):
    worst, bound = loop(11, wrong=True)
    assert abs(criterion(11).details[field] - worst) > 1e6 * bound


def test_picture_equivalence_keeps_no_trajectory():
    # numpy reports its buffers to tracemalloc; two stored 2001-row (2, 20, 20)
    # runs would take 51 MB, the end states and stage arrays well under 5 MB
    tracemalloc.start()
    try:
        assert picture_equivalence(11).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_particle_dynamics_keeps_no_coefficient_rows():
    # 10^4 stored (4, 24) complex rows would take 15.4 MB; the columns take
    # 1.6 MB and one block's temporaries about 80 KB
    tracemalloc.start()
    try:
        assert particle_dynamics(11).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_verify_all_prints_every_row_when_a_criterion_raises(monkeypatch, capsys):
    # a NaN in c makes particle.integrate raise ArithmeticError at step 0
    original = particle.build_state

    def nan_state(*args, **kwargs):
        st = original(*args, **kwargs)
        Y = st.packed().copy()
        Y[0, 0] = np.nan
        return particle.ParticleState(Y, st.space, st.mass, st.tau)

    monkeypatch.setattr(particle, "build_state", nan_state)
    code = main(["verify-all", "--seed", "11", "--json"])
    criteria = json.loads(capsys.readouterr().out)["criteria"]
    assert code == 1
    assert len(criteria) == len(CRITERIA)
    entry = criteria[[key for key, _ in CRITERIA].index("particle-dynamics")]
    assert entry["name"].startswith("particle dynamics") and not entry["passed"]
    assert entry["details"]["error"] == "integration produced non-finite values at step 0"


# -- run_all ------------------------------------------------------------------

@functools.cache
def _one_by_one(seed):
    """The eight criteria called in this process with the seeds run_all gives them; run
    once per seed, since the tests only read the results."""
    rngs = np.random.default_rng(seed).spawn(len(CRITERIA))
    return [fn(int(r.integers(0, 2 ** 63 - 1)), DEFAULT) for (_, fn), r in zip(CRITERIA, rngs)]


def _same_results(a, b):
    return [(r.name, r.passed, r.details) for r in a] == [(r.name, r.passed, r.details) for r in b]


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_run_all_equals_the_criteria_one_by_one(seed):
    results = run_all(seed)
    assert _same_results(results, _one_by_one(seed))
    assert all(r.passed for r in results)


def test_run_all_without_fork_runs_serially(monkeypatch):
    # run_all needs no fork: where the platform has none it gives the same rows
    monkeypatch.delattr(os, "fork", raising=False)
    assert _same_results(run_all(3), _one_by_one(3))


def _boom(*args, **kwargs):
    raise RuntimeError("boom")


def test_run_all_raises_an_uncaught_exception(monkeypatch):
    # an exception that the criterion's wrapper does not turn into a FAIL row
    # reaches the caller with its type and message
    monkeypatch.setattr(particle, "integrate", _boom)
    with pytest.raises(RuntimeError, match="^boom$"):
        run_all(11)


def test_every_result_carries_its_own_wall_time():
    # timing stays out of details, and so out of the payload
    start = time.perf_counter()
    results = run_all(11)
    wall = time.perf_counter() - start
    assert all(r.seconds > 0 and "seconds" not in r.details for r in results)
    # each result times its own criterion, not the whole run: no two read the
    # same, and together they fit in the run's wall time
    seconds = [r.seconds for r in results]
    assert len(set(seconds)) == len(seconds) and sum(seconds) <= wall
