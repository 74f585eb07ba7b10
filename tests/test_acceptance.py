"""The acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion; the same checks back the ``cliffdyn verify-all`` command.
"""

import contextlib
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
from cliffdyn.acceptance import (CRITERIA, FORKED, Window, algebra_suite, bracket_reduction,
                                 contraction_identity, particle_dynamics,
                                 picture_equivalence, proposition_suite, run_all,
                                 string_suite, un_covariance)
from cliffdyn.cli import main
from cliffdyn.clifford import GramResolution
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


def test_nan_gram_residual_fails_proposition(monkeypatch):
    _poison_on_call(monkeypatch, GramResolution, "gram_residual", 5)
    result = proposition_suite(11)
    assert not result.passed
    assert math.isnan(result.details["gram_residual"])
    assert result.line().startswith("[FAIL]") and "gram_residual=nan" in result.line()


def test_nan_clifford_bracket_fails_bracket_reduction(monkeypatch):
    _poison_on_call(monkeypatch, particle, "clifford_bracket", 7)
    result = bracket_reduction(11)
    assert not result.passed
    assert "scaled_residual=nan" in result.line()


def test_verify_all_prints_every_row_when_a_criterion_is_nan(monkeypatch, capsys):
    _poison_on_call(monkeypatch, GramResolution, "gram_residual", 5)
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
@pytest.mark.parametrize("criterion,owner,name", [
    (particle_dynamics, particle, "mu_of_tau"),
    (picture_equivalence, matrixmech, "evolve_state"),
    (contraction_identity, acceptance, "flip_both"),
    (un_covariance, acceptance, "random_unitary"),       # InputError, shown under ``error``
    (string_suite, worldsheet, "_phases"),
    (algebra_suite, current_algebra, "_node_gram"),
], ids=["particle-dynamics", "picture-equivalence", "c30-identity", "un-covariance",
        "string-suite", "algebra-suite"])
def test_non_finite_layer_fails_its_criterion(monkeypatch, criterion, owner, name, value):
    _poison_on_call(monkeypatch, owner, name, 1, value)
    with np.errstate(invalid="ignore", over="ignore"):
        result = criterion(11)
    assert not result.passed
    assert result.line().startswith("[FAIL]")
    assert _shows_non_finite(result), result.line()


# the two mistakes the picture-equivalence probe must catch: X left unevolved,
# and the Heisenberg flow run backwards
_evolve_pictures = matrixmech.evolve_pictures


def _unevolved_heisenberg(X0, P0, hbar, mass, tau_end, steps):
    (_, P), frozen = _evolve_pictures(X0, P0, hbar, mass, tau_end, steps)
    return (X0, P), frozen


def _reversed_flows(X0, P0, hbar, mass, tau_end, steps):
    return _evolve_pictures(X0, P0, hbar, mass, -tau_end, steps)


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
    flows, built = matrixmech._eigenbasis_flows, []

    def plus_h_gauge(X0, P0, hbar, mass, name, gauge):
        built.append(name)
        return flows(X0, P0, hbar, mass, name, lambda E: -gauge(E))

    monkeypatch.setattr(matrixmech, "_eigenbasis_flows", plus_h_gauge)
    result = picture_equivalence(11)
    assert built == ["evolve_pictures"]         # the criterion stepped the patched flow
    assert result.line().startswith("[FAIL]")
    assert result.details["stationarity"] > DEFAULT.stationarity


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
    # 1.6 MB and one block of rows and temporaries about 2.2 MB
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


# -- run_all's two lanes: FORKED in a forked child, the others here ------------

forking = pytest.mark.skipif(not (hasattr(os, "fork") and os.path.isdir("/proc/self/fd")),
                             reason="the lane tests need os.fork and /proc/self/fd")

_FORKED_SLOTS = [i for i, (key, _) in enumerate(CRITERIA) if key in FORKED]


def test_both_lanes_run_criteria():
    assert set(FORKED) < {key for key, _ in CRITERIA} and len(set(FORKED)) == len(FORKED)
    assert 0 < len(_FORKED_SLOTS) < len(CRITERIA)


@contextlib.contextmanager
def _no_child_or_fd_left():
    before = sorted(os.listdir("/proc/self/fd"))
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == before


@functools.cache
def _one_by_one(seed):
    """The eight criteria called in this process with the seeds run_all gives them; run
    once per seed, since the tests only read the results."""
    rngs = np.random.default_rng(seed).spawn(len(CRITERIA))
    return [fn(int(r.integers(0, 2 ** 63 - 1)), DEFAULT) for (_, fn), r in zip(CRITERIA, rngs)]


def _same_results(a, b):
    return [(r.name, r.passed, r.details) for r in a] == [(r.name, r.passed, r.details) for r in b]


@forking
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_run_all_equals_the_criteria_one_by_one(seed):
    with _no_child_or_fd_left():
        results = run_all(seed)
    assert _same_results(results, _one_by_one(seed))
    assert all(r.passed for r in results)


def _boom(*args, **kwargs):
    raise RuntimeError("boom")


# a layer function each criterion calls, which the lane tests stub
_LAYER_OF = {
    "proposition": (clifford, "resolve_hermitian"),
    "c30-identity": (acceptance, "flip_both"),
    "bracket-reduction": (particle, "clifford_bracket"),
    "particle-dynamics": (particle, "integrate"),
    "un-covariance": (matrixmech, "evolve_matrix_classical"),
    "picture-equivalence": (matrixmech, "evolve_pictures"),
    "string-suite": (worldsheet, "residual_suite"),
    "algebra-suite": (current_algebra, "sample_currents"),
}


@forking
@pytest.mark.parametrize("child", [True, False], ids=["child-lane", "parent-lane"])
def test_run_all_raises_an_uncaught_exception_of_either_lane(child):
    # a parent-lane criterion raises while the child still runs: the child is
    # killed and reaped; a child-lane one comes back pickled and is raised here
    for key, _ in CRITERIA:
        if (key in FORKED) == child:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(*_LAYER_OF[key], _boom)
                with _no_child_or_fd_left(), pytest.raises(RuntimeError, match="^boom$"):
                    run_all(11)


@forking
def test_a_child_that_dies_gives_a_fail_row(capsys):
    # the child dies in one of its criteria: every forked slot gets a FAIL row
    # under its own title, and the parent lane's rows are unchanged
    for key in FORKED:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(*_LAYER_OF[key], lambda *args, **kwargs: os._exit(3))
            with _no_child_or_fd_left():
                code = main(["verify-all", "--seed", "11"])
        rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
        assert code == 1
        assert len(rows) == len(CRITERIA)
        for i, (_, fn) in enumerate(CRITERIA):
            if i in _FORKED_SLOTS:
                assert rows[i] == (f"[FAIL] {fn.title}: error=criterion process ended by "
                                   "exit status 3 without a result")
            else:
                assert rows[i].startswith(f"[PASS] {fn.title}: ")


def test_run_all_without_fork_runs_serially(monkeypatch):
    seed = 3
    expected = _one_by_one(seed)
    monkeypatch.delattr(os, "fork", raising=False)
    assert _same_results(run_all(seed), expected)


@forking
def test_every_result_carries_its_own_wall_time():
    # the forked child's seconds come back with its pickled results, one per
    # criterion; timing stays out of details, and so out of the payload
    with _no_child_or_fd_left():
        start = time.perf_counter()
        results = run_all(11)
        wall = time.perf_counter() - start
    assert all(r.seconds > 0 and "seconds" not in r.details for r in results)
    # each forked result times its own criterion, not the fork or the whole
    # lane: no two read the same, and together they fit in the run's wall time
    forked = [results[i].seconds for i in _FORKED_SLOTS]
    assert len(set(forked)) == len(forked) and sum(forked) <= wall
