"""The acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion; the same checks back the ``cliffdyn verify-all`` command.
"""

import contextlib
import dataclasses
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from cliffdyn import acceptance, clifford, current_algebra, matrixmech, particle, worldsheet
from cliffdyn.acceptance import (CRITERIA, FORKED, algebra_suite, bracket_reduction,
                                 contraction_identity, particle_dynamics,
                                 picture_equivalence, proposition_suite, run_all,
                                 run_criterion, string_suite, un_covariance)
from cliffdyn.cli import main
from cliffdyn.clifford import GramResolution
from cliffdyn.tolerances import DEFAULT

SEED = 20260810


@pytest.mark.parametrize("key", [name for name, _ in CRITERIA])
def test_criterion(key, capsys):
    result = run_criterion(key, seed=SEED)
    with capsys.disabled():
        print(result.line())
    assert result.passed, result.line()


def test_all_criteria_under_different_seed():
    # the suite is property-based; a second seed exercises fresh inputs
    for key, _ in CRITERIA:
        result = run_criterion(key, seed=SEED + 1)
        assert result.passed, result.line()


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
    (algebra_suite, current_algebra, "_pairings"),
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
    heis, frozen = _evolve_pictures(X0, P0, hbar, mass, tau_end, steps)
    X = heis.X.copy()
    X[-1] = X0
    return dataclasses.replace(heis, X=X), frozen


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
    flows = matrixmech._commutator_flows

    def plus_h_gauge(X0, P0, hbar, mass, connections, name):
        heisenberg, gauge = connections
        return flows(X0, P0, hbar, mass, [heisenberg, lambda *stage: -gauge(*stage)], name)

    monkeypatch.setattr(matrixmech, "_commutator_flows", plus_h_gauge)
    result = picture_equivalence(11)
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


def test_verify_all_prints_every_row_when_a_criterion_raises(monkeypatch, capsys):
    # a NaN in c makes particle.integrate raise ArithmeticError at step 0
    original = particle.build_state

    def nan_state(*args, **kwargs):
        st = original(*args, **kwargs)
        Y = st.packed().copy()
        Y[0, 0] = np.nan
        return particle.ParticleState._of_stack(Y, st.space, st.mass, st.tau)

    monkeypatch.setattr(particle, "build_state", nan_state)
    code = main(["verify-all", "--seed", "11", "--json"])
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line.startswith("[")]
    assert code == 1
    assert len(rows) == len(CRITERIA)
    row = rows[[key for key, _ in CRITERIA].index("particle-dynamics")]
    assert row.startswith("[FAIL] particle dynamics")
    assert "error=integration produced non-finite values at step 0" in row
    assert '"error": "integration produced non-finite values at step 0"' in out


# -- run_all's two lanes: FORKED in a forked child, the other seven here --------

forking = pytest.mark.skipif(not (hasattr(os, "fork") and os.path.isdir("/proc/self/fd")),
                             reason="the lane tests need os.fork and /proc/self/fd")


@contextlib.contextmanager
def _no_child_or_fd_left():
    before = sorted(os.listdir("/proc/self/fd"))
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == before


def _one_by_one(seed):
    """The eight criteria called in this process with the seeds run_all gives them."""
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


@forking
@pytest.mark.parametrize("owner,name", [(matrixmech, "evolve_pictures"),
                                        (clifford, "resolve_hermitian")],
                         ids=["child-lane", "parent-lane"])
def test_run_all_raises_an_uncaught_exception_of_either_lane(monkeypatch, owner, name):
    # the parent lane raises while the child still runs: the child is killed and reaped
    monkeypatch.setattr(owner, name, _boom)
    with _no_child_or_fd_left(), pytest.raises(RuntimeError, match="^boom$"):
        run_all(11)


@forking
def test_a_child_that_dies_gives_a_fail_row(monkeypatch, capsys):
    monkeypatch.setattr(matrixmech, "evolve_pictures", lambda *args: os._exit(3))
    with _no_child_or_fd_left():
        code = main(["verify-all", "--seed", "11"])
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
    assert code == 1
    assert len(rows) == len(CRITERIA)
    slot = [key for key, _ in CRITERIA].index(FORKED)
    assert rows[slot] == ("[FAIL] picture equivalence (20-level oscillator): "
                          "error=criterion process ended by exit status 3 without a result")
    assert all(row.startswith("[PASS]") for i, row in enumerate(rows) if i != slot)


def test_run_all_without_fork_runs_serially(monkeypatch):
    seed = 3
    expected = _one_by_one(seed)
    monkeypatch.delattr(os, "fork", raising=False)
    assert _same_results(run_all(seed), expected)
