"""The acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion; the same checks back the ``cliffdyn verify-all`` command.
"""

import math

import pytest

from cliffdyn import particle
from cliffdyn.acceptance import CRITERIA, bracket_reduction, proposition_suite, run_criterion
from cliffdyn.cli import main
from cliffdyn.clifford import GramResolution

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


def _nan_on_call(monkeypatch, owner, name, call):
    """Patch owner.name so that its call-th call returns NaN; the others run unchanged."""
    original = getattr(owner, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(None)
        return float("nan") if len(calls) == call else original(*args, **kwargs)

    monkeypatch.setattr(owner, name, patched)


def test_nan_gram_residual_fails_proposition(monkeypatch):
    _nan_on_call(monkeypatch, GramResolution, "gram_residual", 5)
    result = proposition_suite(11)
    assert not result.passed
    assert math.isnan(result.details["gram_residual"])
    assert result.line().startswith("[FAIL]") and "gram_residual=nan" in result.line()


def test_nan_clifford_bracket_fails_bracket_reduction(monkeypatch):
    _nan_on_call(monkeypatch, particle, "clifford_bracket", 7)
    result = bracket_reduction(11)
    assert not result.passed
    assert "scaled_residual=nan" in result.line()


def test_verify_all_prints_every_row_when_a_criterion_is_nan(monkeypatch, capsys):
    _nan_on_call(monkeypatch, GramResolution, "gram_residual", 5)
    code = main(["verify-all", "--seed", "11"])
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
    assert code == 1
    assert len(rows) == len(CRITERIA)
    assert rows[0].startswith("[FAIL]") and "gram_residual=nan" in rows[0]
    assert all(row.startswith("[PASS]") for row in rows[1:])
