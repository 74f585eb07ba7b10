"""Current brackets, charge algebra, su(2) split, Poincare verification."""

import dataclasses
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from cliffdyn import acceptance, current_algebra
from cliffdyn.errors import InputError, PreconditionError, VerificationError
from cliffdyn.tolerances import DEFAULT
from cliffdyn.spinors import EPS_LO
from cliffdyn.current_algebra import (
    LiePresentation,
    _bracket_table,
    _make_sample,
    _per_du,
    charge_algebra,
    current_bracket,
    current_bracket_dotted,
    fit_structure_constants,
    g1_pattern,
    nk_decomposition,
    poincare_check,
    poincare_matrix_oracle,
    sample_currents,
    unitary_current_check,
)
from cliffdyn.worldsheet import (
    arc_curve,
    build_wave_state,
    constant_time_curve,
    make_mode_spec,
)

MASS = 1.1
SYM = ((0, 0), (0, 1), (1, 1))


def _rich_spec(shift=0.0):
    return make_mode_spec(
        mass=MASS, modes=(1, -1, 2, -2),
        k_block=0.3 * np.eye(2),
        a_self={1: np.diag([0.15, 0.18 + shift]), -1: np.diag([0.17, 0.14]),
                2: 0.12 * np.eye(2), -2: 0.13 * np.eye(2)},
        a_cross={1: np.array([[0.14, 0.01], [0.02, 0.15]]), 2: 0.115 * np.eye(2)},
        b_self={1: np.diag([0.16, 0.13]), -1: np.diag([0.12, 0.19])},
        b_cross={1: np.array([[0.13, -0.01j], [0.01, 0.12]])})


@pytest.fixture(scope="module")
def rich_state():
    return build_wave_state(_rich_spec())


@pytest.fixture(scope="module")
def sample(rich_state):
    return sample_currents(rich_state, constant_time_curve(0.4), 128)


# -- sampling -------------------------------------------------------------------

def test_current_scalars_symmetric(sample):
    assert np.abs(sample.j - np.swapaxes(sample.j, 1, 2)).max() == 0.0


def test_sampling_rejects_timelike_curve(rich_state):
    from cliffdyn.worldsheet import Curve
    import math
    bad = Curve(lambda u: (2.0 * np.sin(math.pi * u), math.pi * u),
                lambda u: (2.0 * math.pi * np.cos(math.pi * u), math.pi))
    with pytest.raises(PreconditionError):
        sample_currents(rich_state, bad, 16)


def test_total_charge_path_independent(rich_state, sample):
    other = sample_currents(rich_state, arc_curve(0.4, 0.2), 128)
    assert np.abs(sample.j_total() - other.j_total()).max() < 1e-8


def test_no_mode_currents_constant_along_curve():
    st = build_wave_state(make_mode_spec(mass=MASS, k_block=0.4 * np.eye(2)))
    s = sample_currents(st, constant_time_curve(0.4), 32)
    assert np.abs(s.j - s.j[0]).max() < 1e-13


# -- the bracket table against the per-node reference -----------------------------
#
# The reference builds each charge's functional derivatives one node at a
# time as G-wide rows, (dc, dds, dcs, dd) by c, d*, conj(c) and conj(d*), and
# contracts them one node at a time.  The engine instead contracts constant
# coefficient tables with one per-node Gram, so the sums run in another
# order: the two agree to the float64 summation bound.

EPS = np.finfo(float).eps
PAIRS4 = ((0, 0), (0, 1), (1, 0), (1, 1))


class _Rec(NamedTuple):
    dc: np.ndarray | None = None
    dds: np.ndarray | None = None
    dcs: np.ndarray | None = None
    dd: np.ndarray | None = None


def _ref_j_record(sample, A, B, eps=EPS_LO, dds_terms=2):
    n, _, G = sample.c.shape
    dc = np.zeros((n, 2, G), dtype=complex)
    dds = np.zeros((n, 2, G), dtype=complex)
    for m in range(n):
        c_low = np.stack([sample.c[m, 1], -sample.c[m, 0]])
        for Gi in range(2):
            dc[m, Gi] = eps[Gi, A] * sample.dproj[m, B] + eps[Gi, B] * sample.dproj[m, A]
        dds[m, B] += c_low[A]
        if dds_terms == 2:
            dds[m, A] += c_low[B]
    return _Rec(dc=dc, dds=dds)


def _ref_records(sample, j_record=_ref_j_record, p_conj=True):
    """The table's charges in its order: j_(AB), their daggers, i, p_(EF)."""
    js = [j_record(sample, A, B) for A, B in SYM]
    jds = [_Rec(dcs=r.dc.conj(), dd=r.dds.conj()) for r in js]
    i = _Rec(dc=1j * sample.dproj, dds=1j * sample.c,
             dcs=-1j * sample.dproj.conj(), dd=-1j * sample.c.conj())
    dt = np.einsum("m,mag->ag", sample.weights, sample.dproj)
    ps = []
    for E, F in PAIRS4:
        dds = np.zeros_like(sample.dproj)
        dd = np.zeros_like(sample.dproj)
        dds[:, E] = dt[F].conj() if p_conj else dt[F]
        dd[:, F] = dt[E]
        ps.append(_Rec(dds=dds, dd=dd))
    return js + jds + [i] + ps


def _terms(sample, F1, F2, k):
    """The signed pairings of {F1, F2} at node k, each as its (2, G) bullet terms."""
    return [sign * X[k] * sample.signs * Y[k]
            for sign, X, Y in ((1, F1.dc, F2.dds), (1, F1.dcs, F2.dd),
                               (-1, F2.dc, F1.dds), (-1, F2.dcs, F1.dd))
            if X is not None and Y is not None]


def _ref_point_bracket(sample, F1, F2, k):
    def contract(X, Y):
        if X is None or Y is None:
            return 0.0
        return complex(np.einsum("ag,g,ag->", X[k], sample.signs, Y[k]))

    val = (contract(F1.dc, F2.dds) + contract(F1.dcs, F2.dd)
           - contract(F2.dc, F1.dds) - contract(F2.dcs, F1.dd))
    return val / sample.du


def _bracket_bound(sample, F1, F2, k):
    """Both sides' float64 summation error at node k, over du: the engine sums G
    products per Gram entry and 32 Gram entries, the reference 2 G per pairing."""
    G = sample.c.shape[-1]
    mag = sum(float(np.abs(t).sum()) for t in _terms(sample, F1, F2, k))
    return 4 * (G + 32) * EPS * mag / sample.du


def _ref_node_table(sample, records):
    n = sample.n_nodes
    pairs = [(F1, F2) for F1 in records for F2 in records]
    ref = np.array([[_ref_point_bracket(sample, F1, F2, k) for F1, F2 in pairs]
                    for k in range(n)]).reshape(n, len(records), len(records))
    bound = np.array([[_bracket_bound(sample, F1, F2, k) for F1, F2 in pairs]
                      for k in range(n)]).reshape(ref.shape)
    return ref, bound


def _within(got, ref, bound):
    return got.shape == ref.shape and bool(np.all(np.abs(got - ref) <= bound))


@pytest.fixture(scope="module", params=[16, 24, 128])
def sized_sample(request, rich_state, sample):
    if request.param == 128:
        return sample
    return sample_currents(rich_state, constant_time_curve(0.4), request.param)


def test_sample_matches_per_node_reference(sized_sample):
    s = sized_sample
    for m in range(s.n_nodes):
        c_low = np.stack([s.c[m, 1], -s.c[m, 0]])
        jm = (c_low * s.signs) @ s.dproj[m].T
        assert np.array_equal(s.j[m], jm + jm.T)
        tr = np.trace((s.c[m] * s.signs) @ s.dproj[m].T)
        assert s.icur[m] == 1j * (tr - np.conj(tr))


def test_node_brackets_match_per_node_reference(sized_sample):
    s = sized_sample
    ref, bound = _ref_node_table(s, _ref_records(s))
    assert _within(_per_du(_bracket_table(s), s.du), ref, bound)


@pytest.mark.parametrize("mutation", ["eps-flipped", "dds-term-dropped", "p-unconjugated"])
def test_bracket_bound_rejects_a_wrong_reference(mutation):
    # the bound admits a reordered sum, not a record with a sign flipped or a term dropped
    st = build_wave_state(acceptance._acceptance_mode_spec())
    s = sample_currents(st, constant_time_curve(0.4), 16)
    if mutation == "eps-flipped":
        wrong = _ref_records(s, j_record=lambda *a: _ref_j_record(*a, eps=EPS_LO.T))
    elif mutation == "dds-term-dropped":
        wrong = _ref_records(s, j_record=lambda *a: _ref_j_record(*a, dds_terms=1))
    else:
        wrong = _ref_records(s, p_conj=False)
    got = _per_du(_bracket_table(s), s.du)
    assert _within(got, *_ref_node_table(s, _ref_records(s)))
    ref, bound = _ref_node_table(s, wrong)
    assert np.max(np.abs(got - ref) - bound) > 1e-6


def test_charge_bracket_matches_weighted_reference(sample):
    """The engine weights the node brackets of its table; the reference contracts
    each pairing with the weights in one sum.  The sums run in another order,
    so they agree to the float64 summation bound n * eps * sum |terms|.
    """
    records = _ref_records(sample)
    got = np.tensordot(sample.weights, _bracket_table(sample), 1)
    for f1, F1 in enumerate(records):
        for f2, F2 in enumerate(records):
            ref = 0.0
            bound = 0.0
            for sign, X, Y in ((1, F1.dc, F2.dds), (1, F1.dcs, F2.dd),
                               (-1, F2.dc, F1.dds), (-1, F2.dcs, F1.dd)):
                if X is None or Y is None:
                    continue
                ref += sign * complex(np.einsum("m,mag,g,mag->", sample.weights, X,
                                                sample.signs, Y))
                t = np.einsum("m,mag,g,mag->mag", sample.weights, X, sample.signs, Y)
                bound += 4 * t.size * EPS * float(np.abs(t).sum())
            assert abs(got[f1, f2] - ref) <= bound


def test_fit_matches_per_node_reference(rich_state):
    """The fit's right-hand sides are the table's node brackets times du, within
    the bound of the reference; lstsq moves its solution by at most the sides'
    change over the least singular value."""
    samples = [sample_currents(rich_state, constant_time_curve(t), 16) for t in (0.4, 0.9)]
    rows = np.concatenate([
        np.stack([s.j[:, 0, 0], s.j[:, 0, 1], s.j[:, 1, 1]], axis=1) for s in samples])
    refs = [[s.du * r.reshape(s.n_nodes, 9) for r in _ref_node_table(s, _ref_records(s)[:3])]
            for s in samples]
    target, bound = (np.concatenate(parts) for parts in zip(*refs))
    expect = np.linalg.lstsq(rows, target, rcond=None)[0].T.reshape(3, 3, 3)
    sv = np.linalg.svd(rows, compute_uv=False)
    slack = np.linalg.norm(bound, axis=0).reshape(3, 3, 1) / sv[-1] \
        + 8 * (sv[0] / sv[-1]) * EPS * np.abs(expect).max()
    assert np.all(np.abs(fit_structure_constants(samples) - expect) <= slack)


# -- pointwise brackets -----------------------------------------------------------

def test_pointwise_bracket_matches_pattern(sample):
    worst = 0.0
    for (A, B) in SYM:
        for (E, F) in SYM:
            for k in (0, 17, 64, 127):
                lhs = current_bracket(sample, A, B, E, F, k, k)
                rhs = g1_pattern(sample, A, B, E, F, k, k)
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    assert worst < 1e-9


def test_pointwise_bracket_delta_support(sample):
    assert current_bracket(sample, 0, 1, 0, 0, 3, 4) == 0.0
    assert g1_pattern(sample, 0, 1, 0, 0, 3, 4) == 0.0


def test_dotted_undotted_bracket_vanishes(sample):
    for (A, B) in SYM:
        for (E, F) in SYM:
            assert abs(current_bracket_dotted(sample, A, B, E, F, 11, 11)) < 1e-12


def test_bracket_grid_independence(rich_state, sample):
    coarse = sample_currents(rich_state, constant_time_curve(0.4), 64)
    worst = 0.0
    for k64 in (0, 10, 32, 63):
        a = current_bracket(coarse, 0, 1, 0, 0, k64, k64) * coarse.du
        b = current_bracket(sample, 0, 1, 0, 0, 2 * k64, 2 * k64) * sample.du
        worst = max(worst, abs(a - b))
    assert worst < 1e-8


def test_exact_arithmetic_oracle():
    """Hand-built sample with dyadic coefficients: bracket equals pattern exactly.

    The oracle reimplements the pointwise bracket in exact Fractions and the
    engine must agree bit for bit (dyadic rationals stay exact in floats).
    """
    from cliffdyn.clifford import allocate
    space = allocate(3, 3)
    signs = space.signs
    # three nodes (Simpson wants an odd count), dyadic coefficients; the
    # third node mirrors the first
    c = np.zeros((3, 2, 6), dtype=complex)
    d = np.zeros((3, 2, 6), dtype=complex)
    c[0, 0, 0], c[0, 0, 3] = 0.5, 0.25
    c[0, 1, 1], c[0, 1, 4] = -0.5, 1.0
    c[1, 0, 0], c[1, 0, 4] = 0.75, -0.25
    c[1, 1, 2], c[1, 1, 5] = 0.5, 0.5
    d[0, 0, 1], d[0, 0, 5] = 1.0, -0.5
    d[0, 1, 0], d[0, 1, 2] = 0.25, 0.75
    d[1, 0, 3], d[1, 0, 1] = -1.0, 0.5
    d[1, 1, 4], d[1, 1, 0] = 0.5, 0.25
    c[2], d[2] = c[0], d[0]
    sample = _make_sample(np.array([0.0, 0.5, 1.0]), 0.5, c, d, signs)

    def fr(x):
        return Fraction(float(x))            # exact for dyadic inputs

    def bullet_fr(u, v):
        return sum(fr(u[g].real) * fr(v[g].real) * fr(signs[g]) for g in range(6))

    eps = [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]
    for k in range(2):
        c_low = [[sum(fr(c[k][G][g].real) * eps[G][A] for G in range(2)) for g in range(6)]
                 for A in range(2)]
        # exact j values
        j_fr = [[bullet_fr(c_low[A], d[k][B].real) + bullet_fr(c_low[B], d[k][A].real)
                 for B in range(2)] for A in range(2)]
        for (A, B) in SYM:
            for (E, F) in SYM:
                pattern = (j_fr[A][E] * eps[F][B] + j_fr[B][E] * eps[F][A]
                           + j_fr[A][F] * eps[E][B] + j_fr[B][F] * eps[E][A]) / fr(0.5)
                engine = current_bracket(sample, A, B, E, F, k, k)
                assert engine.imag == 0.0
                assert Fraction(engine.real) == pattern


# -- charge algebra ---------------------------------------------------------------

def test_charge_algebra_closure_and_jacobi(sample):
    pres, report = charge_algebra(sample)
    assert report["closure_rel_residual"] < 1e-9
    assert report["dagger_cross_residual"] < 1e-9
    assert report["jacobi_residual"] < 1e-10
    assert pres.antisymmetry_residual() == 0.0
    # [J, Jdagger] = 0 is encoded as vanishing cross constants
    assert np.abs(pres.f[:3, 3:, :]).max() == 0.0


def test_structure_constants_state_independent():
    fits = []
    for shift in (0.0, 0.04):
        st = build_wave_state(_rich_spec(shift))
        samples = [sample_currents(st, constant_time_curve(t), 64) for t in (0.4, 0.9)]
        fits.append(fit_structure_constants(samples))
    assert np.abs(fits[0] - fits[1]).max() < 1e-9


def test_fit_rejects_degenerate_single_slice():
    st = build_wave_state(_rich_spec(0.04))
    s = sample_currents(st, constant_time_curve(0.4), 64)
    with pytest.raises(PreconditionError):
        fit_structure_constants([s])


# -- su(2) decomposition -------------------------------------------------------------

def test_nk_decomposition(sample):
    pres, _ = charge_algebra(sample)
    suA, suB, report = nk_decomposition(pres)
    # the printed combinations close with -i hbar; the fitted constant records it
    assert report["closure_constant"] == pytest.approx(-1j, abs=1e-12)
    assert report["max_residual"] < 1e-10
    assert report["casimir_residual"] < 1e-10
    assert suA.jacobi_residual() < 1e-12
    assert suB.jacobi_residual() < 1e-12


# -- Poincare ---------------------------------------------------------------------------

def test_poincare_structure_constants_match_oracle(sample):
    report = poincare_check(sample)
    assert report["max_structure_mismatch"] < 1e-10
    assert report["pp_residual"] == 0.0
    assert report["pj_pattern_residual"] < 1e-10


def test_poincare_check_does_not_call_charge_algebra(sample, monkeypatch):
    # the J closure is charge_algebra's check; poincare_check reads the per-hbar constants
    expect = poincare_check(sample)

    def refuse(*args, **kwargs):
        raise AssertionError("charge_algebra called")

    monkeypatch.setattr(current_algebra, "charge_algebra", refuse)
    assert poincare_check(sample) == expect


def test_poincare_check_reads_the_sample_charge_algebra(monkeypatch):
    import cliffdyn.current_algebra as ca
    st = build_wave_state(acceptance._acceptance_mode_spec())
    fresh, other = (sample_currents(st, constant_time_curve(t), 16) for t in (0.4, 0.9))
    grams = []

    def counted(sample, _fn=ca._node_gram):
        grams.append(sample)
        return _fn(sample)

    monkeypatch.setattr(ca, "_node_gram", counted)
    charge_algebra(fresh)
    assert len(grams) == 1 and grams[0] is fresh          # one Gram per sample
    poincare_check(fresh)
    unitary_current_check(fresh)
    current_bracket(fresh, 0, 1, 1, 1, 3, 3)
    assert len(grams) == 1                                 # they read the kept table
    fit_structure_constants([fresh, other])
    assert len(grams) == 2 and grams[1] is other


def test_bracket_table_is_kept_per_sample_and_read_only(sample):
    table = _bracket_table(sample)
    assert _bracket_table(sample) is table and sample.brackets is table
    assert table.shape == (sample.n_nodes, 11, 11)
    with pytest.raises(ValueError):
        table[0, 0, 0] = 0.0


def test_total_polymomentum_is_one_array_read_by_p_total_and_the_gram(rich_state):
    fresh = sample_currents(rich_state, constant_time_curve(0.4), 16)
    dt = fresh.dstar_total
    assert fresh.dstar_total is dt and not dt.flags.writeable
    ref = np.einsum("m,mag->ag", fresh.weights, fresh.dproj)
    assert np.abs(dt - ref).max() <= 1e-14 * np.abs(ref).max()
    p, gram = fresh.p_total(), current_algebra._node_gram(fresh)
    # doubling the kept array doubles what each reader builds from it, exactly
    fresh.dstar_total = 2 * dt
    assert np.array_equal(fresh.p_total(), 4 * p)
    doubled = current_algebra._node_gram(fresh)
    assert np.array_equal(doubled[:, :2, 4:], 2 * gram[:, :2, 4:])
    assert np.array_equal(doubled[:, :2, :4], gram[:, :2, :4])


def test_presentations_and_samples_compare_by_identity(rich_state):
    # a dataclass __eq__ would compare the arrays and raise on more than one element
    pres = LiePresentation(("x",), np.zeros((2, 2, 2)))
    assert pres == pres
    assert pres != LiePresentation(("x",), np.zeros((2, 2, 2)))
    fresh, again = (sample_currents(rich_state, constant_time_curve(0.4), 16) for _ in range(2))
    assert fresh == fresh
    assert fresh != again


def test_charge_algebra_is_shared_per_hbar_and_read_only(sample):
    st = build_wave_state(acceptance._acceptance_mode_spec())
    other = sample_currents(st, constant_time_curve(0.9), 16)
    pres, report = charge_algebra(sample)
    assert charge_algebra(other)[0] is pres
    assert charge_algebra(other)[1] is not report          # the closure residuals are the sample's
    assert not pres.f.flags.writeable
    with pytest.raises(ValueError):
        pres.f[0, 1, 2] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        pres.f = np.zeros((6, 6, 6))


def test_charge_algebra_at_another_hbar_is_built_anew(sample):
    pres = charge_algebra(sample)[0]
    pres2 = charge_algebra(sample, hbar=2.0)[0]
    assert pres2 is not pres
    assert charge_algebra(sample, hbar=2.0)[0] is pres2
    assert np.array_equal(pres2.f, 2.0 * pres.f)


@pytest.mark.parametrize("hbar", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("check", ["charge_algebra", "poincare_check", "nk_decomposition",
                                   "poincare_matrix_oracle"])
def test_bad_hbar_is_refused(sample, check, hbar):
    # at hbar = 0 every quantum constant vanishes, and each check would pass trivially
    args = {"charge_algebra": (sample,), "poincare_check": (sample,),
            "nk_decomposition": (charge_algebra(sample)[0],), "poincare_matrix_oracle": ()}
    with pytest.raises(InputError, match="hbar must be finite and positive"):
        getattr(current_algebra, check)(*args[check], hbar=hbar)


def test_poincare_oracle_self_consistent():
    F, labels = poincare_matrix_oracle()
    pres = LiePresentation(labels, F)
    assert pres.antisymmetry_residual() < 1e-12
    assert pres.jacobi_residual() < 1e-12
    # spot checks of textbook relations: [M12, M23] = -i M13 ... sign per rep;
    # verify [P1, P2] = 0 and that [M12, P1] lands on P2 only
    i_m12, i_p1, i_p2 = labels.index("M12"), labels.index("P1"), labels.index("P2")
    assert np.abs(F[i_p1, i_p2]).max() == 0.0
    out = F[i_m12, i_p1]
    nonzero = {labels[c] for c in range(10) if abs(out[c]) > 1e-12}
    assert nonzero == {"P2"}


def test_poincare_oracle_built_once_per_hbar():
    F, labels = poincare_matrix_oracle(1.0)
    assert poincare_matrix_oracle(1.0)[0] is F
    assert not F.flags.writeable
    F2, _ = poincare_matrix_oracle(2.0)
    assert np.allclose(F2, 2.0 * F, rtol=0, atol=1e-12)


# -- NaN propagation and tolerance routing ----------------------------------------

@pytest.fixture(scope="module")
def nan_node_samples():
    """The 16-node acceptance sample at tau = 0.4, clean and with one NaN dproj entry."""
    st = build_wave_state(acceptance._acceptance_mode_spec())
    clean = sample_currents(st, constant_time_curve(0.4), 16)
    dproj = clean.dproj.copy()
    dproj[5, 1, 3] = np.nan
    return clean, _make_sample(clean.us, clean.du, clean.c, dproj, clean.signs)


def test_charge_algebra_rejects_nan_node(nan_node_samples):
    _, broken = nan_node_samples
    with pytest.raises(VerificationError) as info:
        charge_algebra(broken)
    assert np.isnan(info.value.details["closure_rel_residual"])


def test_charge_algebra_failure_is_not_kept(nan_node_samples):
    _, broken = nan_node_samples
    for _ in range(2):
        with pytest.raises(VerificationError) as info:
            charge_algebra(broken)
        assert np.isnan(info.value.details["closure_rel_residual"])


def test_poincare_check_rejects_nan_node(nan_node_samples):
    _, broken = nan_node_samples
    with pytest.raises(VerificationError) as info:
        poincare_check(broken)
    assert np.isnan(info.value.details["pj_pattern_residual"])


def test_nk_decomposition_rejects_nan_constants(sample):
    pres, _ = charge_algebra(sample)
    f = pres.f.copy()
    f[0, 1, 2] = np.nan
    with pytest.raises(VerificationError):
        nk_decomposition(LiePresentation(pres.labels, f))


def test_algebra_suite_routes_tolerances(monkeypatch):
    seen = {}
    for name in ("nk_decomposition", "poincare_check", "unitary_current_check"):
        def record(*args, _name=name, _fn=getattr(current_algebra, name), **kwargs):
            seen[_name] = kwargs.get("tol")
            return _fn(*args, **kwargs)
        monkeypatch.setattr(current_algebra, name, record)
    tols = DEFAULT.with_overrides(algebra_closure=3e-10, unitary_brackets=4e-10)
    assert acceptance.algebra_suite(0, tols).passed
    assert seen == {"nk_decomposition": 3e-10, "poincare_check": 3e-10,
                    "unitary_current_check": 4e-10}


def test_algebra_closure_override_reaches_poincare_raise():
    # the Poincare mismatch is about 2e-16 on the acceptance sample
    result = acceptance.algebra_suite(0, DEFAULT.with_overrides(algebra_closure=1e-30))
    assert not result.passed
    assert result.details["error"].startswith("Poincare structure constants mismatch")


def test_charge_closure_override_fails_algebra_suite():
    # the closure residual is about 1e-16 on the acceptance sample
    result = acceptance.algebra_suite(0, DEFAULT.with_overrides(charge_closure=1e-30))
    assert not result.passed
    assert result.line().startswith("[FAIL]")
    assert result.details["error"].startswith("charge algebra closure off by")
    assert 1e-30 < result.details["closure_rel_residual"] <= DEFAULT.charge_closure


def test_momentum_charge_override_fails_algebra_suite():
    # the [P, J] pattern residual is about 1e-15 on the acceptance sample
    result = acceptance.algebra_suite(0, DEFAULT.with_overrides(momentum_charge=1e-30))
    assert not result.passed
    assert result.line().startswith("[FAIL]")
    assert result.details["error"].startswith("momentum-charge bracket pattern off by")
    assert 1e-30 < result.details["pj_pattern_residual"] <= DEFAULT.momentum_charge


def test_poincare_check_on_second_state():
    st = build_wave_state(_rich_spec(0.04))
    s = sample_currents(st, constant_time_curve(0.7), 64)
    report = poincare_check(s)
    assert report["max_structure_mismatch"] < 1e-10


# -- unitary current ---------------------------------------------------------------------

def test_unitary_current_brackets_vanish(sample):
    report = unitary_current_check(sample)
    assert report["ii_residual"] < 1e-10
    assert report["ij_residual"] < 1e-10


def test_unitary_charge_vanishes_on_constrained_state():
    st = build_wave_state(make_mode_spec(mass=MASS, k_block=0.4 * np.eye(2)))
    s = sample_currents(st, constant_time_curve(0.4), 64)
    report = unitary_current_check(s)
    assert abs(report["i_total"]) < 1e-12


def test_unitary_check_reads_every_node():
    # a NaN c row at node 5 makes that node's brackets NaN; a check that strides
    # over the nodes (every 8th of these 129) would pass it by
    st = build_wave_state(acceptance._acceptance_mode_spec())
    clean = sample_currents(st, constant_time_curve(0.4), 128)
    c = clean.c.copy()
    c[5, 0, 2] = np.nan
    broken = _make_sample(clean.us, clean.du, c, clean.dproj, clean.signs)
    assert np.isnan(_bracket_table(broken)[5]).all()
    assert not np.isnan(np.delete(_bracket_table(broken), 5, axis=0)).any()
    with pytest.raises(VerificationError) as info:
        unitary_current_check(broken)
    assert np.isnan(info.value.details["ii_residual"])
