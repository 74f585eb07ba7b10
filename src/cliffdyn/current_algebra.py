"""Discretized Noether-current brackets and Lie-algebra verification.

Currents are sampled along a spacelike worldsheet curve; the functional
Clifford bracket of two charges reduces, after the lattice replacement
delta(u' - u'') -> delta_{kl} / du, to sums of bullet products of their
functional derivatives.  The spinors form a canonical system (c with d*,
conj(c) with conj(d*)), and every charge in play -- the currents j_(AB),
their daggers, the U(1) current i and the momentum entries p_(EF) -- is
bilinear in (c, d*).  So each charge is a constant coefficient table over
the projected polymomentum rows, the c rows and the total-d* rows, built
at import, and one contraction of those tables with one per-node Gram of
the rows gives the node brackets of every pair of charges.  The sample
keeps that table, and every check reads it:

* pointwise current brackets, which must reproduce the epsilon pattern
  (j_AE eps_FB + A<->B) + E<->F times the lattice delta;
* integrated charge brackets (Simpson weights applied to the table), which
  close on the total charges and carry over to the quantum algebra through
  {,} -> [,]/(i hbar), i.e. structure constants get multiplied by i hbar;
* mixed momentum-charge brackets, which close on the total momentum and
  combine with the charge algebra into the Poincare algebra, checked
  against an independent matrix-representation oracle.

All spinor index lowering is the right contraction v_A = v^B eps_{BA}
shared with the rest of the package; this is the choice under which the
pointwise bracket identity holds with the sign pattern above.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .clifford import bullet_gram
from .errors import InputError, PreconditionError, VerificationError
from .particle import pair_charges
from .spinors import DP_DOWN, EPS_LO, ETA
from .tolerances import DEFAULT
from .worldsheet import Curve, StringState, _product, curve_fields, simpson_weights

__all__ = [
    "CurrentSample",
    "sample_currents",
    "current_bracket",
    "current_bracket_dotted",
    "g1_pattern",
    "charge_algebra",
    "LiePresentation",
    "nk_decomposition",
    "poincare_check",
    "unitary_current_check",
    "poincare_matrix_oracle",
]

_SYM = ((0, 0), (0, 1), (1, 1))        # independent symmetric index pairs
_SYM_INDEX = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}
_PAIRS4 = ((0, 0), (0, 1), (1, 0), (1, 1))   # momentum entries, row-major

# The charges of the bracket table, in order: j_(AB) over _SYM, their daggers,
# the U(1) current i and the momentum entries p_(EF) over _PAIRS4.
_J, _JD, _I, _P = slice(0, 3), slice(3, 6), 6, slice(7, 11)
_N_CHARGES = 11
# Gram columns: c^0, c^1, conj c^0, conj c^1, dt_0, dt_1, conj dt_0, conj dt_1
# (dt the total d* rows); column k's conjugate is column _CONJ[k].
_CONJ = [2, 3, 0, 1, 6, 7, 4, 5]


def _pairing_table() -> np.ndarray:
    """(32, charges**2) map from a node's (4, 8) Gram to its brackets of every charge pair.

    A charge's derivative by the i-th coordinate (c^0, c^1, conj c^0, conj c^1)
    is ``dq[f, i] @`` the momentum rows (dproj_0, dproj_1, conj dproj_0,
    conj dproj_1); its derivative by the i-th momentum (d*_0, d*_1, conj d*_0,
    conj d*_1) is ``dp[f, i] @`` the Gram columns' rows.  The bracket pairs
    the two: {F, H} = sum_i bullet(dF/dq_i, dH/dp_i) - (F <-> H).
    """
    dq = np.zeros((_N_CHARGES, 4, 4), dtype=complex)
    dp = np.zeros((_N_CHARGES, 4, 8), dtype=complex)
    for f, (A, B) in enumerate(_SYM):
        # j_(AB) = bullet(c_A, d*_B) + bullet(c_B, d*_A), c_A = c^a eps_{aA}
        for a in range(2):
            dq[f, a, B] += EPS_LO[a, A]
            dq[f, a, A] += EPS_LO[a, B]
            dp[f, B, a] += EPS_LO[a, A]
            dp[f, A, a] += EPS_LO[a, B]
    dq[_JD, 2:, 2:] = dq[_J, :2, :2].conj()      # the daggers differentiate the conjugates
    dp[_JD, 2:, 2:4] = dp[_J, :2, :2].conj()
    for a in range(2):                            # i = i (bullet(c^a, d*_a) - conj)
        dq[_I, a, a] = dp[_I, a, a] = 1j
        dq[_I, 2 + a, 2 + a] = dp[_I, 2 + a, 2 + a] = -1j
    for r, (E, F) in enumerate(_PAIRS4):          # p_EF = bullet(dt_E, conj dt_F)
        dp[7 + r, E, 6 + F] = 1.0
        dp[7 + r, 2 + F, 4 + E] = 1.0
    pair = np.einsum("fil,gir->fglr", dq, dp)
    table = (pair - pair.transpose(1, 0, 2, 3)).reshape(_N_CHARGES ** 2, 32).T.copy()
    table.setflags(write=False)
    return table


_PAIRING = _pairing_table()


@dataclass(eq=False)
class CurrentSample:
    """Curve samples of c, the projected polymomenta, and the scalar currents.

    ``dproj[m] = sigma' d*^tau - tau' d*^sigma`` is the worldsheet-scalar
    momentum density (the epsilon projection along the curve); ``j`` are the
    symmetric SL(2, C) current scalars and ``icur`` the U(1) current.
    ``weights`` are composite Simpson weights for the total charges.
    ``brackets`` is the sample's (nodes, 11, 11) table of node brackets of
    every pair of charges (j_(AB), their daggers, i, p_(EF)), before the
    lattice measure: built on first use from one per-node Gram and kept.
    """

    us: np.ndarray
    du: float
    weights: np.ndarray
    c: np.ndarray          # (n, 2, G)
    dproj: np.ndarray      # (n, 2, G)
    signs: np.ndarray
    j: np.ndarray          # (n, 2, 2) complex, symmetric per point
    icur: np.ndarray       # (n,) complex
    brackets: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.us)

    def j_total(self) -> np.ndarray:
        return np.einsum("m,mab->ab", self.weights, self.j)

    def i_total(self) -> complex:
        return complex(self.weights @ self.icur)

    @functools.cached_property
    def dstar_total(self) -> np.ndarray:
        """The (2, G) total d*, once per sample: summed elementwise as in
        :func:`_charge_brackets`, not by a BLAS product on OpenBLAS's threads."""
        total = (self.weights[:, None, None] * self.dproj).sum(axis=0)
        total.setflags(write=False)
        return total

    def p_total(self) -> np.ndarray:
        """p_{AB} = bullet(d*tot_A, conj(d*tot_B))."""
        dt = self.dstar_total
        return bullet_gram(dt, dt.conj(), self.signs)


def _make_sample(us, du, c, dproj, signs) -> CurrentSample:
    j, tr = pair_charges(c, dproj, signs)
    icur = 1j * (tr - np.conj(tr))
    return CurrentSample(us, du, simpson_weights(len(us), du), c, dproj, signs, j, icur)


def sample_currents(state: StringState, curve: Curve, n_points: int = 128
                    ) -> CurrentSample:
    """Evaluate the currents at n_points + 1 nodes along a spacelike curve."""
    us = np.linspace(0.0, 1.0, n_points + 1)
    _, c, dproj = curve_fields(state, curve, us)
    return _make_sample(us, float(us[1] - us[0]), c, dproj, state.space.signs)


# -- the bracket engine ------------------------------------------------------------

def _node_gram(sample: CurrentSample) -> np.ndarray:
    """(n, 4, 8): bullet of each momentum row with each Gram column's row, per node.

    Rows dproj_A and their conjugates, columns as ``_CONJ`` lists them.  With
    x = dproj * signs, the bilinear x @ c^T and the conjugated x @ c^H make the
    first two rows; the conjugate rows follow, since the signs are real.
    """
    x = sample.dproj * sample.signs
    dt = sample.dstar_total
    c_t = np.swapaxes(sample.c, 1, 2)
    bilinear = x @ c_t
    with_dt = _product(x, np.concatenate([dt, dt.conj()]).T)
    np.conjugate(x, out=x)              # x @ c^H = conj(conj(x) @ c^T), in x's buffer
    top = np.concatenate([bilinear, np.conj(x @ c_t), with_dt], axis=2)
    return np.concatenate([top, top[:, :, _CONJ].conj()], axis=1)


def _bracket_table(sample: CurrentSample) -> np.ndarray:
    """The (nodes, charges, charges) node brackets before the lattice measure: one
    contraction of the Gram with the coefficient tables, kept read-only on the sample."""
    if sample.brackets is None:
        n = sample.n_nodes
        table = _product(_node_gram(sample).reshape(n, 32), _PAIRING).reshape(n, _N_CHARGES, -1)
        table.setflags(write=False)
        sample.brackets = table
    return sample.brackets


def _charge_brackets(sample: CurrentSample) -> np.ndarray:
    """{F, H} of the integrated charges: the Simpson weights applied to the table.

    Summed elementwise in node order, which fixes the bits of every charge
    algebra report.  A matrix-vector product sums in another order: on the
    acceptance sample its charges differ by up to 1.1e-14, and charge_algebra's
    closure residual reads 1.8e-16 for 2.8e-17.  It would save about 20 us of
    CPU a call, with OpenBLAS running even this small product on two threads."""
    return (sample.weights[:, None, None] * _bracket_table(sample)).sum(axis=0)


def _per_du(val, du: float) -> np.ndarray:
    """val / du with each part divided, as Python's complex / float does; numpy's
    complex division multiplies by a rounded reciprocal instead."""
    out = np.empty(np.shape(val), dtype=complex)
    out.real, out.imag = np.real(val) / du, np.imag(val) / du
    return out


def current_bracket(sample: CurrentSample, A: int, B: int, E: int, F: int,
                    k: int, l: int) -> complex:
    """Discretized {j_AB(u_k), j_EF(u_l)}; supported on k = l with weight 1/du."""
    if k != l:
        return 0.0
    return complex(_per_du(_bracket_table(sample)[k, _SYM_INDEX[A, B], _SYM_INDEX[E, F]],
                           sample.du))


def current_bracket_dotted(sample: CurrentSample, A: int, B: int, E: int, F: int,
                           k: int, l: int) -> complex:
    """{j_AB(u_k), conj-current j_EF(u_l)}: vanishes identically."""
    if k != l:
        return 0.0
    return complex(_per_du(_bracket_table(sample)[k, _SYM_INDEX[A, B], 3 + _SYM_INDEX[E, F]],
                           sample.du))


def g1_pattern(sample: CurrentSample, A: int, B: int, E: int, F: int,
               k: int, l: int) -> complex:
    """((j_AE eps_FB + A<->B) + E<->F) delta_{kl} / du at node k: the pattern
    constants of the charge algebra applied to the node's currents."""
    if k != l:
        return 0.0
    jvec = sample.j[k][[0, 0, 1], [0, 1, 1]]
    return complex(_per_du(_JJ_PATTERN[_SYM_INDEX[A, B], _SYM_INDEX[E, F]] @ jvec, sample.du))


# -- Lie presentations -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LiePresentation:
    """Basis labels plus structure constants [g_a, g_b] = f[a,b,c] g_c; compared by identity."""

    labels: tuple[str, ...]
    f: np.ndarray

    def antisymmetry_residual(self) -> float:
        return float(np.abs(self.f + np.swapaxes(self.f, 0, 1)).max())

    def jacobi_residual(self) -> float:
        # cyclic sum of [[g_a, g_b], g_c]
        total = np.einsum("abd,dce->abce", self.f, self.f) \
            + np.einsum("bcd,dae->abce", self.f, self.f) \
            + np.einsum("cad,dbe->abce", self.f, self.f)
        return float(np.abs(total).max())

    def bracket(self, va: np.ndarray, vb: np.ndarray) -> np.ndarray:
        """Coefficients of [sum va_a g_a, sum vb_b g_b], broadcast over leading axes."""
        return np.einsum("...a,...b,abc->...c", va, vb, self.f)


def _jj_pattern_constants() -> np.ndarray:
    """Classical structure constants of the symmetric-current algebra.

    Basis order (J_00, J_01, J_11); the coefficient of J_(GH) in
    {J_(AB), J_(EF)} follows from the epsilon pattern.
    """
    f = np.zeros((3, 3, 3), dtype=complex)
    for ia, (A, B) in enumerate(_SYM):
        for ie, (E, F) in enumerate(_SYM):
            # ((j_AE eps_FB + A<->B) + E<->F)
            for (a, e, fb, eb) in ((A, E, F, B), (B, E, F, A), (A, F, E, B), (B, F, E, A)):
                f[ia, ie, _SYM_INDEX[(a, e)]] += EPS_LO[fb, eb]
    f.setflags(write=False)
    return f


_JJ_PATTERN = _jj_pattern_constants()


def _check_hbar(hbar: float) -> None:
    """InputError unless hbar is finite and positive: at 0 every quantum constant vanishes."""
    if not 0.0 < hbar < np.inf:
        raise InputError(f"hbar must be finite and positive, got {hbar!r}")


def charge_algebra(sample: CurrentSample, hbar: float = 1.0,
                   rel_tol: float = DEFAULT.charge_closure) -> tuple[LiePresentation, dict]:
    """Verify the sample's charge brackets; return the quantum charge algebra.

    Read from the sample: the classical brackets of the total charges must
    close on them with the epsilon-pattern constants, and the dotted-undotted
    brackets must vanish, both within ``rel_tol`` relative.  Built once per
    hbar: the presentation over (J_00, J_01, J_11, Jd_00, Jd_01, Jd_11), i hbar
    times those constants, and its Jacobi residual, gated at ``rel_tol``.
    Every sample gets the same presentation, its ``f`` read-only.  Returns it
    and a report of the residuals; raises ``InputError`` unless hbar is
    finite and positive.
    """
    _check_hbar(hbar)
    jt = sample.j_total()
    jvec = np.array([jt[0, 0], jt[0, 1], jt[1, 1]])
    scale = max(1.0, float(np.abs(jvec).max()))
    expect = _JJ_PATTERN @ jvec
    tot = _charge_brackets(sample)
    # worst values taken by np.max, which keeps NaN
    worst_fit = float(np.max([np.abs(tot[_J, _J] - expect).max(),
                              np.abs(tot[_JD, _JD] - expect.conj()).max()])) / scale
    worst_cross = float(np.abs(tot[_J, _JD]).max()) / scale
    if not worst_fit <= rel_tol:
        raise VerificationError(f"charge algebra closure off by {worst_fit:.3e}",
                                closure_rel_residual=worst_fit)
    if not worst_cross <= rel_tol:
        raise VerificationError(f"dotted-undotted brackets nonzero: {worst_cross:.3e}",
                                dagger_cross_residual=worst_cross)
    pres, residuals, _ = _quantum_algebra(hbar)
    if not residuals["jacobi_residual"] <= rel_tol:
        raise VerificationError(
            f"Jacobi residual {residuals['jacobi_residual']:.3e} signals discretization error",
            jacobi_residual=residuals["jacobi_residual"])
    return pres, {"closure_rel_residual": worst_fit, "dagger_cross_residual": worst_cross,
                  **residuals}


def fit_structure_constants(samples: Sequence[CurrentSample]) -> np.ndarray:
    """Least-squares extraction of the classical constants from pointwise brackets.

    Solves {j_(AB)(u), j_(EF)(u)} du = sum_c f_c j_c(u) over all sample
    points.  One curve can be degenerate (the three j components may be
    linearly dependent along it), so several samples, e.g. two time slices,
    are usually needed; raises when the joint system is rank deficient
    (``Tolerances.fit_rank``).  Used to demonstrate that the extracted
    constants are state independent.
    """
    rows = np.concatenate([
        np.stack([s.j[:, 0, 0], s.j[:, 0, 1], s.j[:, 1, 1]], axis=1) for s in samples])
    sv = np.linalg.svd(rows, compute_uv=False)
    if sv[2] < DEFAULT.fit_rank * sv[0]:
        raise PreconditionError(
            "current components are linearly dependent on the sampled curves; "
            "add another slice to pin the structure constants")
    # one column per (ia, ie), row-major
    targets = np.concatenate([_bracket_table(s)[:, _J, _J].reshape(s.n_nodes, 9)
                              for s in samples])
    return np.linalg.lstsq(rows, targets, rcond=None)[0].T.reshape(3, 3, 3)


# N_1 = i/4 (J_11comp - J_00comp), N_2 = -1/4 (J_00comp + J_11comp),
# N_3 = -i/2 J_01 as rows over (J_00, J_01, J_11), components named by
# 0-based spinor indices; _N and _ND place them and their conjugates, the
# dagger triple, in the six-generator charge basis.
_N_BASIS = np.array([[-0.25j, 0.0, 0.25j], [-0.25, 0.0, -0.25], [0.0, -0.5j, 0.0]])
_N = np.concatenate([_N_BASIS, np.zeros((3, 3))], axis=1)
_ND = np.concatenate([np.zeros((3, 3)), _N_BASIS.conj()], axis=1)
_EPS3 = np.zeros((3, 3, 3))
_EPS3[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0
_EPS3[[1, 2, 0], [0, 1, 2], [2, 0, 1]] = -1.0
for _const in (_N_BASIS, _N, _ND, _EPS3):
    _const.setflags(write=False)


def nk_decomposition(pres: LiePresentation, hbar: float = 1.0,
                     tol: float = DEFAULT.algebra_closure
                     ) -> tuple[LiePresentation, LiePresentation, dict]:
    """Split the charge algebra into two commuting su(2) triples.

    Verifies that the N-triple closes as [N_i, N_j] = s eps_{ijk} N_k for a
    single fitted constant s with |s| = hbar (its phase is reported: the
    printed combinations close with s = -i hbar, so -N_k is the basis that
    matches the +i hbar convention), that the two triples commute, and that
    the quadratic Casimir is central (antisymmetry of f in its outer slots).
    Raises ``InputError`` unless hbar is finite and positive.
    """
    _check_hbar(hbar)
    if len(pres.labels) != 6:
        raise InputError("expected the 6-generator charge algebra")
    nn = pres.bracket(_N[:, None], _N[None])            # [N_i, N_j], (3, 3, 6)
    dd = pres.bracket(_ND[:, None], _ND[None])
    nd = pres.bracket(_N[:, None], _ND[None])
    # fit the closure constant from [N_1, N_2] = s N_3; the dagger triple
    # closes with the same s (same pattern constants, conjugated coefficients)
    top = np.argmax(np.abs(_N[2]))
    s = complex(nn[0, 1, top] / _N[2, top])
    worst = float(np.max([np.abs(nn - s * np.tensordot(_EPS3, _N, 1)).max(),
                          np.abs(dd - s * np.tensordot(_EPS3, _ND, 1)).max(),
                          np.abs(nd).max()]))
    if not worst <= tol:
        raise VerificationError(f"su(2) decomposition residual {worst:.3e}",
                                su2_residual=worst)
    if not abs(abs(s) - hbar) <= tol:
        raise VerificationError(f"closure constant |{s}| != hbar", closure_constant=s)
    f_su2 = s * _EPS3.astype(complex)
    suA = LiePresentation(("N1", "N2", "N3"), f_su2)
    suB = LiePresentation(("Nd1", "Nd2", "Nd3"), f_su2.copy())
    # Casimir N.N central <=> f antisymmetric in (first, last) slots
    casimir = float(np.abs(f_su2 + np.swapaxes(f_su2, 0, 2)).max())
    report = {"closure_constant": s, "max_residual": worst, "casimir_residual": casimir}
    if not casimir <= tol:
        raise VerificationError(f"Casimir fails to be central: {casimir:.3e}",
                                casimir_residual=casimir)
    return suA, suB, report


def _poincare_constants() -> tuple[np.ndarray, ...]:
    """The [P, J] value pattern as a map from p_tot, the momentum rows of the
    ten-generator table at hbar = 1, and the change of basis S to
    (M_{12}, M_{13}, M_{23}, M_{10}, M_{20}, M_{30}, P_0..P_3) with its inverse.
    """
    # generators (J(3), Jd(3), P entries(4)); every constant is the quantum
    # i hbar times the classical pattern
    pj = np.zeros((4, 3, 2, 2))
    f = np.zeros((10, 10, 10), dtype=complex)
    index_p = {pair: 6 + r for r, pair in enumerate(_PAIRS4)}
    for (E, F), rp in index_p.items():
        for coli, (A, B) in enumerate(_SYM):
            # {p_EF, j_AB} = -(eps_EA p_BF + eps_EB p_AF)
            for (a, b) in ((A, B), (B, A)):
                pj[rp - 6, coli, b, F] -= EPS_LO[E, a]
                f[rp, coli, index_p[(b, F)]] += -1j * EPS_LO[E, a]
            # dotted partner: {p_EF, jd_AB} = -(eps_FA p_EB + eps_FB p_EA)
            for (a, b) in ((A, B), (B, A)):
                f[rp, 3 + coli, index_p[(E, b)]] += -1j * EPS_LO[F, a]
    f[:6, 6:] = -np.swapaxes(f[6:, :6], 0, 1)
    # The printed N-combinations close with s = -i hbar, so the left/right
    # su(2) triples entering the boost/rotation split are -N and -Ndagger;
    # the remaining orientation freedom (a pi-rotation about the third axis)
    # is fixed once by the oracle match in _quantum_algebra.
    R3 = np.diag([-1.0, -1.0, 1.0])
    N, Nd = (np.concatenate([R3 @ -v, np.zeros((3, 4))], axis=1) for v in (_N, _ND))
    Jrot = N + Nd
    K = 1j * (Nd - N)
    S = np.zeros((10, 10), dtype=complex)
    S[:6] = Jrot[2], -Jrot[1], Jrot[0], K[0], K[1], K[2]    # M_12, M_13 = eps_132 J_2, ...
    for mu in range(4):
        for r, (A, B) in enumerate(_PAIRS4):
            S[6 + mu, 6 + r] = DP_DOWN[mu, A, B]
    consts = pj, f, S, np.linalg.inv(S)
    for c in consts:
        c.setflags(write=False)
    return consts


_PJ_PATTERN, _P_TABLE, _S, _S_INV = _poincare_constants()


def poincare_check(sample: CurrentSample, hbar: float = 1.0,
                   tol: float = DEFAULT.algebra_closure,
                   pattern_tol: float = DEFAULT.momentum_charge) -> dict:
    """Verify the full Poincare algebra of (M_munu, P_mu) against a matrix oracle.

    Read from the sample: the integrated momentum-charge brackets must match
    the mixed [P, J] pattern within ``pattern_tol`` relative, and [P, P] must
    vanish exactly.  Built once per hbar: the ten-generator table (the charge
    algebra on (J, Jdagger), [P, P] = 0 and the mixed pattern), mapped
    (J, Jdagger) -> N -> (M_munu) and the momentum entries -> P_mu, minus an
    independent 5x5 affine matrix representation; its largest entry must be
    within ``tol``.  The J closure is :func:`charge_algebra`'s check.  Raises
    ``InputError`` unless hbar is finite and positive.
    """
    _check_hbar(hbar)
    p_tot = sample.p_total()
    scale = max(1.0, float(np.abs(p_tot).max()))
    # verify the mixed pattern and [P, P] = 0 through the bracket engine
    tot = _charge_brackets(sample)
    worst_pj = float(np.abs(tot[_P, _J] - np.tensordot(_PJ_PATTERN, p_tot, 2)).max()) / scale
    worst_pp = float(np.abs(tot[_P, _P]).max())
    if not worst_pj <= pattern_tol:
        raise VerificationError(f"momentum-charge bracket pattern off by {worst_pj:.3e}",
                                pj_pattern_residual=worst_pj)
    if worst_pp != 0.0:
        raise VerificationError("[P, P] failed to vanish exactly", pp_residual=worst_pp)

    mismatch = np.abs(_quantum_algebra(hbar)[2])
    oracle_labels = poincare_matrix_oracle(hbar)[1]
    diff = float(mismatch.max())
    report = {"pj_pattern_residual": worst_pj, "pp_residual": worst_pp,
              "oracle_labels": oracle_labels, "max_structure_mismatch": diff}
    if not diff <= tol:
        worst_idx = np.unravel_index(np.argmax(mismatch), mismatch.shape)
        report["offending_triple"] = tuple(oracle_labels[i] for i in worst_idx)
        raise VerificationError(
            f"Poincare structure constants mismatch {diff:.3e} at {report['offending_triple']}",
            poincare_mismatch=diff, offending_triple=report["offending_triple"])
    return report


@functools.lru_cache(maxsize=None)
def poincare_matrix_oracle(hbar: float = 1.0) -> tuple[np.ndarray, tuple[str, ...]]:
    """Structure constants of the Poincare algebra from a 5x5 affine representation.

    Generators: M_{mu nu} acting on vectors as i hbar (eta_{nu b} delta^a_mu -
    eta_{mu b} delta^a_nu), translations P_mu as i hbar in the affine column;
    constants extracted by least squares in the matrix space (exact here
    because the set is closed and independent, to ``Tolerances.oracle_closure``).
    Built once per hbar, which must be finite and positive (else ``InputError``);
    the returned array is read-only.
    """
    _check_hbar(hbar)
    gens = []
    labels = []
    eye = np.eye(4)
    for (mu, nu) in ((1, 2), (1, 3), (2, 3), (1, 0), (2, 0), (3, 0)):
        g = np.zeros((5, 5), dtype=complex)
        g[:4, :4] = 1j * hbar * (np.outer(eye[mu], ETA[nu]) - np.outer(eye[nu], ETA[mu]))
        gens.append(g)
        labels.append(f"M{mu}{nu}")
    for mu in range(4):
        g = np.zeros((5, 5), dtype=complex)
        g[:4, 4] = 1j * hbar * ETA[mu]      # P_mu, covariant components
        gens.append(g)
        labels.append(f"P{mu}")
    basis = np.stack([g.reshape(-1) for g in gens])           # (10, 25)
    F = np.zeros((10, 10, 10), dtype=complex)
    pinv = np.linalg.pinv(basis)
    for a in range(10):
        for b in range(10):
            comm = gens[a] @ gens[b] - gens[b] @ gens[a]
            coef = comm.reshape(-1) @ pinv
            resid = np.abs(coef @ basis - comm.reshape(-1)).max()
            if resid > DEFAULT.oracle_closure:
                raise VerificationError("oracle generators failed to close")
            F[a, b] = coef
    F.setflags(write=False)
    return F, tuple(labels)


@functools.lru_cache(maxsize=None)
def _quantum_algebra(hbar: float) -> tuple[LiePresentation, dict, np.ndarray]:
    """The six-generator charge presentation at hbar, its Jacobi and antisymmetry
    residuals, and the ten-generator table in the (M_munu, P_mu) basis minus the
    oracle's; the arrays are read-only.  The dagger charges close with the same
    real pattern: their values conjugate, the coefficients do not."""
    f = np.zeros((6, 6, 6), dtype=complex)
    f[:3, :3, :3] = f[3:, 3:, 3:] = 1j * hbar * _JJ_PATTERN
    f.setflags(write=False)
    pres = LiePresentation(("J00", "J01", "J11", "Jd00", "Jd01", "Jd11"), f)
    residuals = {"jacobi_residual": pres.jacobi_residual(),
                 "antisymmetry_residual": pres.antisymmetry_residual()}
    table = hbar * _P_TABLE
    table[:6, :6, :6] = f
    mismatch = _S @ np.tensordot(_S, table @ _S_INV, (1, 0)) - poincare_matrix_oracle(hbar)[0]
    mismatch.setflags(write=False)
    return pres, residuals, mismatch


def unitary_current_check(sample: CurrentSample,
                          tol: float = DEFAULT.unitary_brackets) -> dict:
    """Equal-time brackets of the U(1) current with itself and with j_AB, at every node.

    Both vanish identically; the report carries the observed maxima and the
    integrated charge (zero for states whose mixed Gram trace is real).
    """
    node = _per_du(_bracket_table(sample)[:, _I, :_I + 1], sample.du)
    worst_ii = float(np.abs(node[:, _I]).max())
    worst_ij = float(np.abs(node[:, _J]).max())
    report = {
        "ii_residual": worst_ii,
        "ij_residual": worst_ij,
        "i_total": sample.i_total(),
    }
    if not (worst_ii <= tol and worst_ij <= tol):
        raise VerificationError(
            f"unitary current brackets nonzero: {worst_ii:.3e}, {worst_ij:.3e}",
            ii_residual=worst_ii, ij_residual=worst_ij)
    return report
