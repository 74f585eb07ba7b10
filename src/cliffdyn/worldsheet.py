"""Flat-worldsheet classical string built from a mode-coefficient Gram matrix.

A state is a truncated travelling-wave field

    c^A(tau, sigma) = k^A + l^A tau
                    + sum_n a_n^A exp(i n (tau+sigma)/2)
                    + sum_n b_n^A exp(i n (tau-sigma)/2),      n != 0,

whose coefficients are grade-1 Clifford vectors realized (by
:func:`cliffdyn.clifford.resolve_hermitian`) from a prescribed Gram matrix.
All inner products between different coefficient labels vanish except the
self products and the cross pairs (a_n, a_{-n}) and (b_n, b_{-n}); this
sparsity is what collapses bullet(c, conj(c)) to a closed form with spatial
period 2 pi.

The induced momentum comes from the l-coefficient alone,

    p2 p^{AB} = eta^{ab} d_a c^A . d_b conj(c)^B = l^A . conj(l)^B,

with p2 = (L.L)^{1/3} (real cube root); states are built on shell,
p2 = m^2 > 0.  Polymomenta, energy-momentum tensor, dilaton and total
charges all come from that one matrix plus worldsheet derivatives of c.

Worldsheet conventions: indices (0, 1) = (tau, sigma), metric diag(1, -1),
epsilon_{01} = +1; these are pinned by the pi^2 p total-momentum identity
of the non-vibrating string.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .clifford import GeneratorSpace, allocate, bullet_gram, resolve_hermitian, validate_hermitian
from .config import fields, integers, mapping, number, positive_mass, real_array
from .errors import InputError, PreconditionError, VerificationError
from .spinors import flip_both, minkowski_norm
from .tolerances import DEFAULT

__all__ = [
    "ModeSpec",
    "make_mode_spec",
    "StringState",
    "build_wave_state",
    "eval_c_packed",
    "eval_x",
    "wave_residual",
    "dstar_upper",
    "residual_f51",
    "residual_f52",
    "energy_momentum",
    "dilaton",
    "dilaton_residual",
    "Curve",
    "constant_time_curve",
    "arc_curve",
    "simpson_weights",
    "curve_fields",
    "total_momentum",
    "spinning_mode_spec",
    "spinning_string",
    "estimate_order",
    "residual_suite",
    "mode_spec_to_json",
    "mode_spec_from_json",
]

ETA_WS = np.diag([1.0, -1.0])


def _mode_labels(modes: Sequence[int]) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """Modes in canonical order (|n| ascending, +n first) and the Gram's labels."""
    modes = tuple(sorted(set(int(n) for n in modes), key=lambda n: (abs(n), -n)))
    return modes, ("k", "l", *(f"a{n}" for n in modes), *(f"b{n}" for n in modes))


class ModeSpec:
    """Mode set, mass, and the Hermitian Gram over the coefficient labels.

    Labels are "k", "l", "a<n>", "b<n>" for n in ``modes``; each label
    carries two spinor components, so the Gram has one 2x2 block per label
    pair.  Only the allowed blocks may be nonzero.
    """

    def __init__(self, mass: float, modes: Sequence[int], gram: np.ndarray,
                 on_shell: bool = True):
        self.modes, self.labels = _mode_labels(modes)
        if 0 in self.modes:
            raise InputError("mode numbers must be nonzero")
        if any(abs(n) >= 2 ** 63 for n in self.modes):      # beyond int64, as _phases reads them
            raise InputError(f"modes must lie strictly between -2^63 and 2^63, got {self.modes}")
        dim = 2 * len(self.labels)
        gram = np.asarray(gram, dtype=complex)
        if gram.shape != (dim, dim):
            raise InputError(f"gram must be {dim}x{dim} for labels {self.labels}")
        if not (math.isfinite(mass) and np.all(np.isfinite(gram))):
            raise InputError("mass and gram entries must be finite")
        self.mass = positive_mass(mass)
        self.gram = validate_hermitian(gram)
        self.on_shell = bool(on_shell)
        self._check_sparsity()
        if self.on_shell:
            p2 = self.p_squared()
            if p2 <= 0:
                raise InputError(f"induced p.p = {p2:.3e} must be positive")
            if abs(p2 - self.mass ** 2) > 1e-9 * self.mass ** 2:
                raise InputError(
                    f"l block is off shell: (L.L)^(1/3) = {p2:.12g} vs m^2 = {self.mass ** 2:.12g}")

    def block(self, lab_i: str, lab_j: str) -> np.ndarray:
        i = 2 * self.labels.index(lab_i)
        j = 2 * self.labels.index(lab_j)
        return self.gram[i:i + 2, j:j + 2]

    def _allowed_pairs(self) -> set[tuple[str, str]]:
        allowed = {(lab, lab) for lab in self.labels}
        for n in self.modes:
            if -n in self.modes:
                allowed.add((f"a{n}", f"a{-n}"))
                allowed.add((f"b{n}", f"b{-n}"))
        return allowed

    def _check_sparsity(self):
        n = len(self.labels)
        forbidden = np.abs(self.gram).reshape(n, 2, n, 2).max(axis=(1, 3)) > 0.0
        for li, lj in self._allowed_pairs():
            forbidden[self.labels.index(li), self.labels.index(lj)] = False
        if forbidden.any():
            i, j = np.argwhere(forbidden)[0]         # the first in row-major label order
            raise InputError(f"gram block ({self.labels[i]}, {self.labels[j]}) must vanish")

    def l_block(self) -> np.ndarray:
        return self.block("l", "l")

    def p_squared(self) -> float:
        return _induced_pp(self.l_block())


def _induced_pp(l_block) -> float:
    """p.p = (L.L)^{1/3} of an l block, with the real cube root; InputError if
    L.L = det(l block) overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = minkowski_norm(l_block)
    if not np.isfinite(norm):
        raise InputError("l block is out of range: its norm L.L = det(l block) overflows")
    return float(np.cbrt(np.real(norm)))


def make_mode_spec(mass: float | None = None, modes: Sequence[int] = (),
                   k_block=None, l_block=None,
                   a_self=None, a_cross=None, b_self=None, b_cross=None,
                   on_shell: bool = True) -> ModeSpec:
    """Assemble a ModeSpec from per-label 2x2 blocks.

    ``a_self[n]`` is the Hermitian block bullet(a_n, conj(a_n)); ``a_cross[n]``
    (for n > 0) the block bullet(a_n, conj(a_{-n})), mirrored Hermitianly.
    With ``l_block`` omitted, l.conj(l) = m^3 I puts the string at rest on
    shell; with ``mass`` omitted it is inferred from the l block.
    """
    modes, labels = _mode_labels(modes)
    if l_block is None:
        if mass is None:
            raise InputError("need mass or an explicit l block")
        try:
            cube = positive_mass(mass) ** 3
        except OverflowError:
            cube = math.inf
        if not sys.float_info.min <= cube <= sys.float_info.max:
            raise InputError(f"mass = {mass!r} is out of range for the default l block: "
                             f"its cube m^3 {'overflows' if cube > 1 else 'underflows'}")
        l_block = cube * np.eye(2)
    l_block = np.asarray(l_block, dtype=complex)
    if mass is None:
        pp = _induced_pp(l_block)
        if not pp >= 0.0:
            raise InputError(f"the l block induces p.p = {pp:.6g}, which has no real square "
                             "root for the mass; pass mass")
        mass = math.sqrt(pp)
    dim = 2 * len(labels)
    G = np.zeros((dim, dim), dtype=complex)

    def put(lab_i, lab_j, M):
        i = 2 * labels.index(lab_i)
        j = 2 * labels.index(lab_j)
        G[i:i + 2, j:j + 2] = np.asarray(M, dtype=complex)

    put("l", "l", l_block)
    if k_block is not None:
        put("k", "k", k_block)
    for store, prefix in ((a_self, "a"), (b_self, "b")):
        for n, M in (store or {}).items():
            put(f"{prefix}{n}", f"{prefix}{n}", M)
    for store, prefix in ((a_cross, "a"), (b_cross, "b")):
        for n, M in (store or {}).items():
            if n <= 0 or -n not in modes:
                raise InputError(f"cross block key {n} needs both +n and -n in modes")
            M = np.asarray(M, dtype=complex)
            put(f"{prefix}{n}", f"{prefix}{-n}", M)
            put(f"{prefix}{-n}", f"{prefix}{n}", M.conj().T)
    return ModeSpec(mass, modes, G, on_shell=on_shell)


class StringState:
    """Mode coefficients as one coefficient stack, with per-state row matrices and tables.

    ``coeffs`` is the (2 * len(spec.labels), G) stack in the Gram's label
    order, rows ``2 i + A`` for label i and spinor component A.  ``c_rows``
    is the same stack as (labels, 2, G), so a field linear in the
    coefficients is a (points, labels) phase matrix times ``c_rows``.
    ``dstar_rows`` = p2^{-2} L_down conj(c_rows), per label, gives the
    polymomenta the same way.  ``dstar_gram`` is the label Gram of those
    rows, bullet(d*row_{i,A}, conj(d*row_{j,B})) at [2 i + A, 2 j + B], so a
    product of two polymomenta at a point is the point's phases times this
    table times their conjugates: O(labels^2) work per point, not O(G).
    Both are None unless p.p > 0.  ``l_contractions`` are the dilaton's
    mode coefficients.
    """

    def __init__(self, spec: ModeSpec, space: GeneratorSpace, coeffs: np.ndarray):
        self.spec = spec
        self.space = space
        self.coeffs = coeffs
        self.p2 = spec.p_squared()
        self.L_up = spec.l_block()
        self.L_down = flip_both(self.L_up)
        self.p_up = self.L_up / self.p2 if self.p2 > 1e-12 else None
        self.c_rows = per_label = coeffs.reshape(len(spec.labels), 2, space.size)
        self.dstar_rows = self.dstar_gram = None
        if self.p_up is not None:
            self.dstar_rows = self.p2 ** -2 * (self.L_down @ per_label.conj())
            dstar = self.dstar_rows.reshape(coeffs.shape)
            self.dstar_gram = bullet_gram(dstar, dstar.conj(), space.signs)
        # l_A . conj(l)_B against every allowed Gram block: the dilaton's mode coefficients
        self.l_contractions = {pair: complex(np.sum(self.L_down * spec.block(*pair)))
                               for pair in spec._allowed_pairs()}

    @functools.cached_property
    def exact_sides(self) -> tuple[np.ndarray, np.ndarray]:
        """The step-free sides of the f51 and f90 residuals on their lattice, made on first use.

        f51's p^{AE} d_{alpha E}, shape (16, 2, 2, G), and f90's
        -m^2 eta_ab + (eta_cd d*^c.d^d) d*_(a.d_b), shape (16, 2, 2), which on
        shell is -T_ab = -eta T eta of :func:`energy_momentum`.
        """
        ds = dstar_upper(self, _GRID_TAU, _GRID_SIGMA)
        f51 = self.p_up @ (ETA_WS.diagonal()[:, None, None] * ds.conj())
        return f51, -(ETA_WS @ energy_momentum(self, _GRID_TAU, _GRID_SIGMA) @ ETA_WS)


def build_wave_state(spec: ModeSpec) -> StringState:
    """Realize the coefficient Gram on a fresh generator space.

    Raises VerificationError when the resolution misses the Gram by more
    than the feasibility gate (``mode_gram_residual``) or its same-kind
    products exceed ``gram_null``.
    """
    dim = 2 * len(spec.labels)
    space = allocate(2 * dim, 2 * dim, label="modes")
    res = resolve_hermitian(spec.gram, space)
    resid = res.gram_residual()
    if not resid <= DEFAULT.mode_gram_residual:
        raise VerificationError(f"mode Gram infeasible: residual {resid:.3e}")
    if not res.null_residual() <= DEFAULT.gram_null:
        raise VerificationError("same-kind products failed to vanish")
    return StringState(spec, space, res.coeffs)


# -- field evaluation on arrays of points ----------------------------------------
#
# Each field function takes tau and sigma as scalars or arrays that broadcast
# to one point shape S, and puts S in front of the field's own axes: (*S, 2, G)
# for coefficient stacks, (*S, 2, 2) for x and T, S for the dilaton.  Scalar
# tau and sigma give the single-point shape and type.  c, its derivatives and
# the polymomenta are linear in the mode coefficients: each is the points'
# phase matrix from _phases times the state's c_rows or dstar_rows, one
# (points, labels) @ (labels, 2 G) product per call (see _product), which
# agrees with the per-mode sum to rounding.  T is bilinear in the
# polymomenta: it is the points' phases times the state's dstar_gram,
# contracted with p, times their conjugates, so no G-long row is formed at a
# point.  x and the dilaton keep their closed-form mode loops.

def _points(tau, sigma) -> tuple[np.ndarray, ...]:
    """tau and sigma as float arrays broadcast to one point shape."""
    return np.broadcast_arrays(np.asarray(tau, dtype=float), np.asarray(sigma, dtype=float))


def _square(x):
    """x ** 2 by libm pow, as Python's float ** 2 computes it.

    An array's ** 2 multiplies instead, which rounds differently in the last
    bit for about one value in a thousand.
    """
    return np.float_power(x, 2)


def _phases(state: StringState, tau, sigma) -> np.ndarray:
    """Factor of each label in c, d_tau c and d_sigma c: shape (*S, 3, labels).

    k -> (1, 0, 0), l -> (tau, 1, 0), a_n -> (e, i n/2 e, i n/2 e) and
    b_n -> (f, i n/2 f, -i n/2 f), with e = exp(i n (tau+sigma)/2) and
    f = exp(i n (tau-sigma)/2).
    """
    tau, sigma = _points(tau, sigma)
    ik = 0.5j * np.array(state.spec.modes)
    e = np.exp(ik * (tau + sigma)[..., None])
    f = np.exp(ik * (tau - sigma)[..., None])
    left, right = slice(2, 2 + len(ik)), slice(2 + len(ik), None)
    out = np.zeros(tau.shape + (3, len(state.spec.labels)), dtype=complex)
    out[..., 0, 0] = 1.0
    out[..., 0, 1] = tau
    out[..., 1, 1] = 1.0
    out[..., 0, left] = e
    out[..., 1:, left] = (ik * e)[..., None, :]
    out[..., 0, right] = f
    out[..., 1, right] = ik * f
    out[..., 2, right] = -out[..., 1, right]
    return out


# OpenBLAS hands a matrix product of more than 2**16 multiply-adds to its
# worker threads.  For products this small their wake-up and spin-down cost
# far more than the arithmetic: on a 2-vCPU host, string-suite took 87 ms
# with one product over all points, 10 ms with OpenBLAS held to one thread
# and 6 ms with blocks below the limit.  So _product takes the points in
# blocks of at most this many multiply-adds each.
_SERIAL_PRODUCT = 2 ** 16


def _product(phases: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(*S, labels) phases times a (labels, *F) table of rows: (*S, *F).

    The points are flattened first (a stacked matmul would make one small
    product per point), then multiplied a block of points at a time.
    """
    flat = phases.reshape(-1, phases.shape[-1])
    table = rows.reshape(len(rows), -1)
    out = np.empty((len(flat), table.shape[1]), dtype=complex)
    block = max(1, _SERIAL_PRODUCT // table.size)
    for lo in range(0, len(flat), block):
        np.matmul(flat[lo:lo + block], table, out=out[lo:lo + block])
    return out.reshape(*phases.shape[:-1], *rows.shape[1:])


def _dstar_rows(state: StringState) -> np.ndarray:
    if state.dstar_rows is None:
        raise PreconditionError(f"p.p = {state.p2:.3e}: polymomenta need p.p > 0")
    return state.dstar_rows


def _dstar_phases(state: StringState, tau, sigma) -> np.ndarray:
    """Factor of each label in d*^tau and d*^sigma: eta_aa conj(d_a c phases), (*S, 2, labels)."""
    return ETA_WS.diagonal()[:, None] * _phases(state, tau, sigma)[..., 1:, :].conj()


def eval_c_packed(state: StringState, tau, sigma) -> np.ndarray:
    """c^A(tau, sigma) as a packed (*S, 2, G) coefficient stack."""
    return _product(_phases(state, tau, sigma)[..., 0, :], state.c_rows)


def eval_x(state: StringState, tau, sigma) -> np.ndarray:
    """Closed-form x^{AB}(tau, sigma), shape (*S, 2, 2), read directly off the Gram blocks."""
    spec = state.spec
    tau, sigma = (x[..., None, None] for x in _points(tau, sigma))
    x = spec.block("k", "k") + spec.block("l", "l") * _square(tau)
    for n in spec.modes:
        x = x + spec.block(f"a{n}", f"a{n}") + spec.block(f"b{n}", f"b{n}")
        if -n in spec.modes:
            x = x + spec.block(f"a{n}", f"a{-n}") * np.exp(1j * n * (tau + sigma))
            x = x + spec.block(f"b{n}", f"b{-n}") * np.exp(1j * n * (tau - sigma))
    return x


def dstar_upper(state: StringState, tau, sigma) -> np.ndarray:
    """Polymomenta d*^alpha_A as a packed (*S, 2, 2, G) stack: alpha = tau, sigma, then A.

    d*^alpha_A = p2^{-2} L_down[A, B] eta^{alpha beta} d_beta conj(c^B).
    """
    rows = _dstar_rows(state)
    return _product(_dstar_phases(state, tau, sigma), rows)


def energy_momentum(state: StringState, tau, sigma) -> np.ndarray:
    """T^{ab} = (3 p.p - m^2)/2 eta^{ab} - p^{AB} d*^{(a}_A . conj(d*^{b)}_B), shape (*S, 2, 2).

    With psi the points' (*S, 2, labels) polymomentum phases and
    M = p^{AB} K[., A, ., B] the label Gram contracted with p, the bullet
    term is the symmetric part of psi M psi^dagger.  Symmetric and real; its
    eta-trace vanishes on shell.  Raises VerificationError if T is non-real
    (or NaN) at any point.
    """
    _dstar_rows(state)
    n = len(state.spec.labels)
    M = np.einsum("AB,iAjB->ij", state.p_up, state.dstar_gram.reshape(n, 2, n, 2))
    psi = _dstar_phases(state, tau, sigma)
    E = np.einsum("...ai,...bi->...ab", _product(psi, M), psi.conj())
    T = 0.5 * (3 * state.p2 - state.spec.mass ** 2) * ETA_WS - 0.5 * (E + np.swapaxes(E, -2, -1))
    scale = np.maximum(1.0, np.abs(T).max(axis=(-2, -1)))
    if not np.all(np.abs(T.imag).max(axis=(-2, -1)) <= 1e-10 * scale):
        raise VerificationError("energy-momentum tensor came out non-real")
    return T.real


def dilaton(state: StringState, tau, sigma,
            k_const: float = 0.0, k_lin: tuple[float, float] = (0.0, 0.0)):
    """Closed-form dilaton field for the flat-gauge wave solutions, shape S.

    phi = k + k_a sigma^a + m^2 (tau^2 + sigma^2) / 2 plus left/right mover
    parts quadratic in the mode amplitudes; the mover coefficient
    +1/(4 m^4) times the l contraction is the one that actually solves the
    on-shell worldsheet equation d_a d_b phi = -T_ab (equivalently (f90)-form
    with the energy-momentum tensor of :func:`energy_momentum`), verified by
    the finite-difference residual suite.  Integration constants default to
    zero.  A scalar point gives a float; a non-real (or NaN) value at any
    point raises VerificationError.
    """
    spec = state.spec
    lc = state.l_contractions
    m2 = spec.mass ** 2
    tau, sigma = _points(tau, sigma)
    phi = k_const + k_lin[0] * tau + k_lin[1] * sigma + 0.5 * m2 * (_square(tau) + _square(sigma))
    mode_sum = 0.0 + 0.0j
    for n in spec.modes:
        mode_sum = mode_sum + 0.5 * n ** 2 * lc[f"a{n}", f"a{n}"] * _square(tau + sigma)
        mode_sum = mode_sum + 0.5 * n ** 2 * lc[f"b{n}", f"b{n}"] * _square(tau - sigma)
        if -n in spec.modes:
            mode_sum = mode_sum + lc[f"a{n}", f"a{-n}"] * np.exp(1j * n * (tau + sigma))
            mode_sum = mode_sum + lc[f"b{n}", f"b{-n}"] * np.exp(1j * n * (tau - sigma))
    phi = phi + 0.25 / m2 ** 2 * mode_sum
    if not np.all(np.abs(np.imag(phi)) <= 1e-10 * np.maximum(1.0, np.abs(phi))):
        raise VerificationError("dilaton came out non-real")
    phi = np.real(phi)
    return float(phi) if phi.ndim == 0 else phi


# -- finite-difference residuals -------------------------------------------------

# The residual suites' sample lattice: 4 x 4 points (tau outer), sigma inside [0, pi].
_GRID_TAU, _GRID_SIGMA = (g.ravel() for g in np.meshgrid(
    np.linspace(0.15, 1.35, 4), np.linspace(0.3, math.pi - 0.3, 4), indexing="ij"))


def _stencil(*shifts: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """tau and sigma of the residual lattice moved by each (dtau, dsigma): (len(shifts), 16)."""
    d = np.array(shifts, dtype=float)
    return _GRID_TAU + d[:, :1], _GRID_SIGMA + d[:, 1:]


def wave_residual(state: StringState, h: float = DEFAULT.h_grid) -> np.ndarray:
    """max-norm of the 5-point box stencil of x minus 2 l.conj(l), per lattice point.

    The cross stencil uses steps (h, h/2) in (tau, sigma): with equal steps
    the two second-difference errors cancel identically on null movers and
    the residual would be pure roundoff, leaving no convergence order to
    measure.  The anisotropic choice keeps the stencil second order while
    exposing the genuine O(h^2) truncation term.
    """
    ht, hs = h, 0.5 * h
    x0, tp, tm, sp, sm = eval_x(state, *_stencil((0.0, 0.0), (ht, 0.0), (-ht, 0.0),
                                                  (0.0, hs), (0.0, -hs)))
    box = (tp - 2 * x0 + tm) / ht ** 2 - (sp - 2 * x0 + sm) / hs ** 2
    return np.abs(box - 2.0 * state.L_up).max(axis=(-2, -1))


def residual_f51(state: StringState, h: float = DEFAULT.h_grid) -> np.ndarray:
    """|d_alpha c^A - p^{AE} d_{alpha E}| with the gradient by central differences."""
    tp, tm, sp, sm = eval_c_packed(state, *_stencil((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)))
    fd = np.stack([(tp - tm) / (2 * h), (sp - sm) / (2 * h)], axis=-3)
    return np.abs(fd - state.exact_sides[0]).max(axis=(-3, -2, -1))


def residual_f52(state: StringState, h: float = DEFAULT.h_grid) -> np.ndarray:
    """|d_alpha d*^alpha| (conservation of the polymomenta current).

    Central differences with steps (h, h/2); equal steps would cancel the
    truncation error exactly on null movers (see :func:`wave_residual`).
    """
    ht, hs = h, 0.5 * h
    tp, tm, sp, sm = dstar_upper(state, *_stencil((ht, 0.0), (-ht, 0.0), (0.0, hs), (0.0, -hs)))
    div = (tp[:, 0] - tm[:, 0]) / (2 * ht) + (sp[:, 1] - sm[:, 1]) / (2 * hs)
    return np.abs(div).max(axis=(-2, -1))


def dilaton_residual(state: StringState, h: float = DEFAULT.h_grid) -> np.ndarray:
    """FD residual of d_a d_b phi = -m^2 eta_ab + (eta_cd d*^c.d^d) d*_(a.d_b) = -T_ab."""
    c, tp, tm, sp, sm, pp, pm, mp, mm = dilaton(state, *_stencil(
        (0.0, 0.0), (h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h),
        (h, h), (h, -h), (-h, h), (-h, -h)))
    dtt = (tp - 2 * c + tm) / h ** 2
    dss = (sp - 2 * c + sm) / h ** 2
    dts = (pp - pm - mp + mm) / (4 * h ** 2)
    fd = np.stack([np.stack([dtt, dts], axis=-1), np.stack([dts, dss], axis=-1)], axis=-2)
    return np.abs(fd - state.exact_sides[1]).max(axis=(-2, -1))


# -- curves and total charges ------------------------------------------------------

@dataclass
class Curve:
    """Worldsheet path u in [0, 1] -> (tau, sigma) and its derivative.

    ``fn`` and ``dfn`` map an array of u to a pair whose components broadcast
    to u's shape, so a constant component may be a plain float.
    """

    fn: Callable[[np.ndarray], tuple]
    dfn: Callable[[np.ndarray], tuple]

    def __call__(self, u):
        return self.fn(u)

    def velocity(self, u):
        return self.dfn(u)


def constant_time_curve(tau0: float) -> Curve:
    return Curve(lambda u: (tau0, math.pi * u), lambda u: (0.0, math.pi))


def arc_curve(tau0: float, amp: float, k: int = 2) -> Curve:
    """Spacelike wiggle between the same endpoints as the straight curve."""
    if abs(amp) * k >= 1.0:
        raise InputError("amplitude too large: curve would stop being spacelike")
    return Curve(
        lambda u: (tau0 + amp * np.square(np.sin(k * math.pi * u)), math.pi * u),
        lambda u: (amp * k * math.pi * np.sin(2 * k * math.pi * u), math.pi))


def simpson_weights(n_nodes: int, du: float) -> np.ndarray:
    """Composite Simpson weights for n_nodes equally spaced nodes du apart."""
    if n_nodes % 2 == 0 or n_nodes < 3:
        raise InputError("composite Simpson needs an odd node count >= 3")
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * du / 3.0


def _curve_phases(state: StringState, curve: Curve, us: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node points of a spacelike curve, their phases, and the projection's phases.

    Returns the (n, 2) array of (tau, sigma) points at ``us``, their
    (n, 3, labels) phases from _phases, and the (n, labels) phases of
    dsigma^a eps_{ba} d*^b = sigma' d*^tau - tau' d*^sigma (eps_{01} = +1),
    which with eta = diag(1, -1) are sigma' conj(dc/dtau phases) +
    tau' conj(dc/dsigma phases).  The curve and its velocity are each called
    once, on the whole node array, and the phases computed once.  Raises
    PreconditionError unless the curve is spacelike at every node and p.p > 0.
    """
    us = np.asarray(us, dtype=float)
    tau, sigma, vt, vs = (np.broadcast_to(np.asarray(v, dtype=float), us.shape)
                          for v in (*curve(us), *curve.velocity(us)))
    spacelike = vs ** 2 - vt ** 2 > 0
    if not spacelike.all():
        raise PreconditionError(f"curve is not spacelike at u = {us[np.argmin(spacelike)]}")
    _dstar_rows(state)
    phases = _phases(state, tau, sigma)
    conj = phases.conj()
    return (np.stack((tau, sigma), axis=1), phases,
            vs[:, None] * conj[:, 1] + vt[:, None] * conj[:, 2])


def curve_fields(state: StringState, curve: Curve, us: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node points, c and the projected polymomenta along a spacelike curve.

    Returns the (n, 2) array of (tau, sigma) points at ``us``, c there as an
    (n, 2, G) stack, and dsigma^a eps_{ba} d*^b as another: one product of
    the nodes' phases with ``c_rows`` and one with ``dstar_rows``.
    """
    points, phases, projected = _curve_phases(state, curve, us)
    return (points, _product(phases[:, 0], state.c_rows),
            _product(projected, state.dstar_rows))


def total_momentum(state: StringState, curve: Curve) -> tuple[np.ndarray, np.ndarray]:
    """Total Clifford momentum, as a (2, G) stack, and the induced total space-time momentum.

    d*tot_A = integral over the curve of dsigma^a eps_{ba} d*^b_A, by
    composite Simpson on 257 nodes; p_tot[A, B] = bullet(d*tot_A, conj(d*tot_B)).
    The weights are applied to the nodes' projected phases first, so the
    integral is one (labels,) @ (labels, 2 G) product.  The curve must run
    between the sigma = 0 and sigma = pi boundaries and stay spacelike.
    """
    us = np.linspace(0.0, 1.0, 257)
    points, _, projected = _curve_phases(state, curve, us)
    if abs(points[0, 1]) > 1e-9 or abs(points[-1, 1] - math.pi) > 1e-9:
        raise PreconditionError("curve endpoints must sit on sigma = 0 and sigma = pi")
    acc = _product(simpson_weights(len(us), us[1] - us[0]) @ projected, state.dstar_rows)
    p_tot = bullet_gram(acc, acc.conj(), state.space.signs)
    return acc, p_tot


# -- spinning string -----------------------------------------------------------------

def spinning_mode_spec(a_norm: float, k_norm: float) -> ModeSpec:
    """Subset Gram of the spinning string: a.a* = b.b*, k.k* = l.l*.

    Component assignment places the +1 mode in the second spinor slot so the
    generic closed form reproduces (x, y) = 2 a.a* (cos tau, sin tau) cos sigma
    with the package's sigma-matrix conventions.
    """
    zero = np.zeros((2, 2))
    up = np.diag([0.0, a_norm])            # a_{+1} lives in component A = 1
    dn = np.diag([a_norm, 0.0])            # a_{-1} in component A = 0
    cross = np.array([[0.0, 0.0], [a_norm, 0.0]])
    return make_mode_spec(
        modes=(1, -1),
        l_block=k_norm * np.eye(2),
        k_block=zero,
        a_self={1: up, -1: dn}, a_cross={1: cross},
        b_self={1: up, -1: dn}, b_cross={1: cross})


def spinning_string(a_norm: float, k_norm: float, tau: float, sigma: float
                    ) -> tuple[float, float, float, float]:
    """Closed-form trajectory (x, y, z, t) of the spinning string."""
    x = 2 * a_norm * math.cos(tau) * math.cos(sigma)
    y = 2 * a_norm * math.sin(tau) * math.cos(sigma)
    z = 0.0
    t = 2 * a_norm + k_norm * tau ** 2
    return x, y, z, t


def estimate_order(res_h: float, res_h2: float) -> float:
    """Richardson slope log2(res(h) / res(h/2))."""
    if res_h2 <= 0 or res_h <= 0:
        raise InputError("residuals must be positive to estimate an order")
    return math.log2(res_h / res_h2)


def residual_suite(state: StringState, h: float = DEFAULT.h_grid
                   ) -> tuple[dict[str, float], dict[str, float | None]]:
    """Worst residual of each finite-difference suite at step h, and its order.

    Returns ``(residuals, orders)`` keyed "box", "f51", "f52", "f90".  Orders
    come from the steps 2e-3 and 1e-3, where truncation dominates roundoff; a
    suite exactly 0 at both (f52 without modes) has order None.  Each distinct
    step runs once; unless p.p > 0, PreconditionError is raised before any.
    """
    _dstar_rows(state)
    coarse, fine = 2e-3, 1e-3
    residuals = {}
    orders = {}
    for name, fn in (("box", wave_residual), ("f51", residual_f51),
                     ("f52", residual_f52), ("f90", dilaton_residual)):
        worst = {step: float(fn(state, step).max()) for step in {h, coarse, fine}}
        residuals[name] = worst[h]
        orders[name] = (None if worst[coarse] == worst[fine] == 0.0
                        else estimate_order(worst[coarse], worst[fine]))
    return residuals, orders


# -- JSON interface ---------------------------------------------------------------

def mode_spec_to_json(spec: ModeSpec) -> dict:
    """The spec's JSON form: every nonzero Gram entry under its "label.A|label.B" key."""
    rows = [f"{label}.{A}" for label in spec.labels for A in range(2)]
    entries = {f"{rows[i]}|{rows[j]}": [v.real, v.imag]
               for (i, j), v in np.ndenumerate(spec.gram) if v != 0}
    return {"mass": spec.mass, "modes": list(spec.modes), "gram": entries}


def mode_spec_from_json(obj: dict) -> ModeSpec:
    obj = fields(obj, "", ("mass", "modes", "gram"))
    mass = number(obj["mass"], "mass")
    modes = integers(obj["modes"], "modes")
    _, labels = _mode_labels(modes)
    rows = {f"{label}.{A}": 2 * i + A for i, label in enumerate(labels) for A in range(2)}
    G = np.zeros((len(rows), len(rows)), dtype=complex)
    for key, val in mapping(obj["gram"], "gram").items():
        left, _, right = key.partition("|")
        if left not in rows or right not in rows:
            raise InputError(f"gram key {key!r} is not label.A|label.B with A in 0, 1 and "
                             f"a label in {', '.join(labels)}")
        re, im = real_array(val, (2,), f'gram["{key}"]')
        G[rows[left], rows[right]] = complex(re, im)
    omitted = (G == 0) & (G.T != 0)          # Hermitian partners left out of the JSON
    G[omitted] = G.T.conj()[omitted]
    return ModeSpec(mass, modes, G)
