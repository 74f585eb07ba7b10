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

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .clifford import ClVector, GeneratorSpace, allocate, bullet_gram, resolve_hermitian, unpack
from .errors import InputError, PreconditionError, VerificationError
from .spinors import flip_both, minkowski_norm
from .tolerances import DEFAULT

__all__ = [
    "ModeSpec",
    "make_mode_spec",
    "StringState",
    "build_wave_state",
    "eval_c",
    "eval_c_packed",
    "eval_dc",
    "eval_x",
    "eval_x_from_vectors",
    "wave_residual",
    "momentum_and_polymomenta",
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
    "curve_polymomenta",
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
        dim = 2 * len(self.labels)
        gram = np.asarray(gram, dtype=complex)
        if gram.shape != (dim, dim):
            raise InputError(f"gram must be {dim}x{dim} for labels {self.labels}")
        if not (math.isfinite(mass) and np.all(np.isfinite(gram))):
            raise InputError("mass and gram entries must be finite")
        if np.abs(gram - gram.conj().T).max() > 1e-12:
            raise InputError("gram is not Hermitian")
        self.gram = 0.5 * (gram + gram.conj().T)
        self.mass = float(mass)
        self.on_shell = bool(on_shell)
        self._check_sparsity()
        if self.on_shell:
            p2 = self.p_squared()
            if p2 <= 0:
                raise InputError(f"induced p.p = {p2:.3e} must be positive")
            if abs(p2 - self.mass ** 2) > 1e-9 * self.mass ** 2:
                raise InputError(
                    f"l block is off shell: (L.L)^(1/3) = {p2:.12g} vs m^2 = {self.mass ** 2:.12g}")

    def index(self, label: str, A: int) -> int:
        return 2 * self.labels.index(label) + A

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
        allowed = self._allowed_pairs()
        for li in self.labels:
            for lj in self.labels:
                if (li, lj) in allowed:
                    continue
                if np.abs(self.block(li, lj)).max() > 0.0:
                    raise InputError(f"gram block ({li}, {lj}) must vanish")

    def l_block(self) -> np.ndarray:
        return self.block("l", "l")

    def p_squared(self) -> float:
        """(L.L)^{1/3} with the real cube root."""
        return float(np.cbrt(np.real(minkowski_norm(self.l_block()))))


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
        l_block = mass ** 3 * np.eye(2)
    l_block = np.asarray(l_block, dtype=complex)
    if mass is None:
        mass = math.sqrt(float(np.cbrt(np.real(minkowski_norm(l_block)))))
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
    """Mode coefficients as one coefficient stack, with per-state row matrices.

    ``coeffs`` is the (2 * len(spec.labels), G) stack in the Gram's label
    order, rows ``2 i + A`` for label i and spinor component A.  ``c_rows``
    is the same stack as one (labels, 2 G) row per label, so a field linear
    in the coefficients is a (points, labels) phase matrix times ``c_rows``.
    ``dstar_rows`` = p2^{-2} L_down conj(c_rows), per label, gives the
    polymomenta the same way; it is None on the unsupported p.p = 0 branch.
    """

    def __init__(self, spec: ModeSpec, space: GeneratorSpace, coeffs: np.ndarray):
        self.spec = spec
        self.space = space
        self.coeffs = coeffs
        self.p2 = spec.p_squared()
        self.L_up = spec.l_block()
        self.L_down = flip_both(self.L_up)
        self.p_up = self.L_up / self.p2 if abs(self.p2) > 1e-12 else None
        per_label = coeffs.reshape(len(spec.labels), 2, space.size)
        self.c_rows = per_label.reshape(len(spec.labels), -1)
        self.dstar_rows = None if self.p_up is None else \
            (self.p2 ** -2 * (self.L_down @ per_label.conj())).reshape(len(spec.labels), -1)
        # l_A . conj(l)_B against every allowed Gram block: the dilaton's mode coefficients
        self.l_contractions = {pair: _l_contract(self, spec.block(*pair))
                               for pair in spec._allowed_pairs()}

    def bullet_gram_residual(self) -> float:
        realized = bullet_gram(self.coeffs, self.coeffs.conj(), self.space.signs)
        return float(np.abs(realized - self.spec.gram).max())


def build_wave_state(spec: ModeSpec) -> StringState:
    """Realize the coefficient Gram on a fresh generator space.

    Raises VerificationError when the resolution misses the Gram by more
    than the feasibility gate (1e-9).
    """
    dim = 2 * len(spec.labels)
    space = allocate(2 * dim, 2 * dim, label="modes")
    res = resolve_hermitian(spec.gram, space)
    state = StringState(spec, space, res.coeffs)
    resid = state.bullet_gram_residual()
    if not resid <= DEFAULT.mode_gram_residual:
        raise VerificationError(f"mode Gram infeasible: residual {resid:.3e}")
    if not res.null_residual() <= DEFAULT.gram_null:
        raise VerificationError("same-kind products failed to vanish")
    return state


# -- field evaluation on arrays of points ----------------------------------------
#
# Each field function takes tau and sigma as scalars or arrays that broadcast
# to one point shape S, and puts S in front of the field's own axes: (*S, 2, G)
# for coefficient stacks, (*S, 2, 2) for x and T, S for the dilaton.  Scalar
# tau and sigma give the single-point shape and type.  c, its derivatives and
# the polymomenta are linear in the mode coefficients: each is the points'
# phase matrix from _phases times the state's c_rows or dstar_rows, one
# (points, labels) @ (labels, 2 G) product per call (see _product), which
# agrees with the per-mode sum to rounding.  x and the dilaton keep their
# closed-form mode loops.

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
    """(*S, labels) phases times (labels, 2 G) rows: (*S, 2, G).

    The points are flattened first (a stacked matmul would make one small
    product per point), then multiplied a block of points at a time.
    """
    flat = phases.reshape(-1, phases.shape[-1])
    out = np.empty((len(flat), rows.shape[1]), dtype=complex)
    block = max(1, _SERIAL_PRODUCT // rows.size)
    for lo in range(0, len(flat), block):
        np.matmul(flat[lo:lo + block], rows, out=out[lo:lo + block])
    return out.reshape(*phases.shape[:-1], 2, -1)


def _dstar_rows(state: StringState) -> np.ndarray:
    if state.dstar_rows is None:
        raise PreconditionError("p.p = 0 branch is unsupported")
    return state.dstar_rows


def eval_c_packed(state: StringState, tau, sigma) -> np.ndarray:
    """c^A(tau, sigma) as a packed (*S, 2, G) coefficient stack."""
    return _product(_phases(state, tau, sigma)[..., 0, :], state.c_rows)


def _eval_dc_packed(state: StringState, tau, sigma, beta: int) -> np.ndarray:
    """d_beta c^A(tau, sigma) as a packed (*S, 2, G) coefficient stack."""
    if beta not in (0, 1):
        raise InputError(f"worldsheet index must be 0 or 1, got {beta}")
    return _product(_phases(state, tau, sigma)[..., 1 + beta, :], state.c_rows)


def eval_c(state: StringState, tau: float, sigma: float) -> list[ClVector]:
    return list(unpack(state.space, eval_c_packed(state, tau, sigma)))


def eval_dc(state: StringState, tau: float, sigma: float, beta: int) -> list[ClVector]:
    return list(unpack(state.space, _eval_dc_packed(state, tau, sigma, beta)))


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


def eval_x_from_vectors(state: StringState, tau, sigma) -> np.ndarray:
    """Independent route: bullet(c^A, conj(c^B)) from the realized vectors."""
    C = eval_c_packed(state, tau, sigma)
    return bullet_gram(C, C.conj(), state.space.signs)


def dstar_upper(state: StringState, tau, sigma) -> np.ndarray:
    """Polymomenta d*^alpha_A as a packed (*S, 2, 2, G) stack: alpha = tau, sigma, then A.

    d*^alpha_A = p2^{-2} L_down[A, B] eta^{alpha beta} d_beta conj(c^B).
    """
    rows = _dstar_rows(state)
    phases = _phases(state, tau, sigma)[..., 1:, :].conj()
    return _product(ETA_WS.diagonal()[:, None] * phases, rows)


def momentum_and_polymomenta(state: StringState):
    """(p^{AB}, polymomenta) with polymomenta(tau, sigma, beta) -> [ClVector, ClVector].

    The callable returns the dotted, worldsheet-lowered momenta
    d_{beta E} = conj(d*^beta_E) eta_{beta beta}; the constant matrix p is
    l.conj(l) / p2.  Rejects the unsupported null branch p.p = 0.
    """
    if state.p_up is None or state.p2 <= 0:
        raise PreconditionError("p.p = 0 branch is unsupported")

    def polymomenta(tau: float, sigma: float, beta: int) -> list[ClVector]:
        ds = dstar_upper(state, tau, sigma)[beta]
        return list(unpack(state.space, ETA_WS[beta, beta] * ds.conj()))

    return state.p_up.copy(), polymomenta


def energy_momentum(state: StringState, tau, sigma) -> np.ndarray:
    """T^{ab} = (3 p.p - m^2)/2 eta^{ab} - p^{AB} d*^{(a}_A . conj(d*^{b)}_B), shape (*S, 2, 2).

    Symmetric and real; its eta-trace vanishes on shell.  Raises
    VerificationError if T is non-real (or NaN) at any point.
    """
    ds = dstar_upper(state, tau, sigma)
    D = bullet_gram(ds[..., :, None, :, :], ds[..., None, :, :, :].conj(),
                    state.space.signs)                           # (*S, alpha, beta, A, B)
    Dsym = 0.5 * (D + np.swapaxes(D, -4, -3))
    T = 0.5 * (3 * state.p2 - state.spec.mass ** 2) * ETA_WS \
        - np.einsum("AB,...abAB->...ab", state.p_up, Dsym)
    scale = np.maximum(1.0, np.abs(T).max(axis=(-2, -1)))
    if not np.all(np.abs(T.imag).max(axis=(-2, -1)) <= 1e-10 * scale):
        raise VerificationError("energy-momentum tensor came out non-real")
    return T.real


def _l_contract(state: StringState, block: np.ndarray) -> complex:
    """l_A . conj(l)_B contracted with an upper-index 2x2 block."""
    return complex(np.sum(state.L_down * block))


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
    ds = dstar_upper(state, _GRID_TAU, _GRID_SIGMA)
    rhs = state.p_up @ (ETA_WS.diagonal()[:, None, None] * ds.conj())
    return np.abs(fd - rhs).max(axis=(-3, -2, -1))


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
    """FD residual of d_a d_b phi = -m^2 eta_ab + (eta_cd d*^c.d^d) d*_(a.d_b)."""
    c, tp, tm, sp, sm, pp, pm, mp, mm = dilaton(state, *_stencil(
        (0.0, 0.0), (h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h),
        (h, h), (h, -h), (-h, h), (-h, -h)))
    dtt = (tp - 2 * c + tm) / h ** 2
    dss = (sp - 2 * c + sm) / h ** 2
    dts = (pp - pm - mp + mm) / (4 * h ** 2)
    fd = np.stack([np.stack([dtt, dts], axis=-1), np.stack([dts, dss], axis=-1)], axis=-2)
    signs = state.space.signs
    ds = dstar_upper(state, _GRID_TAU, _GRID_SIGMA)
    Pi = sum(bullet_gram(ETA_WS[g, g] * ds[:, g], ds[:, g].conj(), signs) for g in range(2))
    u = np.stack([ETA_WS[a, a] * np.stack([ds[:, a, 1], -ds[:, a, 0]], axis=1)
                  for a in range(2)], axis=1)
    D = bullet_gram(u[:, :, None], u[:, None].conj(), signs)
    Dsym = 0.5 * (D + np.swapaxes(D, 1, 2))
    rhs = -state.spec.mass ** 2 * ETA_WS + np.einsum("nAB,nabAB->nab", Pi, Dsym).real
    return np.abs(fd - rhs).max(axis=(-2, -1))


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


def curve_polymomenta(state: StringState, curve: Curve, us: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Node points and projected polymomenta along a spacelike curve.

    Returns the (n, 2) array of (tau, sigma) points at ``us`` and, as an
    (n, 2, G) array, dsigma^a eps_{ba} d*^b = sigma' d*^tau - tau' d*^sigma
    (eps_{01} = +1).  The curve and its velocity are each called once, on
    the whole node array.  With eta = diag(1, -1) the projection is
    (sigma' conj(dc/dtau phases) + tau' conj(dc/dsigma phases)) times
    ``dstar_rows``: one product.
    """
    us = np.asarray(us, dtype=float)
    tau, sigma, vt, vs = (np.broadcast_to(np.asarray(v, dtype=float), us.shape)
                          for v in (*curve(us), *curve.velocity(us)))
    spacelike = vs ** 2 - vt ** 2 > 0
    if not spacelike.all():
        raise PreconditionError(f"curve is not spacelike at u = {us[np.argmin(spacelike)]}")
    rows = _dstar_rows(state)
    phases = _phases(state, tau, sigma).conj()
    return (np.stack((tau, sigma), axis=1),
            _product(vs[:, None] * phases[:, 1] + vt[:, None] * phases[:, 2], rows))


def total_momentum(state: StringState, curve: Curve) -> tuple[list[ClVector], np.ndarray]:
    """Total Clifford momentum and the induced total space-time momentum.

    d*tot_A = integral over the curve of dsigma^a eps_{ba} d*^b_A, by
    composite Simpson on 257 nodes; p_tot[A, B] = bullet(d*tot_A, conj(d*tot_B)).
    The curve must run between the sigma = 0 and sigma = pi boundaries and
    stay spacelike.
    """
    us = np.linspace(0.0, 1.0, 257)
    points, dproj = curve_polymomenta(state, curve, us)
    if abs(points[0, 1]) > 1e-9 or abs(points[-1, 1] - math.pi) > 1e-9:
        raise PreconditionError("curve endpoints must sit on sigma = 0 and sigma = pi")
    acc = np.einsum("m,mag->ag", simpson_weights(len(us), us[1] - us[0]), dproj)
    p_tot = bullet_gram(acc, acc.conj(), state.space.signs)
    return list(unpack(state.space, acc)), p_tot


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
                   ) -> tuple[dict[str, float], dict[str, float]]:
    """Worst residual of each finite-difference suite at step h, and its order.

    Returns ``(residuals, orders)`` keyed "box", "f51", "f52", "f90".  Orders
    come from the steps 2e-3 and 1e-3, where truncation dominates roundoff;
    each distinct step is evaluated once.
    """
    coarse, fine = 2e-3, 1e-3
    residuals = {}
    orders = {}
    for name, fn in (("box", wave_residual), ("f51", residual_f51),
                     ("f52", residual_f52), ("f90", dilaton_residual)):
        worst = {step: float(fn(state, step).max()) for step in {h, coarse, fine}}
        residuals[name] = worst[h]
        orders[name] = estimate_order(worst[coarse], worst[fine])
    return residuals, orders


# -- JSON interface ---------------------------------------------------------------

def mode_spec_to_json(spec: ModeSpec) -> dict:
    entries = {}
    for i, li in enumerate(spec.labels):
        for A in range(2):
            for j, lj in enumerate(spec.labels):
                for B in range(2):
                    v = spec.gram[2 * i + A, 2 * j + B]
                    if v != 0:
                        entries[f"{li}.{A}|{lj}.{B}"] = [v.real, v.imag]
    return {"mass": spec.mass, "modes": list(spec.modes), "gram": entries}


def _mode_numbers(modes) -> list[int]:
    """JSON mode numbers as ints; a string, a float or a boolean is not one."""
    try:
        if any(isinstance(n, bool) for n in modes):
            raise TypeError
        return [operator.index(n) for n in modes]
    except TypeError:
        raise InputError(f"modes must be a list of integers, got {modes!r}") from None


def mode_spec_from_json(obj: dict) -> ModeSpec:
    try:
        mass = float(obj["mass"])
        modes = _mode_numbers(obj["modes"])
        entries = obj["gram"].items()
    except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise InputError(f"bad mode spec JSON: {exc}") from exc
    _, labels = _mode_labels(modes)
    dim = 2 * len(labels)
    G = np.zeros((dim, dim), dtype=complex)
    for key, val in entries:
        try:
            left, right = key.split("|")
            li, As = left.rsplit(".", 1)
            lj, Bs = right.rsplit(".", 1)
            i = 2 * labels.index(li) + ("0", "1").index(As)
            j = 2 * labels.index(lj) + ("0", "1").index(Bs)
            re, im = val
            G[i, j] = complex(re, im)
        except (ValueError, TypeError) as exc:
            raise InputError(f"bad gram entry {key!r}: {val!r}") from exc
    omitted = (G == 0) & (G.T != 0)          # Hermitian partners left out of the JSON
    G[omitted] = G.T.conj()[omitted]
    return ModeSpec(mass, modes, G)
