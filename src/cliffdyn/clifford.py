"""Complexified real Clifford algebra: grade-1 vectors and Gram resolutions.

Only grade-1 elements ever appear: every computation in scope closes on the
scalar ``bullet`` product (half the anticommutator), so a vector is just a
complex coefficient array over an orthogonal generator basis.  Generators are
normalized to ``bullet(g, g) = +2`` (positive class) or ``-2`` (negative
class).

A vector, a spinor doublet or a resolution is a coefficient stack, a complex
array of shape ``(..., k, G)`` over a space of G generators, read together
with the space's ``signs``; :func:`bullet_gram` takes its bullet Gram
matrices, and :func:`bullet` is the scalar product of two rows.

The complexified basis built by :func:`standard_basis` packages generator
pairs into vectors ``E_i`` and ``F_i`` with

    bullet(E_i, conj(E_j)) = -delta_ij,   bullet(F_i, conj(F_j)) = +delta_ij,

and all same-kind products zero.  That table is exactly what
:func:`resolve_hermitian` needs to realize an arbitrary Hermitian matrix as a
Gram matrix of vectors, one eigendirection at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import fields, integer, real_array
from .errors import InputError, PreconditionError
from .tolerances import DEFAULT

__all__ = [
    "GeneratorSpace",
    "allocate",
    "allocate_blocks",
    "bullet",
    "bullet_gram",
    "standard_basis",
    "hermitian_eig",
    "resolve_hermitian",
    "resolve_pair",
    "pair_space",
    "GramResolution",
    "validate_hermitian",
    "hermitian_to_json",
    "hermitian_from_json",
]


class GeneratorSpace:
    """Immutable signature bookkeeping for a set of orthogonal generators.

    ``signs[k]`` is the self bullet product of generator ``k`` (+2 or -2).
    ``blocks`` maps labels to ``(offset, length)`` windows; blocks never
    overlap, so vectors supported on different blocks have vanishing bullet
    products by construction.  Within a block the positive-class generators
    come first.
    """

    __slots__ = ("signs", "blocks", "_block_pos")

    def __init__(self, signs: np.ndarray, blocks: dict[str, tuple[int, int]],
                 block_pos: dict[str, int]):
        signs = np.asarray(signs, dtype=float)
        if signs.ndim != 1 or signs.size == 0:
            raise InputError("generator space needs at least one generator")
        if not np.all(np.abs(signs) == 2.0):
            raise InputError("generator self products must be +2 or -2")
        signs.setflags(write=False)
        self.signs = signs
        self.blocks = dict(blocks)
        self._block_pos = dict(block_pos)

    @property
    def size(self) -> int:
        return self.signs.size

    @property
    def n_pos(self) -> int:
        return int(np.count_nonzero(self.signs > 0))

    @property
    def n_neg(self) -> int:
        return int(np.count_nonzero(self.signs < 0))

    def _block(self, label: str) -> tuple[int, int]:
        """(offset, length) of one block; PreconditionError for an unknown label."""
        try:
            return self.blocks[label]
        except KeyError:
            raise PreconditionError(f"no block labelled {label!r}") from None

    def block_slice(self, label: str) -> slice:
        offset, length = self._block(label)
        return slice(offset, offset + length)

    def block_signature(self, label: str) -> tuple[int, int]:
        """(n_pos, n_neg) of one block."""
        length = self._block(label)[1]
        pos = self._block_pos[label]
        return pos, length - pos

    def __repr__(self):
        return (f"GeneratorSpace(n_pos={self.n_pos}, n_neg={self.n_neg}, "
                f"blocks={list(self.blocks)})")


def allocate(n_pos: int, n_neg: int, label: str = "main") -> GeneratorSpace:
    """Allocate a fresh space with the given signature as a single block."""
    return allocate_blocks([(label, n_pos, n_neg)])


def allocate_blocks(spec: Sequence[tuple[str, int, int]]) -> GeneratorSpace:
    """Allocate disjoint labelled blocks, each with its own (n_pos, n_neg)."""
    signs: list[float] = []
    blocks: dict[str, tuple[int, int]] = {}
    block_pos: dict[str, int] = {}
    for label, n_pos, n_neg in spec:
        if n_pos < 0 or n_neg < 0 or (n_pos == 0 and n_neg == 0):
            raise InputError(f"block {label!r}: signature ({n_pos},{n_neg}) is empty or negative")
        if label in blocks:
            raise InputError(f"duplicate block label {label!r}")
        offset = len(signs)
        signs.extend([2.0] * n_pos)
        signs.extend([-2.0] * n_neg)
        blocks[label] = (offset, n_pos + n_neg)
        block_pos[label] = n_pos
    return GeneratorSpace(np.array(signs), blocks, block_pos)


def bullet(a: np.ndarray, b: np.ndarray, signs: np.ndarray) -> complex:
    """Scalar inner product of two coefficient rows: half the anticommutator.

    Complex-bilinear in both arguments; conjugation is the caller's job.
    Generators satisfy ``bullet(g_k, g_l) = +/-2 delta_kl``.  Both rows must
    have the shape of ``signs``.
    """
    if np.shape(a) != signs.shape or np.shape(b) != signs.shape:
        raise InputError(f"coefficient rows {np.shape(a)} and {np.shape(b)} do not match "
                         f"space size {signs.size}")
    return complex(np.sum(a * b * signs))


def bullet_gram(V: np.ndarray, W: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """bullet(V_i, W_j) of coefficient stacks (..., k, G) and (..., l, G): shape (..., k, l).

    Bilinear like :func:`bullet`; pass ``W.conj()`` for the Hermitian Gram
    bullet(V_i, conj(W_j)).
    """
    return (V * signs) @ np.swapaxes(W, -1, -2)


def standard_basis(space: GeneratorSpace, block: str | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Complexified basis of a block with signature (2n, 2n).

    Returns ``(E, F)`` as two (n, G) stacks.  Each ``E_i`` combines two
    negative-class generators, each ``F_i`` two positive-class ones:

        E_i = (-i h_{2i} + h_{2i+1}) / 2,   F_i = (-i g_{2i} + g_{2i+1}) / 2.

    The resulting product table (verified by unit test, not assumed):
    E.conj(E) = -delta, F.conj(F) = +delta, all other combinations zero.
    """
    block = _only_block(space, block)
    n_pos, n_neg = space.block_signature(block)
    if n_pos != n_neg or n_pos % 2 != 0:
        raise PreconditionError(
            f"block {block!r} has signature ({n_pos},{n_neg}); need (2n, 2n)")
    offset = space.blocks[block][0]
    n = n_pos // 2
    E, F = np.zeros((2, n, space.size), dtype=complex)
    rows, cols = np.arange(n), offset + 2 * np.arange(n)
    F[rows, cols], F[rows, cols + 1] = -0.5j, 0.5
    E[rows, n_pos + cols], E[rows, n_pos + cols + 1] = -0.5j, 0.5
    return E, F


def _only_block(space: GeneratorSpace, block: str | None) -> str:
    if block is None:
        if len(space.blocks) != 1:
            raise PreconditionError("space has several blocks; pass one explicitly")
        block = next(iter(space.blocks))
    return block


def validate_hermitian(H) -> np.ndarray:
    """Return H as a complex ndarray, raising InputError if not Hermitian.

    H may deviate from H^dagger by ``hermitian_input`` times max(1, max|H|).
    The Hermitian part is halved before it is summed, so finite entries near
    the float64 limit do not overflow.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise InputError(f"expected a square matrix, got shape {H.shape}")
    if not np.all(np.isfinite(H)):
        raise InputError("matrix has non-finite entries")
    atol = DEFAULT.hermitian_input * max(1.0, float(np.abs(H).max(initial=0.0)))
    dev = float(np.abs(H - H.conj().T).max(initial=0.0))
    if dev > atol:
        raise InputError(f"matrix is not Hermitian: max deviation {dev:.3e} > {atol:.3e}")
    return 0.5 * H + 0.5 * H.conj().T


def hermitian_eig(H) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix by LAPACK (``np.linalg.eigh``).

    Returns ``(U, lam)`` with ``U`` unitary, ``lam`` real, ``U diag(lam) U^dagger = H``.
    Eigenvalues are ordered descending, ties broken by LAPACK's ascending
    order, so resolutions downstream are reproducible.
    """
    lam, U = np.linalg.eigh(validate_hermitian(H))
    order = np.argsort(-lam, kind="stable")
    return U[:, order], lam[order]


@dataclass
class GramResolution:
    """Vectors whose bullet Gram matrix reproduces a target Hermitian matrix.

    ``coeffs`` is the (n, G) coefficient stack, one row per vector.
    """

    coeffs: np.ndarray
    target: np.ndarray
    space: GeneratorSpace

    def realized_gram(self) -> np.ndarray:
        return bullet_gram(self.coeffs, self.coeffs.conj(), self.space.signs)

    def gram_residual(self) -> float:
        return float(np.abs(self.realized_gram() - self.target).max())

    def null_residual(self) -> float:
        """Largest same-kind product |bullet(c_i, c_j)|, zero for an exact resolution."""
        return float(np.abs(bullet_gram(self.coeffs, self.coeffs, self.space.signs)).max())


def resolve_hermitian(H, space: GeneratorSpace, block: str | None = None) -> GramResolution:
    """Realize a Hermitian matrix H as ``H_ij = bullet(c_i, conj(c_j))``.

    Eigendecompose ``H = U diag(lam) U^dagger`` and assign one basis vector per
    eigendirection: ``F_k`` for positive, ``E_k`` for negative, the null
    combination ``E_k + F_k`` (unit weight) for eigenvalues below the zero
    threshold.  Then ``c_i = sum_k U[i,k] sqrt(|lam_k|) b_k`` with the zero
    branch entering at unit scale.  Same-kind products vanish identically
    because E.E = F.F = E.F = 0.
    """
    H = validate_hermitian(H)
    n = H.shape[0]
    block = _only_block(space, block)
    n_pos, n_neg = space.block_signature(block)
    if n_pos < 2 * n or n_neg < 2 * n:
        raise PreconditionError(
            f"block {block!r} signature ({n_pos},{n_neg}) too small for a {n}x{n} matrix; "
            f"need at least ({2 * n},{2 * n})")
    E, F = standard_basis(space, block)
    U, lam = hermitian_eig(H)
    zero_cut = DEFAULT.eig_zero_rel * (np.abs(lam).max(initial=0.0))
    rows = np.zeros((n, space.size), dtype=complex)
    for k in range(n):                   # eigendirections in order, as the sum runs
        if abs(lam[k]) <= zero_cut:
            basis = E[k] + F[k]
            weight = 1.0
        elif lam[k] > 0:
            basis = F[k]
            weight = np.sqrt(lam[k])
        else:
            basis = E[k]
            weight = np.sqrt(-lam[k])
        rows = rows + (U[:, k] * weight)[:, None] * basis
    return GramResolution(rows, H.copy(), space)


def pair_space() -> GeneratorSpace:
    """Space with the three disjoint blocks used by :func:`resolve_pair`."""
    return allocate_blocks([("c", 4, 4), ("d", 4, 4), ("h", 4, 4)])


def resolve_pair(x, p, M, space: GeneratorSpace | None = None,
                 labels: tuple[str, str, str] = ("c", "d", "h")
                 ) -> tuple[np.ndarray, np.ndarray, GeneratorSpace]:
    """Build spinor doublets c^A, d*_A with prescribed mutual Gram matrices.

    Returns the (2, G) stacks of c and d* and the space they live on.

    Postconditions (all exact up to eigensolver residual):

        bullet(c[A], conj(c[B]))     = x[A, B]
        bullet(dstar[A], conj(dstar[B])) = p[A, B]
        bullet(c[A], dstar[B])       = M[A, B]
        all same-kind products zero.

    x and p are resolved on disjoint blocks (making every cross product
    vanish); the mixed Gram M is then dialed in by shifting c and d* along
    null directions h_i = E_i + F_i and h_i^* = -conj(E_i - F_i)/2 of a third
    block.  Null shifts leave x and p untouched because both h and h^* have
    zero product with their own conjugates.
    """
    x = validate_hermitian(x)
    p = validate_hermitian(p)
    M = np.asarray(M, dtype=complex)
    if x.shape != (2, 2) or p.shape != (2, 2) or M.shape != (2, 2):
        raise InputError("resolve_pair expects 2x2 matrices")
    if not np.all(np.isfinite(M)):
        raise InputError(f"mixed Gram M must be finite, got {M.tolist()}")
    c_label, d_label, h_label = labels
    if space is None:
        space = pair_space()
    for label in labels:
        if label not in space.blocks:
            raise PreconditionError(f"space is missing the {label!r} block")
    n_pos, n_neg = space.block_signature(h_label)
    if n_pos < 4 or n_neg < 4:
        raise PreconditionError("h block needs at least two standard pairs (4,4)")
    res_x = resolve_hermitian(x, space, c_label)
    res_p = resolve_hermitian(p, space, d_label)
    E, F = standard_basis(space, h_label)
    C = res_x.coeffs + (E[:2] + F[:2])        # c_A + h_A: h_A null, paired with A
    hstar = (E[:2] - F[:2]).conj() * complex(-0.5)   # null partners: bullet(h_i, h_j*) = delta
    D = res_p.coeffs
    for i in range(2):
        D = D + hstar[i] * M[i, :, None]         # d*_B += M[i, B] h_i*
    return C, D, space


def hermitian_to_json(H) -> dict:
    """JSON form of a Hermitian matrix: {"n": ..., "re": [[...]], "im": [[...]]}."""
    H = np.asarray(H, dtype=complex)
    return {"n": int(H.shape[0]), "re": H.real.tolist(), "im": H.imag.tolist()}


def hermitian_from_json(obj: dict) -> np.ndarray:
    obj = fields(obj, "", ("n", "re", "im"))
    n = integer(obj["n"], "n")
    if n < 1:
        raise InputError(f"n must be a positive integer, got {n}")
    return validate_hermitian(real_array(obj["re"], (n, n), "re")
                              + 1j * real_array(obj["im"], (n, n), "im"))
