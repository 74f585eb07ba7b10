"""Sigma-matrix dictionary between four-vectors and 2x2 spinor matrices.

Conventions (fixed once, validated by the identity and norm tests rather
than assumed):

* metric (+,-,-,-); a future-directed unit timelike vector maps to the
  identity matrix;
* sigma_0 = I, sigma_{1,2,3} the Pauli matrices; an upper-index pair
  ``V^{AB}`` is ``sum_mu sigma_mu V^mu`` and the inverse extraction is
  ``V^mu = tr(sigma_mu V) / 2``;
* epsilon with ``eps^{12} = eps_{21} = +1``; indices are raised by left
  contraction and lowered by right contraction.  Raising and lowering then
  share one numerical matrix, a single application squares to ``-identity``
  (the familiar "eps eps = -delta"), and a raise-lower round trip applied
  twice is the identity.

Index flips on both slots of a 2-index spinor are insensitive to the
left/right choice, which is why the four-vector contraction identity pins
the whole table down.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SIGMA",
    "ETA",
    "EPS_UP",
    "EPS_LO",
    "vec_to_spinor",
    "spinor_to_vec",
    "minkowski_norm",
    "minkowski_dot",
    "eta_flip",
    "flip_both",
    "eps_flip_pair",
    "covec_to_spinor_down",
    "spinor_down_to_covec",
    "DX_UP",
    "DP_DOWN",
]

SIGMA = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)

ETA = np.diag([1.0, -1.0, -1.0, -1.0])

EPS_UP = np.array([[0.0, 1.0], [-1.0, 0.0]])   # eps^{AB}, eps^{12} = +1
EPS_LO = np.array([[0.0, -1.0], [1.0, 0.0]])   # eps_{AB}, eps_{21} = +1


def vec_to_spinor(v) -> np.ndarray:
    """V^{AB} = sigma_mu^{AB} V^mu for contravariant components V^mu, per vector of a stack."""
    v = np.asarray(v, dtype=complex)
    return np.einsum("mab,...m->...ab", SIGMA, v)


def spinor_to_vec(S) -> np.ndarray:
    """V^mu = tr(sigma_mu S) / 2 per matrix of a stack; exact left inverse of vec_to_spinor."""
    S = np.asarray(S, dtype=complex)
    return 0.5 * np.einsum("mab,...ba->...m", SIGMA, S)


def minkowski_dot(u, v):
    """u.v over the last axis: a complex for two four-vectors, else an array over the stack."""
    u, v = (np.moveaxis(np.asarray(w), -1, 0) for w in (u, v))
    dot = u[0] * v[0] - u[1] * v[1] - u[2] * v[2] - u[3] * v[3]
    return complex(dot) if dot.ndim == 0 else dot


def minkowski_norm(S) -> float:
    """V.V of the four-vector behind an upper-index spinor matrix: det(S)."""
    S = np.asarray(S, dtype=complex)
    det = S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]
    return det.real if abs(det.imag) < 1e-12 * max(1.0, abs(det)) else det


def eta_flip(v) -> np.ndarray:
    """Raise or lower a four-vector index (self-inverse), row-wise on a stack."""
    return np.asarray(v, dtype=complex) @ ETA          # ETA is symmetric


def flip_both(S) -> np.ndarray:
    """Flip both indices; an involution, identical for raising and lowering."""
    return EPS_UP @ np.asarray(S, dtype=complex) @ EPS_LO


def eps_flip_pair(pair):
    """Index flip of a spinor doublet (coefficient rows, arrays, scalars): (v1, -v0).

    Implements both the left raise eps^{AB} v_B and the right lower
    v^B eps_{BA}, which coincide numerically in this convention.
    """
    return [pair[1], -1.0 * pair[0]]


def covec_to_spinor_down(p) -> np.ndarray:
    """P_{AB} from covariant components p_mu."""
    return flip_both(vec_to_spinor(eta_flip(p)))


def spinor_down_to_covec(P) -> np.ndarray:
    """p_mu from a lower-index spinor matrix P_{AB}."""
    return eta_flip(spinor_to_vec(flip_both(P)))


def _probe_gradient_maps():
    """Build the gradient dictionaries by probing the linear conversions.

    DX_UP[mu, A, B] = d x^mu / d x_up[A, B]   (x_up the upper-index matrix)
    DP_DOWN[mu, A, B] = d p_mu / d P_down[A, B]

    Probing unit matrices through the conversion pipeline keeps every factor
    and sign tied to the functions above instead of a hand-copied table.
    """
    dx = np.zeros((4, 2, 2), dtype=complex)
    dp = np.zeros((4, 2, 2), dtype=complex)
    for A in range(2):
        for B in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[A, B] = 1.0
            dx[:, A, B] = spinor_to_vec(unit)
            dp[:, A, B] = spinor_down_to_covec(unit)
    return dx, dp


DX_UP, DP_DOWN = _probe_gradient_maps()
