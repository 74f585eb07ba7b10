"""Seeded random inputs for the verification suites.

All suites draw from a ``numpy.random.Generator`` so a single seed pins the
whole run; the CLI records the seed in every report.
"""

from __future__ import annotations

import numpy as np


def random_hermitian(rng: np.random.Generator, n: int, n_zero: int = 0) -> np.ndarray:
    """Random Hermitian matrix with a random mixed signature.

    ``n_zero`` eigenvalues are exactly zero; the rest are drawn from
    [-2, -0.1] and [0.1, 2] with random signs, so every signature class is
    exercised.
    """
    lam = rng.uniform(0.1, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    if n_zero:
        idx = rng.choice(n, size=n_zero, replace=False)
        lam[idx] = 0.0
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    H = (Q * lam) @ Q.conj().T
    return 0.5 * (H + H.conj().T)


def random_fourvector(rng: np.random.Generator, complex_valued: bool = False,
                      shape: tuple[int, ...] = ()) -> np.ndarray:
    """Components uniform in [-1, 1], an array of ``(*shape, 4)``.

    A stack takes the same stream as one call per vector: each vector's real
    parts, then its imaginary parts.
    """
    if not complex_valued:
        return rng.uniform(-1.0, 1.0, size=(*shape, 4))
    re, im = np.moveaxis(rng.uniform(-1.0, 1.0, size=(*shape, 2, 4)), -2, 0)
    return re + 1j * im


def random_timelike(rng: np.random.Generator) -> np.ndarray:
    """Future-directed timelike four-vector."""
    sp = rng.uniform(-0.5, 0.5, size=3)
    t = np.sqrt(sp @ sp + rng.uniform(0.2, 1.5))
    return np.array([t, *sp])


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))
