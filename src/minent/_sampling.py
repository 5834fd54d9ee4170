# src/minent/_sampling.py
"""Counter-based randomness shared by the Monte Carlo layers.

Philox (64-bit counter PRNG) keyed by (master seed, stream id), with
complex Gaussians produced by Box-Muller from raw uniforms. Every
consumer derives its own stream id, so results are reproducible given
the master seed no matter how work is divided among workers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "complex_ginibre", "haar_unitaries", "random_pure_vectors",
           "random_density_matrices", "random_channels_kraus"]


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF,
                                                     stream_id & 0xFFFFFFFFFFFFFFFF]))


def complex_ginibre(gen: np.random.Generator, shape) -> np.ndarray:
    """Standard complex normals via Box-Muller on Philox uniforms."""
    u1 = gen.random(shape)
    u2 = gen.random(shape)
    r = np.sqrt(-np.log(np.clip(u1, 1e-300, None)))
    return r * np.exp(2j * np.pi * u2)


def _haar_isometries(gen: np.random.Generator, rows: int, cols: int,
                     count: int) -> np.ndarray:
    """Haar-distributed isometries (rows >= cols): Ginibre QR with
    R-diagonal phase fix."""
    z = complex_ginibre(gen, (count, rows, cols))
    q, r = np.linalg.qr(z)
    diag = np.einsum("bii->bi", r)
    phases = diag / np.abs(np.where(np.abs(diag) > 0, diag, 1.0))
    return q * phases[:, None, :]


def haar_unitaries(gen: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """Haar-distributed unitaries."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    return _haar_isometries(gen, dim, dim, count)


def random_pure_vectors(gen: np.random.Generator, dim: int, count: int) -> np.ndarray:
    v = complex_ginibre(gen, (count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_density_matrices(gen: np.random.Generator, dim: int, count: int,
                            rank: int | None = None) -> np.ndarray:
    r = rank or dim
    g = complex_ginibre(gen, (count, dim, r))
    mats = g @ g.conj().swapaxes(-1, -2)
    tr = np.einsum("bii->b", mats).real
    return mats / tr[:, None, None]


def random_channels_kraus(gen: np.random.Generator, in_dim: int, out_dim: int,
                          kraus_count: int, count: int) -> np.ndarray:
    """Random channels from Haar isometries in -> out (x) env, as a stack
    (count, kraus_count, out_dim, in_dim) of Kraus operators."""
    isos = _haar_isometries(gen, out_dim * kraus_count, in_dim, count)
    # rows are indexed (a, e); Kraus operators collect fixed e
    return isos.reshape(count, out_dim, kraus_count, in_dim).swapaxes(1, 2)
