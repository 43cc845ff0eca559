"""Seeded random generators for matrices, effects, and stochastic kernels.

Every function takes an explicit ``numpy.random.Generator`` so callers control
determinism.  ``seeded_rng`` derives independent streams from a single 64-bit
seed by fixed label splitting: adding a new labelled stream never perturbs
the draws of existing ones.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import NumericalFailure
from .linalg import right_normalize


def seeded_rng(seed: int, *key) -> np.random.Generator:
    """Generator for stream ``key`` (strings or ints) under a master seed."""
    words = tuple(
        zlib.crc32(part.encode()) if isinstance(part, str) else int(part) & 0xFFFFFFFF
        for part in key
    )
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=words))


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitaries(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """(count, dim, dim) Haar-like unitaries from one batched QR of a Ginibre stack."""
    q, r = np.linalg.qr(random_complex(rng, (count, dim, dim)))
    phases = np.diagonal(r, axis1=1, axis2=2)
    return q * (phases / np.abs(phases))[:, None, :]


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-like unitary from the QR decomposition of a Ginibre matrix."""
    return random_unitaries(1, dim, rng)[0]


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank density matrix G G^dag / tr(G G^dag) from a Ginibre matrix G."""
    g = random_complex(rng, (dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_effects(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """(count, dim, dim) effects U diag(lambda) U^dag, lambda uniform in [0, 1)."""
    u = random_unitaries(count, dim, rng)
    return (u * rng.uniform(0.0, 1.0, (count, 1, dim))) @ u.conj().transpose(0, 2, 1)


def random_effect(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Effect with eigenvalues drawn uniformly from [0, 1)."""
    return random_effects(1, dim, rng)[0]


def random_probability_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    p = rng.uniform(0.1, 1.0, n)
    return p / p.sum()


def random_stochastic_matrix(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Column-stochastic matrix with entries bounded away from zero."""
    m = rng.uniform(0.05, 1.0, (rows, cols))
    return m / m.sum(axis=0)


def random_kraus_set(dim: int, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Kraus operators of a CPTP map, right-normalized so sum L^dag L = I."""
    raw = random_complex(rng, (count, dim, dim))
    return list(right_normalize(raw, lambda _, problem: NumericalFailure(f"sum L^dag L {problem}")))
