"""Hybrid operations in discrete Kraus-block form.

A channel holds, for each (target cell m, source cell n) pair, a finite list
of ``qdim_dst x qdim_src`` blocks.  Blocks act on cell masses, so the single
validity condition is per-source completeness: summing L^dag L over all
targets and blocks of a source cell gives the identity, independent of cell
weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .classical import ClassicalSpace, MarkovKernel, validate_kernel
from .errors import (
    BadBasis,
    BadKernel,
    IncompleteChannel,
    IncompleteKraus,
    NotPSDCoefficients,
    NumericalFailure,
    ShapeMismatch,
    SpaceMismatch,
)
from .linalg import kraus_defect, kraus_gram, right_normalize
from .rand import random_complex
from .state import HybridState, new_state

COMPLETENESS_TOL = 1e-9
COEFF_EIGENVALUE_CUTOFF = 1e-12


@dataclass(frozen=True, eq=False)
class HybridChannel:
    """Validated Kraus-block channel; construct through :func:`from_blocks`."""

    src_space: ClassicalSpace
    dst_space: ClassicalSpace
    qdim_src: int
    qdim_dst: int
    blocks: Mapping[tuple[int, int], np.ndarray]  # (m, n) -> stacked (k, q_dst, q_src)
    kind: str = field(default="blocks", compare=False)

    def __repr__(self) -> str:
        return (
            f"HybridChannel({self.src_space.size}x{self.qdim_src} -> "
            f"{self.dst_space.size}x{self.qdim_dst}, kind={self.kind!r})"
        )


def _defects_per_source(channel: HybridChannel) -> np.ndarray:
    """Max-entry deviation of sum_{m,a} L^dag L from identity, per source cell."""
    totals = np.zeros((channel.src_space.size, channel.qdim_src, channel.qdim_src), dtype=complex)
    for (_, n), stack in channel.blocks.items():
        totals[n] += kraus_gram(stack)
    return np.abs(totals - np.eye(channel.qdim_src)).max(axis=(1, 2))


def completeness_defect(channel: HybridChannel) -> float:
    """Max entrywise deviation of sum_{m,a} L^dag L from identity over source cells."""
    return float(_defects_per_source(channel).max())


def from_blocks(
    src_space: ClassicalSpace,
    dst_space: ClassicalSpace,
    qdim_src: int,
    qdim_dst: int,
    blocks,
    kind: str = "blocks",
    tol: float = COMPLETENESS_TOL,
) -> HybridChannel:
    """Build a channel from {(m, n): [L, ...]} and verify per-source completeness."""
    if qdim_src < 1 or qdim_dst < 1:
        raise ShapeMismatch("quantum dimensions must be positive")
    normalized: dict[tuple[int, int], np.ndarray] = {}
    for key in sorted(blocks):
        m, n = int(key[0]), int(key[1])
        if not (0 <= m < dst_space.size and 0 <= n < src_space.size):
            raise ShapeMismatch(f"block key ({m}, {n}) outside the cell grid")
        stack = np.asarray(blocks[key], dtype=complex)
        if stack.ndim == 2:
            stack = stack[None]
        if stack.ndim != 3 or stack.shape[1:] != (qdim_dst, qdim_src):
            raise ShapeMismatch(
                f"blocks at ({m}, {n}) have shape {stack.shape}, "
                f"expected (k, {qdim_dst}, {qdim_src})"
            )
        if stack.shape[0] == 0:
            continue
        if not np.all(np.isfinite(stack.real) & np.isfinite(stack.imag)):
            raise NumericalFailure(f"blocks at ({m}, {n}) have non-finite entries")
        stack = stack.copy()
        stack.flags.writeable = False
        normalized[(m, n)] = stack

    channel = HybridChannel(src_space, dst_space, qdim_src, qdim_dst, normalized, kind)
    defects = _defects_per_source(channel)
    bad = np.flatnonzero(defects > tol)
    if bad.size:
        raise IncompleteChannel(int(bad[0]), float(defects[bad[0]]))
    return channel


def identity_channel(space: ClassicalSpace, qdim: int) -> HybridChannel:
    blocks = {(n, n): np.eye(qdim, dtype=complex)[None] for n in range(space.size)}
    return from_blocks(space, space, qdim, qdim, blocks)


def apply(channel: HybridChannel, state: HybridState) -> HybridState:
    """Transform cell masses: sigma'_m = sum_{n,a} L_a(m,n) sigma_n L_a(m,n)^dag."""
    if channel.src_space != state.space or channel.qdim_src != state.qdim:
        raise SpaceMismatch(
            f"channel source ({channel.src_space.size} cells, qdim {channel.qdim_src}) "
            f"does not match state ({state.space.size} cells, qdim {state.qdim})"
        )
    out = np.zeros((channel.dst_space.size, channel.qdim_dst, channel.qdim_dst), dtype=complex)
    for (m, n), stack in channel.blocks.items():
        out[m] += np.einsum("aij,jk,alk->il", stack, state.masses[n], stack.conj())
    return new_state(channel.dst_space, out)


def compose(second: HybridChannel, first: HybridChannel) -> HybridChannel:
    """Channel equal to "apply first, then second".

    For each cell pair (k, n) the product blocks B_b(k, m) A_a(m, n), summed
    over the intermediate cell m, are stacked as row vectors V; the Choi
    matrix V^T V* is factored back into Kraus blocks.  A cell-pair map has
    Kraus rank at most q_dst * q_src, so no pair ever holds more blocks.
    """
    if first.dst_space != second.src_space or first.qdim_dst != second.qdim_src:
        raise SpaceMismatch("destination of the first channel does not match source of the second")
    by_mid: dict[int, list[tuple[int, np.ndarray]]] = {}
    for (m, n), stack1 in first.blocks.items():
        by_mid.setdefault(m, []).append((n, stack1))
    q_dst, q_src = second.qdim_dst, first.qdim_src
    choi: dict[tuple[int, int], np.ndarray] = {}
    for (k, m), stack2 in second.blocks.items():
        for n, stack1 in by_mid.get(m, ()):
            v = np.einsum("bij,ajk->baik", stack2, stack1).reshape(-1, q_dst * q_src)
            if (k, n) in choi:
                choi[(k, n)] += v.T @ v.conj()
            else:
                choi[(k, n)] = v.T @ v.conj()
    blocks = {
        key: factors.reshape(-1, q_dst, q_src) for key, factors in _psd_factors(choi).items()
    }
    return from_blocks(
        first.src_space, second.dst_space, q_src, q_dst, blocks, kind="composed"
    )


def _psd_factors(mats: dict[tuple[int, int], np.ndarray]) -> dict[tuple[int, int], np.ndarray]:
    """Rows f_g with mats[key] = sum_g f_g f_g^dag, as one (g, b) array per key.

    The Hermitian part of each matrix is eigendecomposed and f_g is
    sqrt(lambda_g) times the eigenvector; eigenvalues at or below
    COEFF_EIGENVALUE_CUTOFF of the largest are dropped (the factorization is
    not unique and minimal rank is not needed), and keys left with no rows are
    omitted.  An eigenvalue below -COMPLETENESS_TOL of the trace norm raises
    NotPSDCoefficients for that key.
    """
    stacked = np.array(list(mats.values()))
    vals, vecs = np.linalg.eigh((stacked + stacked.conj().swapaxes(-1, -2)) / 2)
    factors: dict[tuple[int, int], np.ndarray] = {}
    for key, lam, vec in zip(mats, vals, vecs):
        if lam[0] < -COMPLETENESS_TOL * max(1.0, float(np.abs(lam).sum())):
            raise NotPSDCoefficients(*key)
        keep = lam > COEFF_EIGENVALUE_CUTOFF * max(lam[-1], 0.0)
        if keep.any():
            factors[key] = np.sqrt(lam[keep])[:, None] * vec[:, keep].T
    return factors


def non_interacting(kernel: MarkovKernel, kraus: Sequence[np.ndarray]) -> HybridChannel:
    """Channel of non-interacting subsystems: blocks sqrt(P[m,n]) * L_a.

    The classical marginal evolves by the kernel alone, the quantum marginal by
    the Kraus set alone, and product states stay product states.
    """
    report = validate_kernel(kernel)
    if not report.ok:
        raise BadKernel(report.message)
    stack = np.asarray(kraus, dtype=complex)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise IncompleteKraus(f"Kraus set must stack to (k, d, d), got shape {stack.shape}")
    q = stack.shape[1]
    defect = kraus_defect(stack)
    if defect > COMPLETENESS_TOL:
        raise IncompleteKraus(f"sum L^dag L deviates from identity by {defect:.3e}")

    p = kernel.matrix
    blocks = {
        (m, n): np.sqrt(p[m, n]) * stack
        for m in range(kernel.dst.size)
        for n in range(kernel.src.size)
        if p[m, n] > 0.0
    }
    return from_blocks(kernel.src, kernel.dst, q, q, blocks, kind="non_interacting")


def from_coeff_kernel(
    src_space: ClassicalSpace,
    dst_space: ClassicalSpace,
    basis: Sequence[np.ndarray],
    coeffs,
) -> HybridChannel:
    """Channel from an operator basis and per-cell-pair coefficient matrices.

    ``coeffs[m, n]`` is the matrix k_{ab}(m, n) weighting L_a sigma L_b^dag.
    Each Hermitized coefficient matrix must be PSD; its eigendecomposition
    yields the Kraus blocks sqrt(lambda) * sum_a v[a] L_a (see _psd_factors).
    """
    mats = np.asarray(basis, dtype=complex)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise BadBasis(f"basis must stack to (b, d, d), got shape {mats.shape}")
    d = mats.shape[1]
    b = mats.shape[0]
    if b != d * d:
        raise BadBasis(f"{b} basis elements cannot span the {d * d}-dimensional operator space")
    gram = mats.reshape(b, -1)
    if np.linalg.matrix_rank(gram, tol=1e-10 * max(1.0, float(np.abs(gram).max()))) < b:
        raise BadBasis("basis elements are linearly dependent")

    k = np.asarray(coeffs, dtype=complex)
    expected = (dst_space.size, src_space.size, b, b)
    if k.shape != expected:
        raise ShapeMismatch(f"coefficients have shape {k.shape}, expected {expected}")

    pairs = {(m, n): k[m, n] for m in range(dst_space.size) for n in range(src_space.size)}
    blocks = {
        key: np.einsum("gb,bij->gij", factors, mats)
        for key, factors in _psd_factors(pairs).items()
    }
    return from_blocks(src_space, dst_space, d, d, blocks, kind="coeff_kernel")


def extend_with_ancilla(channel: HybridChannel, ancilla_dim: int) -> HybridChannel:
    """Tensor every block with the identity on a non-interacting ancilla."""
    if ancilla_dim < 1:
        raise ShapeMismatch("ancilla dimension must be positive")
    if ancilla_dim == 1:
        return channel
    eye = np.eye(ancilla_dim, dtype=complex)
    blocks = {
        key: np.stack([np.kron(block, eye) for block in stack])
        for key, stack in channel.blocks.items()
    }
    return from_blocks(
        channel.src_space,
        channel.dst_space,
        channel.qdim_src * ancilla_dim,
        channel.qdim_dst * ancilla_dim,
        blocks,
        kind=channel.kind,
    )


def random_channel(
    src_space: ClassicalSpace,
    dst_space: ClassicalSpace,
    qdim_src: int,
    qdim_dst: int,
    branching: int,
    seed,
) -> HybridChannel:
    """Seeded random channel; blocks are right-normalized per source cell."""
    if branching < 1:
        raise ShapeMismatch("branching must be at least 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n_dst = dst_space.size
    blocks: dict[tuple[int, int], np.ndarray] = {}
    for n in range(src_space.size):
        for attempt in range(3):
            try:
                stack = right_normalize(random_complex(rng, (n_dst, branching, qdim_dst, qdim_src)))
                break
            except NumericalFailure:
                continue
        else:
            raise NumericalFailure(f"normalizer for source cell {n} is singular")
        for m in range(n_dst):
            blocks[(m, n)] = stack[m]
    return from_blocks(src_space, dst_space, qdim_src, qdim_dst, blocks)
