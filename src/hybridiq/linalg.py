"""Dense complex matrix primitives used by every other module.

All matrices are square ``numpy`` complex arrays.  Entropic quantities use the
natural logarithm throughout.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NotAState, NotHermitian, NumericalFailure

# Hermiticity is accepted up to this max-entry deviation, positivity up to
# -PSD_TOL * max(1, trace norm), and eigenvalues below SPECTRAL_CUTOFF are
# treated as exactly zero inside entropy formulas.
HERMITICITY_TOL = 1e-9
PSD_TOL = 1e-9
TRACE_TOL = 1e-9
SPECTRAL_CUTOFF = 1e-14
SUPPORT_TOL = 1e-12


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def as_cmatrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise DimensionMismatch(f"{name} must have positive dimension")
    if not np.all(np.isfinite(arr.real) & np.isfinite(arr.imag)):
        raise NumericalFailure(f"{name} has non-finite entries")
    return arr


def hermiticity_defect(m: np.ndarray) -> np.ndarray:
    """Max-entry deviation from Hermiticity of each matrix of a (..., d, d) array."""
    return np.abs(m - np.swapaxes(m, -1, -2).conj()).max(axis=(-2, -1))


class BlockMargins(NamedTuple):
    """How far each block of a (n, d, d) stack is from a positive Hermitian matrix.

    Blocks with a non-finite entry are measured as the zero matrix, so the
    other margins stay finite and describe the remaining blocks.
    """

    nonfinite: np.ndarray    # (n,) block has a non-finite entry
    hermiticity: np.ndarray  # (n,) max-entry deviation from Hermiticity
    eigenvalues: np.ndarray  # (n, d) ascending eigenvalues of the Hermitian part
    scales: np.ndarray       # (n,) max(1, trace norm of the Hermitian part)
    sym: np.ndarray          # (n, d, d) Hermitian part

    @property
    def floor(self) -> np.ndarray:
        """lambda_min / max(1, trace norm); a block is positive when this is >= -PSD_TOL."""
        return self.eigenvalues[:, 0] / self.scales


def block_margins(stack: np.ndarray) -> BlockMargins:
    """Measure a (n, d, d) complex stack with one batched eigvalsh and no eigenvectors."""
    nonfinite = ~np.isfinite(stack).all(axis=(1, 2))
    if nonfinite.any():
        stack = np.where(nonfinite[:, None, None], 0.0, stack)
    sym = (stack + stack.conj().transpose(0, 2, 1)) / 2
    try:
        eigs = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalFailure(f"eigenvalue computation failed: {exc}") from exc
    scales = np.maximum(1.0, np.abs(eigs).sum(axis=1))
    return BlockMargins(nonfinite, hermiticity_defect(stack), eigs, scales, sym)


def kraus_gram(stack: np.ndarray) -> np.ndarray:
    """sum_a L_a^dag L_a over every leading axis of a (..., d_out, d_in) Kraus stack."""
    flat = stack.reshape(-1, *stack.shape[-2:])
    return np.einsum("aji,ajk->ik", flat.conj(), flat)


def kraus_defect(stack: np.ndarray) -> float:
    """Max-entry deviation of sum_a L_a^dag L_a from the identity."""
    gram = kraus_gram(stack)
    return float(np.abs(gram - np.eye(gram.shape[0])).max())


def right_normalize(raw: np.ndarray) -> np.ndarray:
    """raw @ (sum L^dag L)^(-1/2), which makes the stack complete."""
    vals, vecs = np.linalg.eigh(kraus_gram(raw))
    if not vals[0] > 1e-12 * vals[-1]:
        raise NumericalFailure("sum L^dag L is singular")
    return raw @ ((vecs / np.sqrt(vals)) @ vecs.conj().T)


class HermEig(NamedTuple):
    """Spectral decomposition with eigenvalues sorted non-increasing."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m) -> HermEig:
    """Eigendecomposition of a Hermitian matrix.

    The input is symmetrized before decomposition, which stabilizes
    downstream positivity checks.  Columns of ``eigenvectors`` match the
    eigenvalue order.
    """
    arr = as_cmatrix(m)
    defect = float(hermiticity_defect(arr))
    if defect > HERMITICITY_TOL:
        raise NotHermitian(f"matrix deviates from Hermiticity by {defect:.3e}")
    sym = (arr + dagger(arr)) / 2
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    return HermEig(vals[::-1].copy(), vecs[:, ::-1].copy())


def trace_norm(m) -> float:
    """Sum of singular values; sum of |eigenvalues| for Hermitian input."""
    arr = as_cmatrix(m)
    try:
        return float(np.linalg.svd(arr, compute_uv=False).sum())
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalFailure(f"singular value decomposition failed: {exc}") from exc


def partial_trace(m, dim_a: int, dim_b: int, side: str) -> np.ndarray:
    """Trace out factor ``side`` of a matrix on a ``dim_a * dim_b`` product space."""
    arr = as_cmatrix(m)
    if dim_a < 1 or dim_b < 1 or arr.shape[0] != dim_a * dim_b:
        raise DimensionMismatch(
            f"matrix of dimension {arr.shape[0]} does not factor as {dim_a} x {dim_b}"
        )
    t = arr.reshape(dim_a, dim_b, dim_a, dim_b)
    if side == "A":
        return np.einsum("iaib->ab", t)
    if side == "B":
        return np.einsum("ibjb->ij", t)
    raise DimensionMismatch(f"side must be 'A' or 'B', got {side!r}")


def partial_transpose(m, dim_a: int, dim_b: int, side: str) -> np.ndarray:
    """Transpose factor ``side`` of a matrix on a ``dim_a * dim_b`` product space."""
    arr = as_cmatrix(m)
    if dim_a < 1 or dim_b < 1 or arr.shape[0] != dim_a * dim_b:
        raise DimensionMismatch(
            f"matrix of dimension {arr.shape[0]} does not factor as {dim_a} x {dim_b}"
        )
    t = arr.reshape(dim_a, dim_b, dim_a, dim_b)
    if side == "A":
        out = t.transpose(2, 1, 0, 3)
    elif side == "B":
        out = t.transpose(0, 3, 2, 1)
    else:
        raise DimensionMismatch(f"side must be 'A' or 'B', got {side!r}")
    return out.reshape(arr.shape)


def is_psd(m, tol: float = PSD_TOL) -> bool:
    """Whether min eigenvalue >= -tol * max(1, trace norm).  Requires Hermitian input."""
    margins = block_margins(as_cmatrix(m)[None])
    defect = float(margins.hermiticity[0])
    if defect > HERMITICITY_TOL:
        raise NotHermitian(f"matrix deviates from Hermiticity by {defect:.3e}")
    return bool(margins.floor[0] >= -tol)


def _require_density(rho, name: str = "state") -> np.ndarray:
    margins = block_margins(as_cmatrix(rho, name)[None])
    defect = float(margins.hermiticity[0])
    if defect > HERMITICITY_TOL:
        raise NotAState(f"{name} deviates from Hermiticity by {defect:.3e}")
    sym = margins.sym[0]
    tr = float(np.trace(sym).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise NotAState(f"{name} has trace {tr!r}, expected 1")
    if margins.floor[0] < -PSD_TOL:
        raise NotAState(f"{name} is not positive semidefinite")
    return sym


def von_neumann_entropy(rho) -> float:
    """S(rho) = -sum lambda ln lambda, in nats, over eigenvalues above the cutoff."""
    arr = _require_density(rho)
    vals = np.linalg.eigvalsh(arr)
    vals = vals[vals > SPECTRAL_CUTOFF]
    return max(float(-(vals * np.log(vals)).sum()), 0.0)


def relative_entropy(rho, tau) -> float:
    """S(rho || tau) = tr(rho ln rho) - tr(rho ln tau), +inf outside tau's support."""
    r = _require_density(rho, "rho")
    t = _require_density(tau, "tau")
    if r.shape != t.shape:
        raise DimensionMismatch(f"dimension mismatch: {r.shape[0]} vs {t.shape[0]}")
    r_vals = np.linalg.eigvalsh(r)
    r_vals = r_vals[r_vals > SPECTRAL_CUTOFF]
    tr_rho_ln_rho = float((r_vals * np.log(r_vals)).sum())

    t_vals, t_vecs = np.linalg.eigh(t)
    weights = np.einsum("ji,jk,ki->i", t_vecs.conj(), r, t_vecs).real
    kernel = t_vals <= SPECTRAL_CUTOFF
    if weights[kernel].sum() > SUPPORT_TOL:
        return math.inf
    keep = ~kernel
    tr_rho_ln_tau = float((weights[keep] * np.log(t_vals[keep])).sum())
    return max(tr_rho_ln_rho - tr_rho_ln_tau, 0.0)
