"""Dense complex matrix primitives used by every other module.

All matrices are square ``numpy`` complex arrays.  Entropic quantities use the
natural logarithm throughout.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

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


class Verdict(NamedTuple):
    """One per-block invariant over a stack: the worst deviation and its tolerance.

    When the worst block fails, ``block`` is the lowest-index failing block and
    ``problem`` says what is wrong with it; otherwise they are None and "".
    """

    deviation: float
    tolerance: float
    block: int | None = None
    problem: str = ""


def _verdict(deviations: np.ndarray, worst: float, tolerance: float, problem: str) -> Verdict:
    if worst <= tolerance:
        return Verdict(worst, tolerance)
    block = int((deviations > tolerance).argmax())
    return Verdict(worst, tolerance, block, problem.format(deviations[block]))


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

    def worst(self) -> tuple[Verdict, Verdict, Verdict]:
        """The finite, Hermitian and positive verdicts over the stack, in that order.

        Each costs one reduction; the failing block is searched for only on failure.
        """
        floor, herm = self.floor, self.hermiticity
        finite = float(np.count_nonzero(self.nonfinite))
        return (
            _verdict(self.nonfinite, finite, 0.0, "has non-finite entries"),
            _verdict(
                herm, float(herm.max()), HERMITICITY_TOL, "deviates from Hermiticity by {:.3e}"
            ),
            _verdict(-floor, -float(floor.min()), PSD_TOL, "is not positive semidefinite"),
        )

    def require(self, error: Callable[[int, str], Exception]) -> None:
        """Raise ``error(block, problem)`` for the first failing verdict of :meth:`worst`."""
        for verdict in self.worst():
            if verdict.block is not None:
                raise error(verdict.block, verdict.problem)

    def require_unit_traces(self, error: Callable[[int, str], Exception]) -> None:
        """Raise ``error(block, problem)`` at the first block whose trace is off 1 by > TRACE_TOL.

        One reduction: the traces are scanned as Python floats.
        """
        for block, tr in enumerate(np.einsum("rii->r", self.sym).real.tolist()):
            if abs(tr - 1.0) > TRACE_TOL:
                raise error(block, f"has trace {tr!r}, expected 1")


def block_margins(stack: np.ndarray) -> BlockMargins:
    """Measure a (n, d, d) complex stack with one batched eigvalsh and no eigenvectors.

    Only blocks whose Hermitian part has a non-zero entry are eigen-solved; a
    zero block, such as a zero-mass cell, reads eigenvalues 0, scale 1 and
    Hermiticity defect 0 without one.
    """
    nonfinite = ~np.isfinite(stack).all(axis=(1, 2))
    if nonfinite.any():
        stack = np.where(nonfinite[:, None, None], 0.0, stack)
    sym = (stack + stack.conj().transpose(0, 2, 1)) / 2
    live = sym.any(axis=(1, 2))
    try:
        if live.all():
            eigs = np.linalg.eigvalsh(sym)
        else:
            eigs = np.zeros(sym.shape[:2])
            eigs[live] = np.linalg.eigvalsh(sym[live])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalFailure(f"eigenvalue computation failed: {exc}") from exc
    scales = np.maximum(1.0, np.abs(eigs).sum(axis=1))
    return BlockMargins(nonfinite, hermiticity_defect(stack), eigs, scales, sym)


def kraus_gram(stack: np.ndarray) -> np.ndarray:
    """sum_a L_a^dag L_a over every leading axis of a (..., d_out, d_in) Kraus stack."""
    flat = stack.reshape(-1, *stack.shape[-2:])
    return np.einsum("aji,ajk->ik", flat.conj(), flat)


def kraus_grams(stack: np.ndarray) -> np.ndarray:
    """Batched form of kraus_gram: L^dag L for each operator of a (..., d_out, d_in) stack."""
    return stack.conj().swapaxes(-1, -2) @ stack


def identity_defect(gram: np.ndarray) -> np.ndarray:
    """Max-entry deviation from the identity of each matrix of a (..., d, d) array, NaN as inf."""
    defect = np.abs(gram - np.eye(gram.shape[-1])).max(axis=(-2, -1))
    return np.where(np.isnan(defect), np.inf, defect)


@np.errstate(over="ignore", invalid="ignore")
def kraus_defect(stack: np.ndarray) -> np.ndarray:
    """Max-entry deviation of sum_a L_a^dag L_a from the identity, per Kraus set.

    The last three axes of ``stack`` are one set (k, d_out, d_in); any axes
    before them are batch axes, so a (..., k, d_out, d_in) stack gives a (...)
    array of defects and a single set a 0-d array.  Entries whose grams
    overflow, or non-finite ones, give an infinite defect without a warning.
    """
    return identity_defect(kraus_grams(stack).sum(axis=-3))


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


def is_psd(m) -> bool:
    """Whether min eigenvalue >= -PSD_TOL * max(1, trace norm).  Requires Hermitian input."""
    _, hermitian, positive = block_margins(as_cmatrix(m)[None]).worst()
    if hermitian.block is not None:
        raise NotHermitian(f"matrix {hermitian.problem}")
    return positive.block is None


def _density_spectrum(rho, name: str = "state") -> tuple[np.ndarray, np.ndarray]:
    """Check a density matrix; return its Hermitian part and ascending eigenvalues."""
    margins = block_margins(as_cmatrix(rho, name)[None])
    error = lambda _, problem: NotAState(f"{name} {problem}")
    margins.require(error)
    margins.require_unit_traces(error)
    return margins.sym[0], margins.eigenvalues[0]


def _require_density(rho, name: str = "state") -> np.ndarray:
    return _density_spectrum(rho, name)[0]


def nonnegative(x: float) -> float:
    """max(x, 0.0) as +0.0 when x is zero (max(-0.0, 0.0) is -0.0); NaN passes through."""
    return max(x, 0.0) + 0.0


def entropies(eigs: np.ndarray) -> np.ndarray:
    """-sum lambda ln lambda over the last axis, in nats; eigenvalues <= SPECTRAL_CUTOFF add 0."""
    vals = np.where(eigs > SPECTRAL_CUTOFF, eigs, 1.0)
    return -(vals * np.log(vals)).sum(axis=-1)


def von_neumann_entropy(rho) -> float:
    """S(rho) = -sum lambda ln lambda, in nats, over eigenvalues above the cutoff."""
    return nonnegative(float(entropies(_density_spectrum(rho)[1])))


def relative_entropy(rho, tau) -> float:
    """S(rho || tau) = tr(rho ln rho) - tr(rho ln tau), +inf outside tau's support."""
    r, r_vals = _density_spectrum(rho, "rho")
    t = _require_density(tau, "tau")
    if r.shape != t.shape:
        raise DimensionMismatch(f"dimension mismatch: {r.shape[0]} vs {t.shape[0]}")
    tr_rho_ln_rho = -float(entropies(r_vals))

    t_vals, t_vecs = np.linalg.eigh(t)
    weights = np.einsum("ji,jk,ki->i", t_vecs.conj(), r, t_vecs).real
    kernel = t_vals <= SPECTRAL_CUTOFF
    if weights[kernel].sum() > SUPPORT_TOL:
        return math.inf
    keep = ~kernel
    tr_rho_ln_tau = float((weights[keep] * np.log(t_vals[keep])).sum())
    return nonnegative(tr_rho_ln_rho - tr_rho_ln_tau)
