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


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """m/2 + m^dag/2 over the last two axes; halved first, so entries near float max stay finite."""
    half = m / 2
    return half + half.conj().swapaxes(-1, -2)


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

        The one per-block verdict: states, effects, ensembles, density inputs,
        is_psd and ``hybridiq validate`` share it.  Each costs one reduction;
        the failing block is searched for only on failure.
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
        """Raise ``error(block, problem)`` at the first block that require_unit refuses."""
        require_unit(np.einsum("rii->r", self.sym).real, error)


def require_unit(traces: np.ndarray, error: Callable[[int, str], Exception]) -> None:
    """Raise ``error(index, problem)`` at the first trace that is off 1 by more than TRACE_TOL.

    The one unit-trace rule, per block or per stacked state: density inputs
    (through _require_density or require_unit_traces), ensemble members and
    the property suites' stacked draws all call it.  One reduction, as the
    traces are scanned as Python floats.
    """
    for index, tr in enumerate(traces.tolist()):
        if abs(tr - 1.0) > TRACE_TOL:
            raise error(index, f"has trace {tr!r}, expected 1")


def spectra(sym: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a (n, d, d) Hermitian stack, as a fresh (n, d) float array.

    At d = 2 it is the closed form a/2 + c/2 -+ hypot(a/2 - c/2, |b|) from the
    upper triangle, halved before adding so diagonals near the float maximum do
    not overflow; each eigenvalue is within 16 eps times the spectral radius
    of LAPACK's, far below PSD_TOL.  Other sizes go through one batched eigvalsh,
    so at d = 1 the result is LAPACK's bit for bit.
    """
    n, d = sym.shape[:2]
    if d != 2:
        try:
            return np.linalg.eigvalsh(sym)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise NumericalFailure(f"eigenvalue computation failed: {exc}") from exc
    a, c = sym[:, 0, 0].real / 2, sym[:, 1, 1].real / 2
    radius = np.hypot(a - c, np.abs(sym[:, 0, 1]))
    out = np.empty((n, 2))
    mid = np.add(a, c, out=out[:, 1])
    np.subtract(mid, radius, out=out[:, 0])
    mid += radius
    return out


def block_margins(stack: np.ndarray) -> BlockMargins:
    """Measure a (n, d, d) complex stack with one :func:`spectra` and no eigenvectors.

    Above d = 2, :func:`positive_parts` runs it only for a stack its certificate fails.
    """
    nonfinite = ~np.isfinite(stack).all(axis=(1, 2))
    if nonfinite.any():
        stack = np.where(nonfinite[:, None, None], 0.0, stack)
    sym = hermitian_part(stack)
    eigs = spectra(sym)
    # a trace norm beyond the float maximum sums to inf, which is still max(1, trace norm)
    with np.errstate(over="ignore"):
        scales = np.maximum(1.0, np.abs(eigs).sum(axis=1))
    return BlockMargins(nonfinite, hermiticity_defect(stack), eigs, scales, sym)


def positive_parts(
    stack: np.ndarray, error: Callable[[int, str], Exception]
) -> tuple[np.ndarray, np.ndarray | None]:
    """Hermitian parts and, when solved, spectra of a (n, d, d) stack that
    ``block_margins(stack).require(error)`` accepts; raises as it does otherwise.

    Above d = 2 one batched Cholesky of each Hermitian part shifted by
    (PSD_TOL - 2 d^2 eps) * max(1, tr) certifies the stack without a spectrum
    (None).  A factorization that completes is exact for a matrix within
    about d(d+1)/2 eps ||A|| of the shifted part (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 10); the 2 d^2 eps margin covers
    that and the spectrum rule's own rounding, and max(1, tr) is at most the
    rule's max(1, trace norm), so the certificate accepts only what the rule
    accepts.  A non-finite entry fails the Hermiticity test and an overflowed
    part gives a non-finite factor; neither is certified.  At d <= 2, where
    the closed-form spectrum costs less than a Cholesky, and whenever the
    certificate fails, block_margins decides.
    """
    d = stack.shape[-1]
    if d > 2 and hermiticity_defect(stack).max() <= HERMITICITY_TOL:
        sym = hermitian_part(stack)
        tol = PSD_TOL - 2 * d * d * np.finfo(float).eps
        shift = tol * np.maximum(1.0, np.einsum("nii->n", sym).real)
        # a part near the float maximum overflows here; its factor is then not finite
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                if np.isfinite(np.linalg.cholesky(sym + np.multiply.outer(shift, np.eye(d)))).all():
                    return sym, None
            except np.linalg.LinAlgError:
                pass
    margins = block_margins(stack)
    margins.require(error)
    return margins.sym, margins.eigenvalues


def kraus_gram(stack: np.ndarray) -> np.ndarray:
    """sum_a L_a^dag L_a per Kraus set of a (..., k, d_out, d_in) stack.

    The last three axes are one set and any axes before them are batch axes,
    as in :func:`kraus_defect`.
    """
    return np.einsum("...aji,...ajk->...ik", stack.conj(), stack)


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


def right_normalize(raw: np.ndarray, error: Callable[[int, str], Exception]) -> np.ndarray:
    """raw @ (sum L^dag L)^(-1/2) per Kraus set, which makes every set complete.

    Sets are laid out as in :func:`kraus_gram` and normalized by one batched
    eigh.  Raises ``error(set, problem)`` for the first set, in row-major order
    over the batch axes, whose sum is singular.
    """
    vals, vecs = np.linalg.eigh(kraus_gram(raw))
    singular = ~(vals[..., 0] > 1e-12 * vals[..., -1])
    if singular.any():
        raise error(int(singular.argmax()), "is singular")
    inverse_root = (vecs / np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    return raw @ inverse_root[..., None, :, :]


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
    sym = hermitian_part(arr)
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
    """:func:`_density_spectrum`'s check, through :func:`positive_parts`; the Hermitian part."""
    error = lambda _, problem: NotAState(f"{name} {problem}")
    sym = positive_parts(as_cmatrix(rho, name)[None], error)[0]
    require_unit(np.einsum("rii->r", sym).real, error)
    return sym[0]


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
