"""Weighted discrete classical sample spaces and Markov kernels.

A space is an ordered list of cells with strictly positive reference-measure
weights.  A kernel is column-stochastic in the mass convention: ``P[m, n]`` is
the total probability mass moved from source cell ``n`` to target cell ``m``,
so column sums equal one regardless of the cell weights.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import BadKernel, BadMap, BadRange, HybridError, SpaceMismatch

STOCHASTIC_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ClassicalSpace:
    """Finite cell list with positive weights; labels are metadata only."""

    weights: np.ndarray
    labels: tuple | None = None

    def __post_init__(self):
        w = _as_numeric(self.weights, float, "cell weights", BadRange)
        if w.ndim != 1 or w.size == 0:
            raise BadRange("a space needs at least one cell")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise BadRange("cell weights must be strictly positive and finite")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        if self.labels is not None:
            try:
                labels = tuple(self.labels)
            except TypeError as exc:
                raise BadRange(f"labels must be a collection, got {self.labels!r:.40}") from exc
            if len(labels) != w.size:
                raise BadRange(f"{len(labels)} labels for {w.size} cells")
            object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return int(self.weights.size)

    def __eq__(self, other) -> bool:
        # labels never affect computation, so they do not affect identity; apply,
        # distance and mix compare spaces on every call, most often a space with itself
        return self is other or (
            isinstance(other, ClassicalSpace) and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self) -> str:
        return f"ClassicalSpace(size={self.size})"


def _is_cell(i) -> bool:
    """Whether ``i`` can name or count cells: a Python or numpy integer, not a bool."""
    return isinstance(i, (int, np.integer)) and not isinstance(i, bool)


def _as_numeric(value, dtype: type, what: str, error: type[HybridError]) -> np.ndarray:
    """``np.asarray(value, dtype)``; raises ``error`` when numpy cannot read ``value`` as
    such an array, as for a string or ragged rows."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise error(f"{what} must be {dtype.__name__} numbers: {exc}") from exc


def _require_count(value, rule: str, error: type[HybridError]) -> int:
    """``value`` as a Python int when it is a positive integer under :func:`_is_cell`;
    else raises ``error(f"{rule}, got {value!r}")``.

    The rule for cell counts and dimension and branching arguments, which internal
    callers pass as numpy integers; :func:`errors.require_integer` is the stricter
    JSON rule.
    """
    if not _is_cell(value) or value < 1:
        raise error(f"{rule}, got {value!r:.40}")
    return int(value)


def counting_space(n_cells: int, labels: tuple | None = None) -> ClassicalSpace:
    """Counting-measure space: ``n_cells`` cells of weight one."""
    _require_count(n_cells, "need an integer count of at least one cell", BadRange)
    return ClassicalSpace(np.ones(n_cells), labels)


def discretize_interval(a: float, b: float, n_cells: int) -> ClassicalSpace:
    """Uniform partition of [a, b], ends finite reals, into cells of Lebesgue weight (b - a) / n."""
    try:  # each end is taken as a float; an int beyond the float range overflows
        lo, hi = (float(x) if isinstance(x, Real) else math.nan for x in (a, b))
    except OverflowError:
        lo = hi = math.nan
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise BadRange(f"invalid interval [{a!r:.40}, {b!r:.40}]")
    _require_count(n_cells, "need an integer count of at least one cell", BadRange)
    edges = np.linspace(lo, hi, n_cells + 1)
    labels = tuple((float(edges[i]), float(edges[i + 1])) for i in range(n_cells))
    return ClassicalSpace(np.full(n_cells, (hi - lo) / n_cells), labels)


@dataclass(frozen=True, eq=False)
class MarkovKernel:
    """Column-stochastic transition matrix between two spaces."""

    src: ClassicalSpace
    dst: ClassicalSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = _as_numeric(self.matrix, float, "kernel", BadKernel)
        if m.shape != (self.dst.size, self.src.size):
            raise BadKernel(
                f"kernel shape {m.shape} does not match spaces "
                f"({self.dst.size} x {self.src.size})"
            )
        report = validate_kernel(m)
        if not report.ok:
            raise BadKernel(report.message)
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class KernelReport:
    ok: bool
    column: int | None
    deviation: float
    message: str


def validate_kernel(kernel) -> KernelReport:
    """Check non-negativity and unit column sums; names the first bad column.

    Input that does not read as a real array raises BadKernel.
    """
    m = _as_numeric(kernel.matrix if isinstance(kernel, MarkovKernel) else kernel, float,
                    "kernel", BadKernel)
    if m.ndim != 2 or m.size == 0:
        return KernelReport(False, None, np.inf, "kernel must be a non-empty 2-d matrix")
    if not np.all(np.isfinite(m)):
        return KernelReport(False, None, np.inf, "kernel has non-finite entries")
    neg = m < -STOCHASTIC_TOL
    if neg.any():
        col = int(np.argwhere(neg)[0][1])
        dev = float(-m[neg].min())
        return KernelReport(False, col, dev, f"negative entry ({dev:.3e}) in column {col}")
    sums = m.sum(axis=0)
    dev = np.abs(sums - 1.0)
    if dev.max() > STOCHASTIC_TOL:
        col = int(dev.argmax())
        return KernelReport(
            False, col, float(dev[col]), f"column {col} sums to {float(sums[col])!r}, expected 1"
        )
    return KernelReport(True, None, float(dev.max()), "ok")


def kernel_from_map(space: ClassicalSpace, phi: Callable[[int], int] | Sequence[int]) -> MarkovKernel:
    """Deterministic kernel sending all mass of cell n to cell phi(n), an integer (not a bool)."""
    n = space.size
    if callable(phi):
        targets = [phi(i) for i in range(n)]
    elif isinstance(phi, Sequence) or (isinstance(phi, np.ndarray) and phi.ndim == 1):
        targets = list(phi)
    else:
        raise BadMap(f"a map is a callable or a sequence of {n} targets, got {phi!r:.40}")
    if len(targets) != n:
        raise BadMap(f"map has {len(targets)} targets for {n} cells")
    matrix = np.zeros((n, n))
    for src, dst in enumerate(targets):
        if not (_is_cell(dst) and 0 <= dst < n):
            raise BadMap(f"cell {src} maps to {dst!r:.40}, not an integer in 0..{n - 1}")
        matrix[dst, src] = 1.0
    return MarkovKernel(space, space, matrix)


def identity_kernel(space: ClassicalSpace) -> MarkovKernel:
    return MarkovKernel(space, space, np.eye(space.size))


def uniform_mixing_kernel(space: ClassicalSpace) -> MarkovKernel:
    """Complete classical mixing: every column is the uniform distribution."""
    n = space.size
    return MarkovKernel(space, space, np.full((n, n), 1.0 / n))


def compose_kernels(second: MarkovKernel, first: MarkovKernel) -> MarkovKernel:
    """Kernel of "apply first, then second"."""
    if first.dst != second.src:
        raise SpaceMismatch("destination space of the first kernel differs from source of the second")
    return MarkovKernel(first.src, second.dst, second.matrix @ first.matrix)
