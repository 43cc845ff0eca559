"""Hybrid operations in discrete Kraus-row form.

A channel is a table of Kraus rows: row r is a ``qdim_dst x qdim_src`` operator
that carries quantum content from source cell ``src[r]`` to target cell
``dst[r]``.  Operators act on cell masses, so the single validity condition is
per-source completeness: summing L^dag L over all rows of a source cell gives
the identity, independent of cell weights.  Each cell pair's map is one Choi
matrix (:func:`_run_chois`), which :func:`compose`, the dense transfer matrix
and :func:`interaction_defect` all read.  Rows are the only stored layout; the
:attr:`HybridChannel.transfer`, :attr:`HybridChannel.source_basis` and
:attr:`HybridChannel.target_groups` caches are derived from them and never
serialized.  A channel's first single-state apply runs the target groups, in
which each target's output sum_r L_r sigma L_r^dag is one matrix product; every
later apply, and any apply to a stack, reads the transfer matrix of a small
dense channel, else the source basis of a low-rank one, else the rows again.  A
channel maps Hermitian masses to Hermitian masses, so it is real-linear on
their real coordinates, and the transfer matrix is real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from typing import Iterator, Sequence

import numpy as np

from .classical import ClassicalSpace, MarkovKernel, _is_cell, _require_count
from .errors import (
    BadBasis,
    IncompleteChannel,
    IncompleteKraus,
    NotPSDCoefficients,
    NumericalFailure,
    ShapeMismatch,
    SpaceMismatch,
)
from .linalg import (
    hermitian_part, identity_defect, kraus_defect, kraus_grams, kron, right_normalize,
    trace_scaled,
)
from .rand import random_complex
from .state import HybridState, new_state

COMPLETENESS_TOL = 1e-9
COEFF_EIGENVALUE_CUTOFF = 1e-12
# apply() uses the dense transfer matrix when qdim_dst * qdim_src is at most
# this and every target cell reads every source cell.  At q = 2 one mat-vec
# with a matrix of 4x4 blocks is several times faster than the row form's two
# batched products of 2x2 blocks, each of which costs far more in per-matrix
# overhead than in arithmetic.  The matrix grows as q^4 per cell pair (32 MiB
# for an 8-cell channel at q = 16, where the mat-vec is several times slower),
# and building it, like any derived layout, costs more than it saves on a
# channel applied once, so a channel's first single-state apply runs its rows.
# A channel with a rowless cell pair takes the source basis or the rows instead.
TRANSFER_QDIM_PRODUCT_LIMIT = 4


@dataclass(frozen=True, eq=False)
class HybridChannel:
    """Validated Kraus-row channel; construct through :func:`from_blocks` or :func:`from_rows`.

    Rows are sorted by (dst, src), the rows of one cell pair keep the order they
    were given in, and the three row arrays are read-only.

    The derived caches are built on first use and kept: :attr:`target_groups`
    by the first single-state apply, :attr:`transfer` or :attr:`source_basis`
    by the second apply or the first to a stack of two or more states.  A
    channel is safe to share across threads: two threads that race on a cache
    compute the same read-only arrays (or the same None), and the apply
    counter is one ``itertools.count``, which a thread advances atomically.
    """

    src_space: ClassicalSpace
    dst_space: ClassicalSpace
    qdim_src: int
    qdim_dst: int
    dst: np.ndarray    # (R,) target cell of each row
    src: np.ndarray    # (R,) source cell of each row
    kraus: np.ndarray  # (R, qdim_dst, qdim_src)
    # applies so far; a derived layout is read from the second one on, or for a stack
    _applies: Iterator[int] = field(default_factory=count, init=False, repr=False, compare=False)

    def __repr__(self) -> str:
        return (
            f"HybridChannel({self.src_space.size}x{self.qdim_src} -> "
            f"{self.dst_space.size}x{self.qdim_dst})"
        )

    @cached_property
    def transfer(self) -> np.ndarray | None:
        """Real dense transfer matrix, built on first use; None if some cell pair has no rows.

        Cell pair (m, n) maps sigma_n by T_mn = sum_r L_r (x) conj(L_r) over its
        rows, its Choi matrix realigned: vec(sigma'_m) gains T_mn @ vec(sigma_n)
        with row-major vec.  The channel maps Hermitian masses to Hermitian
        masses, so on them it is real-linear in R = Re sigma + Im sigma, which
        holds all of sigma: sigma = (R + R^T) / 2 + i (R - R^T) / 2.  Block (m, n)
        is the real M_mn[(i, k), (j, l)] = (Re T_mn[(i, k), (j, l)] + Im T_mn[(i, k),
        (l, j)]) / 2, so r = sum_n M_mn vec(R_n) is half of R'_m and sigma'_m =
        r + r^T + i (r - r^T) is Hermitian bit for bit; at qdim 1 the block is
        P(m|n) / 2.  The float64 matrix is (n_dst * qdim_dst^2, n_src * qdim_src^2),
        half the bytes of T, so one real mat-vec over all source vectors applies
        the channel.  It is read-only, starts at a 32-byte boundary and is not
        serialized.
        """
        q_dst, q_src = self.qdim_dst, self.qdim_src
        n_dst, n_src = self.dst_space.size, self.src_space.size
        pairs, choi = _run_chois(self.kraus, self.dst * n_src + self.src)
        if pairs.size != n_dst * n_src:
            return None
        table = _aligned_empty((n_dst * q_dst * q_dst, n_src * q_src * q_src), float)
        # T[(m, i, k), (n, j, l)] = C_mn[(i, j), (k, l)]
        t = choi.reshape(n_dst, n_src, q_dst, q_src, q_dst, q_src).transpose(0, 2, 4, 1, 3, 5)
        blocks = table.reshape(n_dst, q_dst, q_dst, n_src, q_src, q_src)
        np.add(t.real, t.imag.swapaxes(4, 5), out=blocks)
        table *= 0.5  # exact: a power of two
        table.flags.writeable = False
        return table

    @cached_property
    def source_basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Per-source operator basis (left, right, gram), or None where the rows cost less.

        Source n's rows span operators with an orthonormal basis B_n1..B_ns,
        zero-padded to the largest rank s over sources, and row r equals
        sum_j c_rj B_nj.  Then sigma'_m = sum_n sum_jl G_mn[j, l] B_nj sigma_n
        B_nl^dag with G_mn = sum c_r c_r^dag over the rows of pair (m, n): the
        paper's k_ab(m, n) form with the fewest operators.  ``left``
        (n_src, s * qdim_dst, qdim_src) stacks each source's B_nj, ``right`` is
        its conjugate transpose and ``gram`` (n_dst, n_src * s * s) holds G.

        None, before any factorisation, when even rank 1 at every source would
        cost no fewer complex multiply-adds than the rows.  Otherwise each
        source's rows are factored by one SVD with numpy.linalg.matrix_rank's
        default rank cutoff, and the result is None when the form at that rank
        costs no less than the rows or basis times coefficients misses a row
        by more than that cutoff.  The arrays are read-only and not serialized.
        Like :attr:`transfer`, it is read from a channel's second apply on, or
        by an apply to a stack of two or more states.
        """
        n_src, n_dst, rows = self.src_space.size, self.dst_space.size, self.src.size
        row_cost = rows * _product_cost(self, 1)
        if _basis_cost(self, 1) >= row_cost:
            return None
        # each source's rows, vectorized and zero-padded to the most rows any source has;
        # a complete channel has rows at every source cell, so run n is source cell n
        order = np.argsort(self.src, kind="stable")
        _, src, slot, stack = _padded_runs(self.kraus[order].reshape(rows, -1), self.src[order])
        u, sv, vh = np.linalg.svd(stack, full_matrices=False)
        cutoff = sv[:, :1] * max(stack.shape[1:]) * np.finfo(float).eps
        rank = int((sv > cutoff).sum(axis=1).max())
        if _basis_cost(self, rank) >= row_cost:
            return None
        coeffs, basis = u[:, :, :rank] * sv[:, None, :rank], vh[:, :rank]
        if (np.abs(coeffs @ basis - stack).max(axis=(1, 2)) > cutoff[:, 0]).any():
            return None
        c = np.empty((rows, rank), dtype=complex)
        c[order] = coeffs[src, slot]
        pairs = self.dst * n_src + self.src
        gram = _sum_runs(c[:, :, None] * c.conj()[:, None, :], pairs, n_dst * n_src)
        left = basis.reshape(n_src, rank * self.qdim_dst, self.qdim_src)
        out = (left, left.conj().swapaxes(1, 2).copy(), gram.reshape(n_dst, -1))
        for arr in out:
            arr.flags.writeable = False
        return out

    @cached_property
    def target_groups(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]:
        """Target cells grouped by how many rows they hold: (cells, src, left, adjoint) per count k.

        The t target ``cells`` of a group hold k rows each, and ``src`` (t, k)
        is their rows' source cells.  ``left`` (t, qdim_dst, k * qdim_src)
        puts each target's rows side by side and ``adjoint`` (t, k, qdim_src,
        qdim_dst) holds their conjugate transposes, so with Y_r = sigma_src[r]
        L_r^dag stacked over the k rows, sigma'_m = left_m @ Y sums the rows in
        one product.  A channel whose every target holds the same k rows, as
        random_channel, a full-kernel non_interacting channel and every
        lowered LOCC round do, is one group made by reshapes; a target without
        rows is in no group.  The arrays are read-only and not serialized.
        """
        q_dst, q_src = self.qdim_dst, self.qdim_src
        rows, n_dst = self.dst.size, self.dst_space.size
        k = rows // n_dst
        if k and (self.dst == np.arange(rows) // k).all():
            kraus = self.kraus.reshape(n_dst, k, q_dst, q_src)
            runs = [(np.arange(n_dst), self.src.reshape(n_dst, k), kraus)]
        else:
            counts = np.bincount(self.dst, minlength=n_dst)
            first = np.cumsum(counts) - counts
            runs = []
            for k in np.unique(counts[counts > 0]):
                cells = np.flatnonzero(counts == k)
                index = first[cells, None] + np.arange(k)
                runs.append((cells, self.src[index], self.kraus[index]))
        groups = []
        for cells, src, kraus in runs:
            left = kraus.transpose(0, 2, 1, 3).reshape(cells.size, q_dst, -1)
            groups.append((cells, src, left, kraus.conj().swapaxes(2, 3)))
            for arr in groups[-1]:
                arr.flags.writeable = False
        return tuple(groups)


def _aligned_empty(shape: tuple[int, ...], dtype) -> np.ndarray:
    """Uninitialized array of ``dtype`` whose data starts at a 32-byte boundary.

    A mat-vec with a 256 x 256 complex matrix that started 16 bytes past such
    a boundary took about 20% longer (OpenBLAS, one thread, x86-64); the real
    transfer matrix keeps the same start.
    """
    dtype = np.dtype(dtype)
    size = int(np.prod(shape)) * dtype.itemsize
    raw = np.empty(size + 32, dtype=np.uint8)
    start = -raw.ctypes.data % 32
    return raw[start : start + size].view(dtype).reshape(shape)


def _product_cost(channel: HybridChannel, rank: int) -> int:
    """Complex multiply-adds of B sigma for ``rank`` operators B, then of every (B sigma) B'^dag."""
    q_dst, q_src = channel.qdim_dst, channel.qdim_src
    return rank * q_dst * q_src * (q_src + rank * q_dst)


def _basis_cost(channel: HybridChannel, rank: int) -> int:
    """Complex multiply-adds of a source_basis apply at padded per-source rank ``rank``."""
    n_src, n_dst = channel.src_space.size, channel.dst_space.size
    return n_src * _product_cost(channel, rank) + n_dst * n_src * rank**2 * channel.qdim_dst**2


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Indices where a sorted key array starts a new run of equal keys; none when it is empty."""
    return np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1]))[: keys.size])


def pair_starts(channel: HybridChannel) -> np.ndarray:
    """Index of the first row of each cell pair (rows are sorted by (dst, src))."""
    return run_starts(channel.dst * channel.src_space.size + channel.src)


def _padded_runs(values: np.ndarray, keys: np.ndarray):
    """Runs of equal sorted keys as one stack: (starts, run, slot, padded).

    ``starts`` is each run's first index, ``run`` and ``slot`` place value r
    at padded[run[r], slot[r]], and ``padded`` (runs, longest run, ...) is
    zero in the slots past a run's end.
    """
    starts = run_starts(keys)
    sizes = np.concatenate((starts[1:], [keys.size])) - starts
    run = np.repeat(np.arange(starts.size), sizes)
    slot = np.arange(keys.size) - starts[run]
    padded = np.zeros((starts.size, sizes.max(initial=0), *values.shape[1:]), dtype=values.dtype)
    padded[run, slot] = values
    return starts, run, slot, padded


def _run_chois(kraus: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First row of each run of equal sorted keys, and the run's Choi matrix V^T V*.

    V stacks the run's rows L_r vectorized row-major, zero-padded to the
    longest run (padding adds nothing), so C[(i, j), (k, l)] = sum_r L_r[i, j]
    conj(L_r[k, l]): the per-pair map of the paper's Kraus theorem.
    """
    starts, _, _, padded = _padded_runs(kraus.reshape(-1, kraus.shape[1] * kraus.shape[2]), keys)
    return starts, padded.swapaxes(1, 2) @ padded.conj()


def _sum_runs(values: np.ndarray, keys: np.ndarray, size: int) -> np.ndarray:
    """(size, ...) array whose entry k sums the rows of ``values`` with key k; keys sorted."""
    out = np.zeros((size,) + values.shape[1:], dtype=values.dtype)
    starts = run_starts(keys)
    out[keys[starts]] = np.add.reduceat(values, starts, axis=0)
    return out


def _defects_per_source(channel: HybridChannel) -> np.ndarray:
    """Max-entry deviation of sum L^dag L from identity, per source cell.

    A cell without rows deviates by exactly 1, so only the cells with rows are
    summed: a rowless channel allocates no sums and no identity.
    """
    defects = np.ones(channel.src_space.size)
    if channel.src.size:
        order = np.argsort(channel.src, kind="stable")
        src = channel.src[order]
        starts = run_starts(src)
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries: see kraus_defect
            totals = np.add.reduceat(kraus_grams(channel.kraus[order]), starts, axis=0)
        defects[src[starts]] = identity_defect(totals)
    return defects


def completeness_defect(channel: HybridChannel) -> float:
    """Max entrywise deviation of sum L^dag L from identity over source cells."""
    return float(_defects_per_source(channel).max())


def interaction_defect(channel: HybridChannel) -> float:
    """Max entrywise deviation of every cell pair's Choi matrix C_mn from P(m|n) C_0.

    C_0 = sum_m C_m0 is source cell 0's map and P(m|n) the projection of C_mn
    onto it; zero for non-interacting subsystems.  The per-pair map T_mn is a
    fixed permutation of C_mn, so measuring either gives the same value; the
    real transfer matrix, which mixes T_mn's real and imaginary parts, is
    neither read nor built.
    """
    pairs, chois = _run_chois(channel.kraus, channel.dst * channel.src_space.size + channel.src)
    c0 = chois[channel.src[pairs] == 0].sum(axis=0)
    weights = chois.reshape(pairs.size, -1) @ c0.conj().ravel() / np.vdot(c0, c0).real
    return float(np.abs(chois - weights[:, None, None] * c0).max())


def _unchecked_from_rows(
    src_space: ClassicalSpace,
    dst_space: ClassicalSpace,
    qdim_src: int,
    qdim_dst: int,
    dst,
    src,
    kraus,
) -> HybridChannel:
    """:func:`from_rows` without the completeness check.

    Coerces the rows, stably sorts them by (dst, src), checks integer cells, shapes,
    the cell range and finiteness, and makes the three arrays read-only.  Only a caller
    that has proven every source cell complete by other means may use it.
    """
    for qdim in (qdim_src, qdim_dst):
        _require_count(qdim, "quantum dimensions must be positive integers", ShapeMismatch)
    dst, src = np.asarray(dst), np.asarray(src)
    if any(a.size and a.dtype.kind not in "iu" for a in (dst, src)):  # 0.7 would cast to 0
        raise ShapeMismatch(f"cell indices must be integers, got {dst.dtype} and {src.dtype}")
    dst, src = dst.astype(np.intp, copy=False), src.astype(np.intp, copy=False)
    kraus = np.asarray(kraus, dtype=complex)
    if kraus.size == 0:  # no rows, whatever the given shape
        try:
            kraus = kraus.reshape(0, qdim_dst, qdim_src)
        except ValueError as exc:  # numpy refuses a shape whose byte count overflows
            raise ShapeMismatch(
                f"Kraus rows of shape ({qdim_dst}, {qdim_src}) do not fit in an array"
            ) from exc
    rows = kraus.shape[0] if kraus.ndim == 3 else -1
    if kraus.shape[1:] != (qdim_dst, qdim_src) or dst.shape != (rows,) or src.shape != (rows,):
        raise ShapeMismatch(
            f"{dst.shape} targets, {src.shape} sources and Kraus rows of shape "
            f"{kraus.shape} do not form (R,), (R,), (R, {qdim_dst}, {qdim_src})"
        )
    order = np.lexsort((src, dst))
    dst, src, kraus = dst[order], src[order], kraus[order]
    outside = (dst < 0) | (dst >= dst_space.size) | (src < 0) | (src >= src_space.size)
    if outside.any():
        r = int(outside.argmax())
        raise ShapeMismatch(f"block key ({dst[r]}, {src[r]}) outside the cell grid")
    nonfinite = ~np.isfinite(kraus).all(axis=(1, 2))
    if nonfinite.any():
        r = int(nonfinite.argmax())
        raise NumericalFailure(f"blocks at ({dst[r]}, {src[r]}) have non-finite entries")
    for arr in (dst, src, kraus):
        arr.flags.writeable = False
    return HybridChannel(src_space, dst_space, qdim_src, qdim_dst, dst, src, kraus)


def from_rows(
    src_space: ClassicalSpace,
    dst_space: ClassicalSpace,
    qdim_src: int,
    qdim_dst: int,
    dst,
    src,
    kraus,
) -> HybridChannel:
    """Build a channel from parallel rows (target cell, source cell, Kraus operator).

    Rows are stably sorted by (dst, src) and per-source completeness is
    verified; IncompleteChannel names the first source cell that fails.  An
    entry so large that sum L^dag L overflows gives an infinite deviation, so
    it is refused too, without a numpy warning.
    """
    channel = _unchecked_from_rows(src_space, dst_space, qdim_src, qdim_dst, dst, src, kraus)
    defects = _defects_per_source(channel)
    bad = np.flatnonzero(defects > COMPLETENESS_TOL)
    if bad.size:
        raise IncompleteChannel(int(bad[0]), float(defects[bad[0]]))
    return channel


def from_blocks(
    src_space: ClassicalSpace,
    dst_space: ClassicalSpace,
    qdim_src: int,
    qdim_dst: int,
    blocks,
) -> HybridChannel:
    """Build a channel from {(m, n): [L, ...]}, m and n integer cells, and verify completeness."""
    dst: list[int] = []
    src: list[int] = []
    stacks = []
    for key, stack in blocks.items():
        if not (isinstance(key, tuple) and len(key) == 2 and all(map(_is_cell, key))):
            raise ShapeMismatch(f"block key {key!r:.40} is not a pair of integer cells")
        m, n = key
        stack = np.asarray(stack, dtype=complex)
        if stack.ndim == 2:
            stack = stack[None]
        if stack.ndim != 3 or stack.shape[1:] != (qdim_dst, qdim_src):
            raise ShapeMismatch(
                f"blocks at ({m}, {n}) have shape {stack.shape}, "
                f"expected (k, {qdim_dst}, {qdim_src})"
            )
        dst += [m] * stack.shape[0]
        src += [n] * stack.shape[0]
        stacks.append(stack)
    kraus = np.concatenate(stacks) if stacks else ()
    return from_rows(src_space, dst_space, qdim_src, qdim_dst, dst, src, kraus)


def identity_channel(space: ClassicalSpace, qdim: int) -> HybridChannel:
    _require_count(qdim, "quantum dimensions must be positive integers", ShapeMismatch)
    cells = np.arange(space.size)
    eye = np.broadcast_to(np.eye(qdim, dtype=complex), (space.size, qdim, qdim))
    return from_rows(space, space, qdim, qdim, cells, cells, eye)


def apply(channel: HybridChannel, state: HybridState) -> HybridState:
    """Transform cell masses: sigma'_m = sum_{r: dst[r] = m} L_r sigma_{src[r]} L_r^dag.

    The one-state case of :func:`_apply_stack`, validated by ``new_state``.
    """
    if channel.src_space != state.space or channel.qdim_src != state.qdim:
        raise SpaceMismatch(
            f"channel source ({channel.src_space.size} cells, qdim {channel.qdim_src}) "
            f"does not match state ({state.space.size} cells, qdim {state.qdim})"
        )
    return new_state(channel.dst_space, _apply_stack(channel, state.masses[None])[0])


def _apply_stack(channel: HybridChannel, masses: np.ndarray) -> np.ndarray:
    """Unvalidated output masses (B, n_dst, q_dst, q_dst) of a (B, n_src, q_src, q_src) mass stack.

    The masses must be Hermitian; masses from ``new_state`` or ``linalg.densities``,
    real mixtures of those and earlier outputs are.  A channel's first
    single-state apply runs the rows in :attr:`HybridChannel.target_groups`:
    one batched product forms every sigma_src[r] L_r^dag and a second
    multiplies each target's rows, side by side, into that stack, so a target
    without rows stays exactly zero.  Every later apply, and any apply to a
    stack of two or more states, reads the cached real
    :attr:`HybridChannel.transfer` matrix when qdim_dst * qdim_src <=
    TRANSFER_QDIM_PRODUCT_LIMIT and every target reads every source: one
    mat-vec per state on Re sigma + Im sigma, so an anti-Hermitian residue of
    size d moves the output by O(d), and the output is Hermitian bit for bit.
    Otherwise it reads :attr:`HybridChannel.source_basis`, two batched
    products for every B_nj sigma_n B_nl^dag and a third with the coefficient
    Grams, or, where that is None, the rows.  Each form broadcasts the channel
    over the stack, so a state's output does not depend on the others in it.
    """
    q, n_dst, b = channel.qdim_dst, channel.dst_space.size, masses.shape[0]
    if next(channel._applies) or b > 1:
        small = q * channel.qdim_src <= TRANSFER_QDIM_PRODUCT_LIMIT
        if small and (table := channel.transfer) is not None:
            # one real gemv per state on R = Re sigma + Im sigma (a single gemm over the
            # stack rounds differently); half of R' is r, so sigma' = r + r^T + i (r - r^T)
            r = (table @ (masses.real + masses.imag).reshape(b, -1, 1)).reshape(b, n_dst, q, q)
            r_t, out = r.swapaxes(2, 3), np.empty((b, n_dst, q, q), dtype=complex)
            np.add(r, r_t, out=out.real)
            np.subtract(r, r_t, out=out.imag)
            return out
        if (form := channel.source_basis) is not None:
            left, right, gram = form
            s = left.shape[1] // q
            # (n, j q + a, l q + b) holds (B_nj sigma_n B_nl^dag)[a, b]; reorder to (n, j, l, a, b)
            products = (left @ masses @ right).reshape(b, -1, s, q, s, q).transpose(0, 1, 2, 4, 3, 5)
            return (gram @ products.reshape(b, -1, q * q)).reshape(b, n_dst, q, q)
    out = np.zeros((b, n_dst, q, q), dtype=complex)
    for cells, src, left, adjoint in channel.target_groups:
        t, k = src.shape
        stacked = (masses[:, src] @ adjoint).reshape(b, t, k * channel.qdim_src, q)
        if t == n_dst:  # every target holds k rows: this is the only group
            return left @ stacked
        out[:, cells] = left @ stacked
    return out


def compose(second: HybridChannel, first: HybridChannel) -> HybridChannel:
    """Channel equal to "apply first, then second".

    Rows of the two channels are joined on the intermediate cell m; for each
    cell pair (k, n) the products B(k, m) A(m, n) are stacked as row vectors V
    and the Choi matrix V^T V* is factored back into Kraus rows.  A cell-pair
    map has Kraus rank at most q_dst * q_src, so no pair ever holds more rows.
    """
    if first.dst_space != second.src_space or first.qdim_dst != second.qdim_src:
        raise SpaceMismatch("destination of the first channel does not match source of the second")
    q_dst, q_src = second.qdim_dst, first.qdim_src
    # first's rows are sorted by their target m, so each m owns one contiguous
    # run; pair every row of second with the run of first at its source m
    count = np.bincount(first.dst, minlength=first.dst_space.size)
    reps = count[second.src]
    i = np.repeat(np.arange(second.src.size), reps)
    offset = np.arange(i.size) - np.repeat(np.cumsum(reps) - reps, reps)
    j = (np.cumsum(count) - count)[second.src[i]] + offset
    products = second.kraus[i] @ first.kraus[j]

    order = np.lexsort((first.src[j], second.dst[i]))
    pair_dst, pair_src = second.dst[i][order], first.src[j][order]
    starts, choi = _run_chois(products[order], pair_dst * first.src_space.size + pair_src)
    dst, src, factors = _psd_factors(choi, pair_dst[starts], pair_src[starts])
    return from_rows(
        first.src_space, second.dst_space, q_src, q_dst, dst, src, factors.reshape(-1, q_dst, q_src)
    )


def _psd_factors(mats: np.ndarray, dst: np.ndarray, src: np.ndarray):
    """Rows f_g with mats[i] = sum_g f_g f_g^dag, as (dst, src, (G, b) factors).

    The Hermitian part of each matrix is eigendecomposed and f_g is
    sqrt(lambda_g) times the eigenvector; eigenvalues at or below
    COEFF_EIGENVALUE_CUTOFF of the largest are dropped (the factorization is
    not unique and minimal rank is not needed), so a matrix may yield no rows.
    A matrix that fails the positive rule at COMPLETENESS_TOL (``linalg.trace_scaled``)
    raises NotPSDCoefficients for the first such cell pair (dst[i], src[i]).
    """
    vals, vecs = np.linalg.eigh(hermitian_part(mats))
    negative = ~(trace_scaled(vals[:, 0], vals) >= -COMPLETENESS_TOL)
    if negative.any():
        i = int(negative.argmax())
        raise NotPSDCoefficients(int(dst[i]), int(src[i]))
    keep = vals > COEFF_EIGENVALUE_CUTOFF * np.maximum(vals[:, -1:], 0.0)
    pair, g = np.nonzero(keep)
    return dst[pair], src[pair], np.sqrt(vals[pair, g])[:, None] * vecs[pair, :, g]


def non_interacting(kernel: MarkovKernel, kraus: Sequence[np.ndarray]) -> HybridChannel:
    """Channel of non-interacting subsystems: rows sqrt(P[m,n]) * L_a for P[m,n] > 0.

    The classical marginal evolves by the kernel alone, the quantum marginal by
    the Kraus set alone, and product states stay product states.
    """
    stack = np.asarray(kraus, dtype=complex)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or not stack.size:
        raise IncompleteKraus(message=f"Kraus set must stack to (k, d, d), got shape {stack.shape}")
    q = stack.shape[1]
    defect = kraus_defect(stack)
    if defect > COMPLETENESS_TOL:
        raise IncompleteKraus(float(defect))

    p = kernel.matrix
    m, n = np.nonzero(p > 0.0)
    k = stack.shape[0]
    kraus = (np.sqrt(p[m, n])[:, None, None, None] * stack).reshape(-1, q, q)
    return from_rows(kernel.src, kernel.dst, q, q, np.repeat(m, k), np.repeat(n, k), kraus)


def from_coeff_kernel(
    src_space: ClassicalSpace,
    dst_space: ClassicalSpace,
    basis: Sequence[np.ndarray],
    coeffs,
) -> HybridChannel:
    """Channel from an operator basis and per-cell-pair coefficient matrices.

    ``coeffs[m, n]`` is the matrix k_{ab}(m, n) weighting L_a sigma L_b^dag.
    Each Hermitized coefficient matrix must be PSD; its eigendecomposition
    yields the Kraus rows sqrt(lambda) * sum_a v[a] L_a (see _psd_factors).
    """
    mats = np.asarray(basis, dtype=complex)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or not mats.size:
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

    m, n = np.divmod(np.arange(dst_space.size * src_space.size), src_space.size)
    dst, src, factors = _psd_factors(k.reshape(-1, b, b), m, n)
    kraus = (factors @ mats.reshape(b, d * d)).reshape(-1, d, d)
    return from_rows(src_space, dst_space, d, d, dst, src, kraus)


def extend_with_ancilla(channel: HybridChannel, ancilla_dim: int) -> HybridChannel:
    """Tensor every Kraus row with the identity on a non-interacting ancilla."""
    _require_count(ancilla_dim, "ancilla dimension must be positive and an integer", ShapeMismatch)
    if ancilla_dim == 1:
        return channel
    q_src, q_dst = channel.qdim_src * ancilla_dim, channel.qdim_dst * ancilla_dim
    return from_rows(
        channel.src_space, channel.dst_space, q_src, q_dst, channel.dst, channel.src,
        kron(channel.kraus, np.eye(ancilla_dim)),
    )


def random_channel(
    src_space: ClassicalSpace,
    dst_space: ClassicalSpace,
    qdim_src: int,
    qdim_dst: int,
    branching: int,
    seed,
) -> HybridChannel:
    """Seeded random channel; each source cell's rows are right-normalized together."""
    for qdim in (qdim_src, qdim_dst):
        _require_count(qdim, "quantum dimensions must be positive integers", ShapeMismatch)
    _require_count(branching, "branching must be at least 1 and an integer", ShapeMismatch)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n_src, n_dst = src_space.size, dst_space.size
    raw = np.stack([random_complex(rng, (n_dst * branching, qdim_dst, qdim_src))
                    for _ in range(n_src)])
    error = lambda n, problem: NumericalFailure(f"normalizer for source cell {n} {problem}")
    # (n, m, a, i, j) -> rows ordered by (m, n, a)
    kraus = right_normalize(raw, error).reshape(n_src, n_dst, branching, qdim_dst, qdim_src)
    kraus = kraus.swapaxes(0, 1).reshape(-1, qdim_dst, qdim_src)
    dst = np.repeat(np.arange(n_dst), n_src * branching)
    src = np.tile(np.repeat(np.arange(n_src), branching), n_dst)
    return from_rows(src_space, dst_space, qdim_src, qdim_dst, dst, src, kraus)
