"""Simple hybrid classical-quantum states.

A state stores one positive ``qdim x qdim`` mass block per classical cell.
Block ``n`` is the cell mass (reference weight times the local density value),
so the blocks sum to trace one and all channel algebra is weight-free.  The
cell weights only re-enter when converting masses to densities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .classical import ClassicalSpace, _as_numeric, _is_cell, _require_count
from .errors import (
    BadEffect,
    BadEvent,
    DimensionMismatch,
    HybridError,
    NotAState,
    NotNormalized,
    NotPositive,
    SpaceMismatch,
    ZeroMassCell,
    ZeroProbability,
)
from .linalg import (
    PSD_TOL, TRACE_TOL, block_margins, hermitian_part, kron, positive_parts, spectra,
    trace_scaled, _require_density,
)
from .rand import random_complex

# Below ZERO_MASS a cell or conditioning probability counts as zero.
ZERO_MASS = 1e-12


@dataclass(frozen=True, eq=False)
class HybridState:
    """Validated hybrid state; construct through :func:`new_state`.

    ``_eigenvalues`` holds the masses' spectra when validation solved them (at
    qdim <= 2, or when the Cholesky certificate did not settle a block);
    otherwise :attr:`eigenvalues` solves them on first read.
    """

    space: ClassicalSpace
    qdim: int
    masses: np.ndarray  # shape (cells, qdim, qdim)
    _eigenvalues: np.ndarray | None = field(default=None, repr=False)

    @property
    def eigenvalues(self) -> np.ndarray:
        """(cells, qdim) ascending eigenvalues of each mass, read-only; one :func:`spectra`
        on first read, cached after."""
        if self._eigenvalues is None:
            eigs = spectra(self.masses)
            eigs.flags.writeable = False
            object.__setattr__(self, "_eigenvalues", eigs)
        return self._eigenvalues

    def __repr__(self) -> str:
        return f"HybridState(cells={self.space.size}, qdim={self.qdim})"


@dataclass(frozen=True, eq=False)
class Effect:
    """Positive operator E with I - E also positive."""

    matrix: np.ndarray

    def __post_init__(self):
        try:
            arr = np.asarray(self.matrix, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise BadEffect(str(exc)) from exc
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise BadEffect(f"effect must be a square matrix, got shape {arr.shape}")
        require_effects(arr[None], lambda _, problem: BadEffect(f"effect {problem}"))
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


@np.errstate(over="ignore")  # a trace norm near the float maximum: see trace_scaled
def require_effects(stack: np.ndarray, error: Callable[[int, str], Exception]) -> None:
    """Raise ``error(block, problem)`` at the lowest failing block of a (n, d, d) effect stack.

    The one effect rule: every block finite, Hermitian and positive
    (``BlockMargins.require``), then the positive rule on 1 - lambda_max (``trace_scaled``).
    """
    _, eigs = block_margins(stack).require(error)
    top = eigs[:, -1]
    above = ~(trace_scaled(1.0 - top, eigs) >= -PSD_TOL)
    if above.any():
        block = int(above.argmax())
        raise error(block, f"has eigenvalue {float(top[block])!r} above one")


def as_effect(e) -> Effect:
    return e if isinstance(e, Effect) else Effect(e)


class ClassicalMarginal(NamedTuple):
    masses: np.ndarray     # p_n = tr(sigma_n)
    densities: np.ndarray  # f_n = p_n / mu_n


class Conditioned(NamedTuple):
    prob: float
    state: HybridState


def new_state(space: ClassicalSpace, masses) -> HybridState:
    """Validate per-cell masses into a hybrid state.

    Raises NotPositive, naming the lowest failing cell, for a non-finite, then a
    non-Hermitian, then a non-PSD block (``BlockMargins.worst``), and
    NotNormalized when the total trace is off by more than the tolerance.
    The masses take ``linalg.positive_parts``: one whole-stack Hermiticity
    screen, then at qdim <= 2 the positive rule on the closed-form spectra,
    which are kept as ``eigenvalues``, and above 2 a shifted Cholesky, which
    leaves the spectrum to be solved on first read of ``eigenvalues``.  The
    per-cell margins are measured only to name a failing cell.
    """
    arr = _as_numeric(masses, complex, "masses", DimensionMismatch)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or arr.shape[1] == 0:
        raise DimensionMismatch(f"masses must stack to (cells, q, q), got shape {arr.shape}")
    if arr.shape[0] != space.size:
        raise DimensionMismatch(f"{arr.shape[0]} mass blocks for {space.size} cells")
    sym, eigs = positive_parts(
        arr, lambda cell, problem: NotPositive(cell, f"mass block at cell {cell} {problem}")
    )
    total = total_trace(sym)
    if abs(total - 1.0) > TRACE_TOL:
        raise NotNormalized(total)

    sym.flags.writeable = False
    if eigs is not None:
        eigs.flags.writeable = False
    return HybridState(space, int(arr.shape[1]), sym, eigs)


def total_trace(masses: np.ndarray) -> float:
    """Sum of the traces of a (cells, q, q) mass stack."""
    return float(np.einsum("nii->", masses).real)


def is_probability_vector(p: np.ndarray) -> bool:
    """Whether p >= -ZERO_MASS entrywise and sums to one within TRACE_TOL; NaN fails."""
    return bool(np.all(p >= -ZERO_MASS) and abs(p.sum() - 1.0) <= TRACE_TOL)


def _cell_index(space: ClassicalSpace, cell: int) -> int:
    """``cell`` as an int; BadEvent unless it is an integer (not a bool) in 0..size-1."""
    if not _is_cell(cell):
        raise BadEvent(f"cell must be an integer index, got {cell!r:.40}")
    if not 0 <= cell < space.size:
        raise BadEvent(f"cell {cell} outside 0..{space.size - 1}")
    return int(cell)


def _event_indices(state: HybridState, event: Iterable[int]) -> np.ndarray:
    """Sorted distinct cells of an event; each entry a Python or numpy integer, not a bool."""
    try:
        cells = list(event)
    except TypeError as exc:
        raise BadEvent(f"event must be a collection of cells, got {event!r:.120}") from exc
    if not all(_is_cell(i) for i in cells):
        raise BadEvent(f"event entries must be integer cell indices, got {cells!r:.120}")
    if cells and (min(cells) < 0 or max(cells) >= state.space.size):
        raise BadEvent(f"event contains cells outside 0..{state.space.size - 1}")
    return np.unique(np.array(cells, dtype=np.intp))


_ONE_SEGMENT = np.zeros(1, dtype=np.intp)
_ONE_SEGMENT.flags.writeable = False


def _probability_segments(
    masses: np.ndarray, effects: np.ndarray, events: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """w(A_s, E_s) = sum over cells n in A_s of tr(sigma_n E_s), per segment.

    ``masses`` (N, q, q) hold one state's cells per segment, segment s from
    ``starts[s]`` up to the next start (each segment non-empty); ``effects``
    (S, q, q) hold one effect per segment and the boolean ``events`` (N,) mark
    the cells of each segment's event.  Inputs are taken as already checked.
    """
    sizes = np.append(starts[1:], masses.shape[0]) - starts
    traces = np.einsum("nij,nji->n", masses, np.repeat(effects, sizes, axis=0))
    return np.add.reduceat(np.where(events, traces.real, 0.0), starts)


def probability(state: HybridState, event: Iterable[int], effect) -> float:
    """w(A, E) = sum over cells in A of tr(sigma_n E).

    The event is a collection of Python or numpy integer cells, so a boolean
    mask or a float index raises BadEvent; the effect's dimension must be qdim.
    """
    eff = as_effect(effect)
    if eff.dim != state.qdim:
        raise BadEffect(f"effect dimension {eff.dim} does not match qdim {state.qdim}")
    events = np.zeros(state.space.size, dtype=bool)
    events[_event_indices(state, event)] = True
    return float(_probability_segments(state.masses, eff.matrix[None], events, _ONE_SEGMENT)[0])


def classical_marginal(state: HybridState) -> ClassicalMarginal:
    p = np.einsum("nii->n", state.masses).real
    return ClassicalMarginal(p, p / state.space.weights)


def quantum_marginal(state: HybridState) -> np.ndarray:
    return state.masses.sum(axis=0)


def conditional_quantum(state: HybridState, cell: int) -> np.ndarray:
    """Density matrix of the quantum side given classical cell ``cell``."""
    cell = _cell_index(state.space, cell)
    p = float(np.trace(state.masses[cell]).real)
    if p <= ZERO_MASS:
        raise ZeroMassCell(f"cell {cell} carries mass {p!r}")
    return state.masses[cell] / p


def _canonical_signs(diffs: np.ndarray) -> np.ndarray:
    # fixes the sign of each Hermitian difference (that of its first nonzero
    # real part, else of its first nonzero imaginary part) so the trace norms
    # below are computed from bit-identical input for either argument order
    flat = diffs.reshape(diffs.shape[0], -1)
    rows = np.arange(flat.shape[0])
    re = flat.real[rows, (flat.real != 0).argmax(axis=1)]
    im = flat.imag[rows, (flat.imag != 0).argmax(axis=1)]
    return np.where(np.where(re != 0, re, im) < 0, -1.0, 1.0)


def distance(w1: HybridState, w2: HybridState) -> float:
    """Integrated trace-norm metric (|eigenvalues| summed over cells); in [0, 2], exactly symmetric."""
    if w1.space != w2.space or w1.qdim != w2.qdim:
        raise SpaceMismatch("states live on different spaces")
    return _distance(w1.masses, w2.masses)


def _distance(masses1: np.ndarray, masses2: np.ndarray) -> float:
    """:func:`distance` of two mass stacks of one shape, taken as already checked."""
    diffs = masses1 - masses2
    signed = _canonical_signs(diffs)[:, None, None] * diffs
    return float(np.abs(spectra(signed)).sum())


def mix(w1: HybridState, w2: HybridState, t: float) -> HybridState:
    """Convex mixture t*w1 + (1-t)*w2, mixing cell masses blockwise."""
    if w1.space != w2.space or w1.qdim != w2.qdim:
        raise SpaceMismatch("states live on different spaces")
    if not isinstance(t, Real):
        raise HybridError(f"mixing weight must be a real number, got {t!r:.40}")
    if not 0.0 <= t <= 1.0:
        raise HybridError(f"mixing weight {t} outside [0, 1]")  # str: a numpy float reads 2.0
    return new_state(w1.space, t * w1.masses + (1.0 - t) * w2.masses)


def _mass_vector(space: ClassicalSpace, f, name: str) -> np.ndarray:
    """``f`` as an unclipped probability vector over ``space``'s cells; else NotAState(name ...)."""
    p = _as_numeric(f, float, name, NotAState)
    if p.ndim != 1 or p.size != space.size:
        raise NotAState(f"{name} have shape {p.shape}, expected ({space.size},)")
    if not is_probability_vector(p):
        raise NotAState(f"{name} must be non-negative and sum to 1")
    return p


def product_state(space: ClassicalSpace, f, rho) -> HybridState:
    """Non-interacting state with classical cell masses ``f`` and quantum state ``rho``."""
    p = _mass_vector(space, f, "classical masses")
    density = _require_density(rho)
    return new_state(space, np.clip(p, 0.0, None)[:, None, None] * density)


def tensor_with_quantum(state: HybridState, rho_q) -> HybridState:
    """Adjoin a non-interacting quantum ancilla: each mass becomes sigma_n (x) rho_q."""
    density = _require_density(rho_q, "ancilla state")
    return new_state(state.space, kron(state.masses, density))


def condition_on_effect(state: HybridState, effect_on_ancilla) -> Conditioned:
    """Condition a bipartite-quantum hybrid state on an ancilla effect.

    The quantum side must factor as d * dim(F) with the ancilla last.  Returns
    the outcome probability and the conditioned state with masses
    tr_q(sigma_n (I (x) F)) / prob; conjugating by the effect's square root
    keeps the blocks positive.
    """
    eff = as_effect(effect_on_ancilla)
    d_q = eff.dim
    if state.qdim % d_q != 0:
        raise DimensionMismatch(f"qdim {state.qdim} does not factor with ancilla dim {d_q}")
    d = state.qdim // d_q

    vals, vecs = np.linalg.eigh(hermitian_part(eff.matrix))
    sqrt_f = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    lifted = kron(np.eye(d), sqrt_f)

    conjugated = np.einsum("ij,njk,kl->nil", lifted, state.masses, lifted)
    prob = total_trace(conjugated)
    if prob <= ZERO_MASS:
        raise ZeroProbability(f"effect has probability {prob!r}")

    t = conjugated.reshape(-1, d, d_q, d, d_q)
    reduced = np.einsum("nibjb->nij", t) / prob
    return Conditioned(prob, new_state(state.space, reduced))


def embed_quantum(state: HybridState) -> np.ndarray:
    """Block-diagonal quantum embedding sum_n sigma_n (x) |n><n| (cell register last)."""
    n_cells, q = state.space.size, state.qdim
    out = np.zeros((q, n_cells, q, n_cells), dtype=complex)
    cells = np.arange(n_cells)
    out[:, cells, :, cells] = state.masses  # out[i, n, j, n] = sigma_n[i, j]
    return out.reshape(q * n_cells, q * n_cells)


def random_state(space: ClassicalSpace, qdim: int, seed) -> HybridState:
    """Full-rank random state from normalized per-cell Wishart blocks; qdim an integer >= 1."""
    _require_count(qdim, "qdim must be a positive integer", DimensionMismatch)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = random_complex(rng, (space.size, qdim, qdim))
    blocks = np.einsum("nij,nkj->nik", g, g.conj())
    return new_state(space, blocks / total_trace(blocks))


def point_mass_state(space: ClassicalSpace, cell: int, rho) -> HybridState:
    """All classical mass on one cell, quantum part ``rho``."""
    cell = _cell_index(space, cell)
    density = _require_density(rho)
    masses = np.zeros((space.size,) + density.shape, dtype=complex)
    masses[cell] = density
    return new_state(space, masses)
