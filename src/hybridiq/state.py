"""Simple hybrid classical-quantum states.

A state stores one positive ``qdim x qdim`` mass block per classical cell.
Block ``n`` is the cell mass (reference weight times the local density value),
so the blocks sum to trace one and all channel algebra is weight-free.  The
cell weights only re-enter when converting masses to densities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .classical import ClassicalSpace, counting_space
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
    HERMITICITY_TOL,
    PSD_TOL,
    TRACE_TOL,
    block_margins,
    dagger,
    trace_norm,
    _require_density,
)
from .rand import random_complex

# Below ZERO_MASS a cell or conditioning probability counts as zero.
ZERO_MASS = 1e-12
RENORMALIZE_WINDOW = 0.1


@dataclass(frozen=True, eq=False)
class HybridState:
    """Validated hybrid state; construct through :func:`new_state`."""

    space: ClassicalSpace
    qdim: int
    masses: np.ndarray  # shape (cells, qdim, qdim)

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
        margins = block_margins(arr[None])
        if margins.nonfinite[0]:
            raise BadEffect("effect has non-finite entries")
        if margins.hermiticity[0] > HERMITICITY_TOL:
            raise BadEffect(f"effect deviates from Hermiticity by {margins.hermiticity[0]:.3e}")
        vals, scale = margins.eigenvalues[0], margins.scales[0]
        if margins.floor[0] < -PSD_TOL:
            raise BadEffect(f"effect has eigenvalue {vals[0]!r} below zero")
        if vals[-1] > 1.0 + PSD_TOL * scale:
            raise BadEffect(f"effect has eigenvalue {vals[-1]!r} above one")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


def as_effect(e) -> Effect:
    return e if isinstance(e, Effect) else Effect(e)


class ClassicalMarginal(NamedTuple):
    masses: np.ndarray     # p_n = tr(sigma_n)
    densities: np.ndarray  # f_n = p_n / mu_n


class Conditioned(NamedTuple):
    prob: float
    state: HybridState


def _stack_masses(masses, qdim: int | None) -> np.ndarray:
    arr = np.asarray(masses, dtype=complex)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or arr.shape[1] == 0:
        raise DimensionMismatch(f"masses must stack to (cells, q, q), got shape {arr.shape}")
    if qdim is not None and arr.shape[1] != qdim:
        raise DimensionMismatch(f"mass blocks are {arr.shape[1]}-dimensional, expected {qdim}")
    return arr


def new_state(
    space: ClassicalSpace,
    masses,
    qdim: int | None = None,
    renormalize: bool = False,
) -> HybridState:
    """Validate per-cell masses into a hybrid state.

    Raises NotPositive for a non-PSD (or non-Hermitian, or non-finite) block and
    NotNormalized when the total trace is off by more than the tolerance.  With
    ``renormalize`` the total is divided out, but only when it already lies
    within 0.1 of one; silently fixing grossly wrong inputs would hide bugs.
    """
    arr = _stack_masses(masses, qdim)
    if arr.shape[0] != space.size:
        raise DimensionMismatch(f"{arr.shape[0]} mass blocks for {space.size} cells")
    margins = block_margins(arr)
    if margins.nonfinite.any():
        cell = int(margins.nonfinite.argmax())
        raise NotPositive(cell, f"mass block at cell {cell} has non-finite entries")
    if margins.hermiticity.max() > HERMITICITY_TOL:
        cell = int(margins.hermiticity.argmax())
        raise NotPositive(cell, f"mass block at cell {cell} is not Hermitian")
    bad = margins.floor < -PSD_TOL
    if bad.any():
        raise NotPositive(int(bad.argmax()))

    sym = margins.sym
    total = float(np.einsum("nii->", sym).real)
    if abs(total - 1.0) > TRACE_TOL:
        if renormalize and abs(total - 1.0) <= RENORMALIZE_WINDOW:
            sym = sym / total
        else:
            raise NotNormalized(total)

    sym.flags.writeable = False
    return HybridState(space, int(arr.shape[1]), sym)


def is_probability_vector(p: np.ndarray) -> bool:
    """Whether p >= -ZERO_MASS entrywise and sums to one within TRACE_TOL; NaN fails."""
    return bool(np.all(p >= -ZERO_MASS) and abs(p.sum() - 1.0) <= TRACE_TOL)


def _event_indices(state: HybridState, event: Iterable[int]) -> np.ndarray:
    idx = np.unique(np.fromiter((int(i) for i in event), dtype=np.intp))
    if idx.size and (idx[0] < 0 or idx[-1] >= state.space.size):
        raise BadEvent(f"event contains cells outside 0..{state.space.size - 1}")
    return idx


def probability(state: HybridState, event: Iterable[int], effect) -> float:
    """w(A, E) = sum over cells in A of tr(sigma_n E)."""
    eff = as_effect(effect)
    if eff.dim != state.qdim:
        raise BadEffect(f"effect dimension {eff.dim} does not match qdim {state.qdim}")
    idx = _event_indices(state, event)
    if idx.size == 0:
        return 0.0
    return float(np.einsum("nij,ji->", state.masses[idx], eff.matrix).real)


def classical_marginal(state: HybridState) -> ClassicalMarginal:
    p = np.einsum("nii->n", state.masses).real
    return ClassicalMarginal(p, p / state.space.weights)


def quantum_marginal(state: HybridState) -> np.ndarray:
    return state.masses.sum(axis=0)


def conditional_quantum(state: HybridState, cell: int) -> np.ndarray:
    """Density matrix of the quantum side given classical cell ``cell``."""
    if not 0 <= cell < state.space.size:
        raise BadEvent(f"cell {cell} outside 0..{state.space.size - 1}")
    p = float(np.trace(state.masses[cell]).real)
    if p <= ZERO_MASS:
        raise ZeroMassCell(f"cell {cell} carries mass {p!r}")
    return state.masses[cell] / p


def _canonical_sign(diff: np.ndarray) -> float:
    # fixes the sign of a Hermitian difference so the trace norm below is
    # computed from bit-identical input for either argument order
    flat = diff.ravel()
    re = flat.real
    nz = np.nonzero(re)[0]
    if nz.size:
        return 1.0 if re[nz[0]] > 0 else -1.0
    im = flat.imag
    nz = np.nonzero(im)[0]
    if nz.size:
        return 1.0 if im[nz[0]] > 0 else -1.0
    return 1.0


def distance(w1: HybridState, w2: HybridState) -> float:
    """Integrated trace-norm metric; lies in [0, 2] and is exactly symmetric."""
    if w1.space != w2.space or w1.qdim != w2.qdim:
        raise SpaceMismatch("states live on different spaces")
    total = 0.0
    for n in range(w1.space.size):
        diff = w1.masses[n] - w2.masses[n]
        total += trace_norm(_canonical_sign(diff) * diff)
    return total


def mix(w1: HybridState, w2: HybridState, t: float) -> HybridState:
    """Convex mixture t*w1 + (1-t)*w2, mixing cell masses blockwise."""
    if w1.space != w2.space or w1.qdim != w2.qdim:
        raise SpaceMismatch("states live on different spaces")
    if not 0.0 <= t <= 1.0:
        raise HybridError(f"mixing weight {t!r} outside [0, 1]")
    return new_state(w1.space, t * w1.masses + (1.0 - t) * w2.masses)


def product_state(space: ClassicalSpace, f, rho) -> HybridState:
    """Non-interacting state with classical cell masses ``f`` and quantum state ``rho``."""
    p = np.asarray(f, dtype=float)
    if p.ndim != 1 or p.size != space.size:
        raise NotAState(f"classical masses have shape {p.shape}, expected ({space.size},)")
    if not is_probability_vector(p):
        raise NotAState("classical masses must be non-negative and sum to 1")
    density = _require_density(rho)
    return new_state(space, np.clip(p, 0.0, None)[:, None, None] * density)


def tensor_with_quantum(state: HybridState, rho_q) -> HybridState:
    """Adjoin a non-interacting quantum ancilla: each mass becomes sigma_n (x) rho_q."""
    density = _require_density(rho_q, "ancilla state")
    blocks = np.stack([np.kron(m, density) for m in state.masses])
    return new_state(state.space, blocks)


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

    vals, vecs = np.linalg.eigh((eff.matrix + dagger(eff.matrix)) / 2)
    sqrt_f = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    lifted = np.kron(np.eye(d), sqrt_f)

    conjugated = np.einsum("ij,njk,kl->nil", lifted, state.masses, lifted)
    prob = float(np.einsum("nii->", conjugated).real)
    if prob <= ZERO_MASS:
        raise ZeroProbability(f"effect has probability {prob!r}")

    t = conjugated.reshape(-1, d, d_q, d, d_q)
    reduced = np.einsum("nibjb->nij", t) / prob
    return Conditioned(prob, new_state(state.space, reduced))


def embed_quantum(state: HybridState) -> np.ndarray:
    """Block-diagonal quantum embedding sum_n sigma_n (x) |n><n| (cell register last)."""
    n_cells, q = state.space.size, state.qdim
    out = np.zeros((q * n_cells, q * n_cells), dtype=complex)
    for n in range(n_cells):
        out[n::n_cells, n::n_cells] = state.masses[n]
    return out


def random_state(space: ClassicalSpace, qdim: int, seed) -> HybridState:
    """Full-rank random state from normalized per-cell Wishart blocks."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = random_complex(rng, (space.size, qdim, qdim))
    blocks = np.einsum("nij,nkj->nik", g, g.conj())
    return new_state(space, blocks / np.einsum("nii->", blocks).real)


def point_mass_state(space: ClassicalSpace, cell: int, rho) -> HybridState:
    """All classical mass on one cell, quantum part ``rho``."""
    if not 0 <= cell < space.size:
        raise BadEvent(f"cell {cell} outside 0..{space.size - 1}")
    density = _require_density(rho)
    masses = np.zeros((space.size,) + density.shape, dtype=complex)
    masses[cell] = density
    return new_state(space, masses)


def single_cell_state(rho) -> HybridState:
    """Purely quantum state viewed as a one-cell hybrid state."""
    return point_mass_state(counting_space(1), 0, rho)
