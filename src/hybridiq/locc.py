"""Multi-round LOCC protocols over a discrete outcome record.

A protocol measures the two quantum sides in rounds; each round's instrument
may depend on the history of earlier outcomes.  Outcome labels start at 1, and
a record is a history: the tuple of outcomes so far.  Running a protocol
produces a hybrid state over complete records plus the overall quantum
operation Lambda(rho).  ``run`` evaluates in product form: a record's branch
operator is A_x (x) B_x, so it tracks only the two local factors and never
forms an operator on the full system.  The same protocol can be lowered to one
hybrid channel per round, from the histories of that round's level (those with
r outcomes) to the next level's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .classical import ClassicalSpace, counting_space, identity_kernel
from .errors import (
    DimensionMismatch,
    IncompleteInstrument,
    NotAState,
    NumericalFailure,
    RecordSpaceTooLarge,
    ShapeMismatch,
    require_integer,
)
from .linalg import _require_density, hermitian_eig, kraus_defect, partial_transpose
from .state import (
    HybridState,
    ZERO_MASS,
    is_probability_vector,
    new_state,
    point_mass_state,
    product_state,
    quantum_marginal,
)
from .channel import (
    COMPLETENESS_TOL,
    HybridChannel,
    _unchecked_from_rows,
    apply,
    from_blocks,
    non_interacting,
)

RECORD_SPACE_LIMIT = 100_000
PPT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class LoccRound:
    """One measurement round: which side acts, how many outcomes, which operators.

    ``instrument`` maps a history tuple (outcomes of the earlier rounds) to the
    list of measurement operators for this round; only reachable histories need
    entries.  ``side`` may be left None to take the paper's default alternation
    (odd rounds act on side 1, even rounds on side 2).  The rounds a
    :class:`LoccProtocol` stores hold their instrument as a read-only mapping
    of read-only stacks, checked finite and complete once at construction.
    """

    outcomes: int
    instrument: Mapping[tuple[int, ...], Sequence[np.ndarray]]
    side: int | None = None


@dataclass(frozen=True, eq=False)
class LoccProtocol:
    """Local dimensions and rounds, checked once at construction.

    First, from the outcome counts alone and before any instrument is read,
    it needs positive dims and at least one round, and each round's ``side``
    (1 or 2, when not None) and ``outcomes`` (at least 1) must be Python ints,
    by the rule io reads JSON integers with; else ShapeMismatch.  The
    reachable records (see :func:`_histories`) may number at most
    RECORD_SPACE_LIMIT, and records x rounds, about the tuple slots the
    enumeration keeps, at most RECORD_SPACE_LIMIT * RECORD_SPACE_LIMIT.bit_length()
    (1 700 000): what rounds that each at least double the record count reach
    under the limit.
    So a long run of one-outcome rounds is refused too, and 10^5 rounds are
    refused in bounded time, with RecordSpaceTooLarge.  Then each instrument
    is checked for its history and shape (ShapeMismatch), finite entries
    (NumericalFailure naming the round and history) and completeness at
    COMPLETENESS_TOL, in one batched kraus_defect pass per round
    (IncompleteInstrument with the history and its deviation).  This is the
    only place an instrument's completeness is measured: the worst defect is
    kept as ``completeness_defect``, which ``hybridiq validate`` reports and
    the lowering relies on.
    """

    dims: tuple[int, int]
    rounds: tuple[LoccRound, ...]
    # worst kraus_defect over all instruments (0.0 if none); validate and the lowering read it
    completeness_defect: float = field(init=False, repr=False)

    def __post_init__(self):
        d1, d2 = int(self.dims[0]), int(self.dims[1])
        if d1 < 1 or d2 < 1:
            raise ShapeMismatch("both local dimensions must be positive")
        object.__setattr__(self, "dims", (d1, d2))
        if not self.rounds:
            raise ShapeMismatch("a protocol needs at least one round")
        # the record budget of the class docstring, from the outcome counts alone
        n = len(self.rounds)
        cap = min(RECORD_SPACE_LIMIT, RECORD_SPACE_LIMIT * RECORD_SPACE_LIMIT.bit_length() // n)
        sides, total, level = [], 1, 1
        for r, rnd in enumerate(self.rounds):
            side = rnd.side if rnd.side is not None else (1 if r % 2 == 0 else 2)
            if require_integer(side, f"round {r} side", ShapeMismatch) not in (1, 2):
                raise ShapeMismatch(f"round {r} has side {side}, expected 1 or 2")
            if require_integer(rnd.outcomes, f"round {r} outcomes", ShapeMismatch) < 1:
                raise ShapeMismatch(f"round {r} needs at least one outcome")
            level *= rnd.outcomes
            total += level
            if total > cap:
                raise RecordSpaceTooLarge(
                    f"protocol has at least {total} reachable records (limit {cap} for {n} rounds)"
                )
            sides.append(side)
        resolved, worst = [], 0.0
        for r, (rnd, side) in enumerate(zip(self.rounds, sides)):
            d_side = (d1, d2)[side - 1]
            histories, stacks = [], []
            for history, ops in rnd.instrument.items():
                history = tuple(int(x) for x in history)
                if len(history) != r:
                    raise ShapeMismatch(
                        f"round {r} has instrument for history {history} of length "
                        f"{len(history)}, expected {r}"
                    )
                if any(not 1 <= history[s] <= self.rounds[s].outcomes for s in range(r)):
                    raise ShapeMismatch(f"history {history} has out-of-range outcome labels")
                stack = np.asarray(ops, dtype=complex)
                if stack.ndim != 3 or stack.shape != (rnd.outcomes, d_side, d_side):
                    raise ShapeMismatch(
                        f"instrument at round {r}, history {history} has shape "
                        f"{stack.shape}, expected ({rnd.outcomes}, {d_side}, {d_side})"
                    )
                histories.append(history)
                stacks.append(stack)
            # one batched pass over the round; np.array copies, so the caller's
            # arrays stay theirs and the stored ones can be frozen
            stacked = np.array(stacks, dtype=complex).reshape(-1, rnd.outcomes, d_side, d_side)
            nonfinite = ~np.isfinite(stacked).all(axis=(1, 2, 3))
            if nonfinite.any():
                history = histories[nonfinite.argmax()]
                raise NumericalFailure(
                    f"round {r} instrument at history {history} has non-finite entries"
                )
            defects = kraus_defect(stacked)
            worst = max(worst, float(defects.max(initial=0.0)))
            if worst > COMPLETENESS_TOL:
                i = (defects > COMPLETENESS_TOL).argmax()
                raise IncompleteInstrument(histories[i], float(defects[i]))
            stacked.flags.writeable = False
            instrument = MappingProxyType(dict(zip(histories, stacked)))
            resolved.append(LoccRound(rnd.outcomes, instrument, side))
        object.__setattr__(self, "rounds", tuple(resolved))
        object.__setattr__(self, "completeness_defect", worst)


def _lift(dims: tuple[int, int], side: int, v: np.ndarray) -> np.ndarray:
    """One side's operator, or a (..., d_side, d_side) stack of them, on the full system."""
    # one broadcast product against the identity gives np.kron's entries, bit for bit
    d1, d2 = dims
    if side == 1:
        lifted = v[..., :, None, :, None] * np.eye(d2)[:, None, :]
    else:
        lifted = np.eye(d1)[:, None, :, None] * v[..., None, :, None, :]
    return lifted.reshape(v.shape[:-2] + (d1 * d2, d1 * d2))


def _histories(protocol: LoccProtocol) -> list[list[tuple[int, ...]]]:
    """Level r lists the histories (x_1, ..., x_r), every x_i >= 1, in lexicographic order.

    These are the records that can carry mass: sum over k of the product of the
    first k rounds' outcome counts, 2^(R+1) - 1 for two outcomes in each of R
    rounds.  The protocol's construction has bounded their total.  A history's
    children are contiguous in the next level.  The levels label both ``run``'s
    complete records and the lowering's spaces.
    """
    levels = [[()]]
    for rnd in protocol.rounds:
        labels = range(1, rnd.outcomes + 1)
        levels.append([history + (x,) for history in levels[-1] for x in labels])
    return levels


def _level_space(level: list[tuple[int, ...]]) -> ClassicalSpace:
    return counting_space(len(level), labels=tuple(level))


def _record_masses(a: np.ndarray, b: np.ndarray, rho4: np.ndarray) -> np.ndarray:
    """W_k rho W_k^dag for W_k = a_k (x) b_k, with rho reshaped to (d1, d2, d1, d2)."""
    # pairwise in a fixed order; einsum's optimize=True would search for a path on every call
    t = np.einsum("kai,ijlm->kajlm", a, rho4)
    t = np.einsum("kbj,kajlm->kablm", b, t)
    t = np.einsum("kablm,kcl->kabcm", t, a.conj())
    t = np.einsum("kabcm,kem->kabce", t, b.conj())
    d = a.shape[1] * b.shape[1]
    return t.reshape(-1, d, d)


def run(protocol: LoccProtocol, rho) -> tuple[HybridState, np.ndarray]:
    """Execute all rounds on ``rho`` in product form.

    Record x has the branch operator W_x = A_x (x) B_x.  Each round multiplies
    only the acting side's stack of local factors; the cell masses
    W_x rho W_x^dag then come from one contraction of rho against the two
    stacks.  Returns the hybrid state over complete outcome records and
    Lambda(rho) = sum_x W_x rho W_x^dag.  A history without an instrument is
    pruned when its branch mass is at most ZERO_MASS, else IncompleteInstrument
    names the first one, round by round and lexicographically within a round.
    """
    d1, d2 = protocol.dims
    density = _require_density(rho, "input state")
    if density.shape[0] != d1 * d2:
        raise DimensionMismatch(
            f"input state has dimension {density.shape[0]}, expected {d1 * d2}"
        )
    levels = _histories(protocol)
    rho4 = density.reshape(d1, d2, d1, d2)
    factors = [np.eye(d1, dtype=complex)[None], np.eye(d2, dtype=complex)[None]]
    for rnd, histories in zip(protocol.rounds, levels):
        missing = [i for i, history in enumerate(histories) if history not in rnd.instrument]
        if missing:
            lost = _record_masses(factors[0][missing], factors[1][missing], rho4)
            for i, mass in zip(missing, np.einsum("kii->k", lost).real):
                if mass > ZERO_MASS:
                    raise IncompleteInstrument(histories[i])
        # a pruned history continues with zero operators, so its records keep zero mass
        acting = rnd.side - 1
        pruned = np.zeros((rnd.outcomes,) + factors[acting].shape[1:], dtype=complex)
        step = np.stack([rnd.instrument.get(history, pruned) for history in histories])
        factors[acting] = (step @ factors[acting][:, None]).reshape((-1,) + pruned.shape[1:])
        factors[1 - acting] = np.repeat(factors[1 - acting], rnd.outcomes, axis=0)
    state = new_state(_level_space(levels[-1]), _record_masses(*factors, rho4))
    return state, quantum_marginal(state)


def initial_record_state(protocol: LoccProtocol, rho) -> HybridState:
    """``rho`` at the empty history (), the one cell of the first round channel's source."""
    return point_mass_state(_level_space([()]), 0, rho)


def as_hybrid_channels(protocol: LoccProtocol) -> list[HybridChannel]:
    """One hybrid channel per round, from the level-r histories to the level-(r + 1) ones.

    Level r's cells are its histories in ``_histories`` order, so the last
    round's target is ``run``'s space of complete records, cell for cell.
    History i moves to its children, cells i*k ... i*k + k - 1, on the rows
    kron(A_a, I) of its instrument.  sum_a kron(A_a, I)^dag kron(A_a, I) is
    kron(sum_a A_a^dag A_a, I), so the instrument's completeness, measured once
    when the protocol was built, carries over and is not measured again.  The
    lowering never sees the input state, so it cannot prune as ``run`` does:
    IncompleteInstrument names the first history without an instrument, round
    by round and lexicographically within a round.
    """
    d = protocol.dims[0] * protocol.dims[1]
    levels = _histories(protocol)
    spaces = [_level_space(level) for level in levels]
    channels = []
    for r, (rnd, histories) in enumerate(zip(protocol.rounds, levels)):
        try:
            stacked = np.stack([rnd.instrument[history] for history in histories])
        except KeyError as exc:
            raise IncompleteInstrument(exc.args[0]) from None
        n, k = len(histories), rnd.outcomes
        dst, src = np.arange(n * k), np.repeat(np.arange(n), k)
        rows = _lift(protocol.dims, rnd.side, stacked).reshape(-1, d, d)
        channels.append(_unchecked_from_rows(spaces[r], spaces[r + 1], d, d, dst, src, rows))
    return channels


def _cell_states(space: ClassicalSpace, states, side: str) -> list[np.ndarray]:
    """One density matrix per cell of ``space``, all of one dimension."""
    eta = [_require_density(s, f"{side} state {i}") for i, s in enumerate(states)]
    if len(eta) != space.size:
        raise NotAState(f"need one {side} density matrix per cell, got {len(eta)}")
    dims = sorted({e.shape[0] for e in eta})
    if len(dims) > 1:
        raise DimensionMismatch(f"{side} states have dimensions {dims}, expected one")
    return eta


def separable_from_ensemble(space: ClassicalSpace, f, states_1, states_2) -> np.ndarray:
    """Discretized separable state sum_n f_n eta1_n (x) eta2_n."""
    p = np.asarray(f, dtype=float)
    if p.ndim != 1 or p.size != space.size:
        raise NotAState(f"cell masses have shape {p.shape}, expected ({space.size},)")
    if not is_probability_vector(p):
        raise NotAState("cell masses must be non-negative and sum to 1")
    eta1 = _cell_states(space, states_1, "first-side")
    eta2 = _cell_states(space, states_2, "second-side")
    d1, d2 = eta1[0].shape[0], eta2[0].shape[0]
    out = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    for weight, a, b in zip(np.clip(p, 0.0, None), eta1, eta2):
        out += weight * np.kron(a, b)
    return out


def is_ppt(rho, dim_1: int, dim_2: int) -> bool:
    """Partial transpose test: conclusive for separability on 2x2 and 2x3.

    The density check above dimension 2 is the shifted-Cholesky certificate
    of ``linalg.positive_parts``; the partial transpose's spectrum is solved.
    """
    density = _require_density(rho)
    if density.shape[0] != dim_1 * dim_2:
        raise DimensionMismatch(
            f"state of dimension {density.shape[0]} does not factor as {dim_1} x {dim_2}"
        )
    transposed = partial_transpose(density, dim_1, dim_2, "B")
    return bool(np.linalg.eigvalsh(transposed)[0] >= -PPT_TOL)


@dataclass(frozen=True, eq=False)
class SteeringScript:
    """Collapse-then-repopulate recipe reaching a target separable state."""

    space: ClassicalSpace
    cell_masses: np.ndarray
    collapse: HybridChannel
    local_1: HybridChannel
    local_2: HybridChannel
    target: np.ndarray

    @property
    def channels(self) -> tuple[HybridChannel, HybridChannel, HybridChannel]:
        return (self.collapse, self.local_1, self.local_2)


def _local_repopulation(
    space: ClassicalSpace,
    states: Sequence[np.ndarray],
    side: int,
    dims: tuple[int, int],
) -> HybridChannel:
    # per-cell operation sending |0><0| of one side to eta(cell); completeness
    # is the complement projector plus the (renormalized) target spectrum
    d_side = dims[side - 1]
    d = dims[0] * dims[1]
    ground = np.zeros(d_side, dtype=complex)
    ground[0] = 1.0
    complement = np.eye(d_side, dtype=complex) - np.outer(ground, ground.conj())

    blocks = {}
    for n, eta in enumerate(states):
        eig = hermitian_eig(eta)
        vals = np.clip(eig.eigenvalues, 0.0, None)
        vals = vals / vals.sum()
        local = [complement]
        for k in range(vals.size):
            if vals[k] <= 0.0:
                continue
            local.append(np.sqrt(vals[k]) * np.outer(eig.eigenvectors[:, k], ground.conj()))
        blocks[(n, n)] = _lift(dims, side, np.stack(local))
    return from_blocks(space, space, d, d, blocks)


def steer_to_separable(space: ClassicalSpace, f, states_1, states_2) -> SteeringScript:
    """Script turning any input state into the given separable target.

    Step one collapses both sides onto |0>(x)|0> with the product Kraus family
    |0><k| (x) |0><k'|; the next two steps repopulate side 1 and side 2 cell by
    cell from the eigendecompositions of the target conditional states.
    """
    eta1 = _cell_states(space, states_1, "first-side")
    eta2 = _cell_states(space, states_2, "second-side")
    d1, d2 = eta1[0].shape[0], eta2[0].shape[0]
    target = separable_from_ensemble(space, f, eta1, eta2)

    ket0_1 = np.zeros(d1, dtype=complex)
    ket0_1[0] = 1.0
    ket0_2 = np.zeros(d2, dtype=complex)
    ket0_2[0] = 1.0
    collapse_kraus = [
        np.kron(np.outer(ket0_1, np.eye(d1)[k]), np.outer(ket0_2, np.eye(d2)[kp]))
        for k in range(d1)
        for kp in range(d2)
    ]
    collapse = non_interacting(identity_kernel(space), collapse_kraus)
    return SteeringScript(
        space=space,
        cell_masses=np.asarray(f, dtype=float),
        collapse=collapse,
        local_1=_local_repopulation(space, eta1, 1, (d1, d2)),
        local_2=_local_repopulation(space, eta2, 2, (d1, d2)),
        target=target,
    )


def run_steering(script: SteeringScript, rho) -> HybridState:
    """Apply the script to ``rho``; the quantum marginal reaches the target."""
    state = product_state(script.space, script.cell_masses, rho)
    for channel in script.channels:
        state = apply(channel, state)
    return state
