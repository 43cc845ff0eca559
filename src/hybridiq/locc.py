"""Multi-round LOCC protocols over a discrete outcome record.

A protocol measures the two quantum sides in rounds; each round's instrument
may depend on the history of earlier outcomes.  Outcome labels start at 1, and
a record is a history: the tuple of outcomes so far.  Running a protocol
produces a hybrid state over complete records plus the overall quantum
operation Lambda(rho).  ``run`` evaluates in product form: a record's branch
operator is W_x = A_x (x) B_x, and the two local factors stay per side through
the rounds; W_x is formed once per complete record, only for its mass
W_x rho W_x^dag.  The same protocol can be lowered to one hybrid channel per
round, from the histories of that round's level (those with r outcomes) to the
next level's.  Both read :attr:`LoccProtocol.operators`, each round's
instrument aligned to its level once, on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

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
from .linalg import _require_density, hermitian_eig, kraus_defect, kron, partial_transpose
from .state import (
    HybridState,
    ZERO_MASS,
    _mass_vector,
    new_state,
    point_mass_state,
    product_state,
    quantum_marginal,
)
from .channel import (
    COMPLETENESS_TOL,
    HybridChannel,
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
    of read-only stacks, checked finite and complete once at construction: the
    rows of one array per round.
    """

    outcomes: int
    instrument: Mapping[tuple[int, ...], Sequence[np.ndarray]]
    side: int | None = None


class RoundOperators(NamedTuple):
    """One round's instrument aligned to its level: ``stack[i]`` follows history ``labels[i]``."""

    stack: np.ndarray    # (n_r, outcomes, d_side, d_side), read-only; zeros for a missing history
    missing: np.ndarray  # (m,) intp, ascending level indices of the histories without an instrument


@dataclass(frozen=True, eq=False)
class LoccProtocol:
    """Local dimensions and rounds, checked once at construction.

    First, from the outcome counts alone and before any instrument is read,
    it needs two positive dims and at least one round, and the dims and each
    round's ``side`` (1 or 2, when not None) and ``outcomes`` (at least 1)
    must be Python ints, by the rule io reads JSON integers with; else
    ShapeMismatch.  The reachable records (see :attr:`levels`) may number at most
    RECORD_SPACE_LIMIT, and records x rounds, about the tuple slots the
    enumeration keeps, at most RECORD_SPACE_LIMIT * RECORD_SPACE_LIMIT.bit_length()
    (1 700 000): what rounds that each at least double the record count reach
    under the limit.
    So a long run of one-outcome rounds is refused too, and 10^5 rounds are
    refused in bounded time, with RecordSpaceTooLarge.  Then each instrument
    is checked for its history, a tuple of Python ints in range, and its shape
    (ShapeMismatch), finite entries (NumericalFailure naming the round and
    history) and completeness at COMPLETENESS_TOL, in one batched kraus_defect
    pass per round (IncompleteInstrument with the history and its deviation).  This is the
    only place an instrument's completeness is measured: the worst defect is
    kept as ``completeness_defect``, which ``hybridiq validate`` reports and
    the lowering relies on.
    """

    dims: tuple[int, int]
    rounds: tuple[LoccRound, ...]
    # worst kraus_defect over all instruments (0.0 if none); validate and the lowering read it
    completeness_defect: float = field(init=False, repr=False)
    # each round's checked operators, one read-only stack in its instrument's order
    _stacks: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.dims, (tuple, list)) or len(self.dims) != 2:
            raise ShapeMismatch(f"dims must be two local dimensions, got {self.dims!r:.40}")
        d1, d2 = (require_integer(d, "local dimension", ShapeMismatch) for d in self.dims)
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
        resolved, stacks_per_round, worst = [], [], 0.0
        for r, (rnd, side) in enumerate(zip(self.rounds, sides)):
            d_side = (d1, d2)[side - 1]
            histories, stacks = [], []
            for history, ops in rnd.instrument.items():
                if not isinstance(history, tuple) or len(history) != r:
                    raise ShapeMismatch(
                        f"round {r} has instrument for history {history!r:.40}, "
                        f"expected a tuple of length {r}"
                    )
                for x in history:
                    require_integer(x, f"round {r} history entry", ShapeMismatch)
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
            stacks_per_round.append(stacked)
        object.__setattr__(self, "rounds", tuple(resolved))
        object.__setattr__(self, "completeness_defect", worst)
        object.__setattr__(self, "_stacks", tuple(stacks_per_round))

    @cached_property
    def levels(self) -> tuple[ClassicalSpace, ...]:
        """Counting space of each record level, built on first read, so construction stays cheap.

        Level r's labels are the histories (x_1, ..., x_r), every x_i >= 1, in
        lexicographic order; a history's children are contiguous in the next
        level.  All levels hold 2^(R+1) - 1 records for two outcomes in each of
        R rounds, a total the record budget checked at construction bounds.
        """
        levels = [[()]]
        for rnd in self.rounds:
            labels = range(1, rnd.outcomes + 1)
            levels.append([history + (x,) for history in levels[-1] for x in labels])
        return tuple(counting_space(len(level), labels=tuple(level)) for level in levels)

    @cached_property
    def operators(self) -> tuple[RoundOperators, ...]:
        """Each round's instrument in level order, built on first read, as :attr:`levels` is.

        A round whose instrument names every history of its level, in level
        order, keeps its stack from construction: the instrument's values are
        views into it.  Any other round gets an aligned copy, with zero operators
        at the histories in ``missing``.
        """
        rounds = []
        for rnd, stack, level in zip(self.rounds, self._stacks, self.levels):
            missing = np.empty(0, dtype=np.intp)
            if tuple(rnd.instrument) != level.labels:
                index = dict(zip(level.labels, range(level.size)))
                rows = np.fromiter(map(index.__getitem__, rnd.instrument), np.intp, len(stack))
                aligned = np.zeros((level.size,) + stack.shape[1:], dtype=complex)
                aligned[rows] = stack
                aligned.flags.writeable = False
                stack = aligned
                missing = np.setdiff1d(np.arange(level.size, dtype=np.intp), rows)
            missing.flags.writeable = False
            rounds.append(RoundOperators(stack, missing))
        return tuple(rounds)


def _lift(dims: tuple[int, int], side: int, v: np.ndarray) -> np.ndarray:
    """One side's operator, or a (..., d_side, d_side) stack of them, on the full system."""
    return kron(v, np.eye(dims[1])) if side == 1 else kron(np.eye(dims[0]), v)


def _record_masses(a: np.ndarray, b: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """W_k rho W_k^dag for W_k = a_k (x) b_k, in two products whatever the record count.

    One product of the stacked W_k rows with rho gives every X_k = W_k rho, and
    one batched product gives X_k W_k^dag.  numpy makes one gemm call per matrix
    of a complex stack, so the count of products, not their flops, sets the
    cost at these sizes.
    """
    w = kron(a, b)
    x = (w.reshape(-1, w.shape[-1]) @ rho).reshape(w.shape)
    return x @ w.conj().swapaxes(1, 2)


def run(protocol: LoccProtocol, rho) -> tuple[HybridState, np.ndarray]:
    """Execute all rounds on ``rho`` in product form.

    Record x has the branch operator W_x = A_x (x) B_x.  The local factors stay
    per side through the rounds: each round multiplies only the acting side's
    stack by its level-aligned :attr:`LoccProtocol.operators`.  W_x is formed
    once per complete record, only for its cell mass W_x rho W_x^dag.  Returns
    the hybrid state over complete outcome records and Lambda(rho) =
    sum_x W_x rho W_x^dag.  A history without an instrument is pruned when its
    branch mass is at most ZERO_MASS, else IncompleteInstrument names the first
    one, round by round and lexicographically within a round.
    The input's density check and the record state's ``new_state`` take
    ``linalg.positive_parts``' screen and certificate, so a valid input above
    dimension 2 solves no spectrum and measures no per-block margins.
    """
    d1, d2 = protocol.dims
    density = _require_density(rho, "input state")
    if density.shape[0] != d1 * d2:
        raise DimensionMismatch(
            f"input state has dimension {density.shape[0]}, expected {d1 * d2}"
        )
    factors = [np.eye(d1, dtype=complex)[None], np.eye(d2, dtype=complex)[None]]
    for rnd, level, ops in zip(protocol.rounds, protocol.levels, protocol.operators):
        if ops.missing.size:
            lost = _record_masses(factors[0][ops.missing], factors[1][ops.missing], density)
            heavy = np.flatnonzero(np.einsum("kii->k", lost).real > ZERO_MASS)
            if heavy.size:
                raise IncompleteInstrument(level.labels[ops.missing[heavy[0]]])
        # a pruned history continues with zero operators, so its records keep zero mass
        acting = rnd.side - 1
        shape = factors[acting].shape[1:]
        factors[acting] = (ops.stack @ factors[acting][:, None]).reshape((-1,) + shape)
        factors[1 - acting] = np.repeat(factors[1 - acting], rnd.outcomes, axis=0)
    state = new_state(protocol.levels[-1], _record_masses(*factors, density))
    return state, quantum_marginal(state)


def initial_record_state(protocol: LoccProtocol, rho) -> HybridState:
    """``rho`` at the empty history (), the one cell of the first round channel's source."""
    return point_mass_state(protocol.levels[0], 0, rho)


def as_hybrid_channels(protocol: LoccProtocol) -> list[HybridChannel]:
    """One hybrid channel per round, from the level-r histories to the level-(r + 1) ones.

    Round r maps ``protocol.levels[r]`` to ``levels[r + 1]``, so the last
    round's target is ``run``'s space of complete records, the same object.
    History i moves to its children, cells i*k ... i*k + k - 1, on the rows
    kron(A_a, I) of its instrument, lifted from :attr:`LoccProtocol.operators`
    in one batched product.  These rows are sorted by (dst, src), in range and
    finite, and sum_a kron(A_a, I)^dag kron(A_a, I) is kron(sum_a A_a^dag A_a, I),
    so the instrument's completeness, measured once when the protocol was built,
    carries over: each channel is built as is, with nothing left to check.  The
    lowering never sees the input state, so it cannot prune as ``run`` does:
    IncompleteInstrument names the first history without an instrument, round
    by round and lexicographically within a round.
    """
    d = protocol.dims[0] * protocol.dims[1]
    levels, channels = protocol.levels, []
    for r, (rnd, ops) in enumerate(zip(protocol.rounds, protocol.operators)):
        if ops.missing.size:
            raise IncompleteInstrument(levels[r].labels[ops.missing[0]])
        n, k = ops.stack.shape[:2]
        dst, src = np.arange(n * k, dtype=np.intp), np.repeat(np.arange(n, dtype=np.intp), k)
        rows = _lift(protocol.dims, rnd.side, ops.stack).reshape(-1, d, d)
        for arr in (dst, src, rows):
            arr.flags.writeable = False
        channels.append(HybridChannel(levels[r], levels[r + 1], d, d, dst, src, rows))
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


def _checked_ensemble(
    space: ClassicalSpace, f, states_1, states_2
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """The cell masses ``f`` as a probability vector, then each side's cell states, checked."""
    p = _mass_vector(space, f, "cell masses")
    eta1 = _cell_states(space, states_1, "first-side")
    eta2 = _cell_states(space, states_2, "second-side")
    return p, eta1, eta2


def separable_from_ensemble(space: ClassicalSpace, f, states_1, states_2) -> np.ndarray:
    """Discretized separable state sum_n f_n eta1_n (x) eta2_n."""
    return _separable(*_checked_ensemble(space, f, states_1, states_2))


def _separable(p: np.ndarray, eta1: list[np.ndarray], eta2: list[np.ndarray]) -> np.ndarray:
    """:func:`separable_from_ensemble` of an ensemble :func:`_checked_ensemble` returned."""
    weights = np.clip(p, 0.0, None)[:, None, None]
    return (weights * kron(np.stack(eta1), np.stack(eta2))).sum(axis=0)


def is_ppt(rho, dim_1: int, dim_2: int) -> bool:
    """Partial transpose test: conclusive for separability on 2x2 and 2x3.

    The density check is ``linalg.positive_parts``' screen and certificate, a
    shifted Cholesky above dimension 2; ``linalg.partial_transpose`` checks the
    dims, and the spectrum of its result is solved.
    """
    transposed = partial_transpose(_require_density(rho), dim_1, dim_2, "B")
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
    p, eta1, eta2 = _checked_ensemble(space, f, states_1, states_2)
    d1, d2 = eta1[0].shape[0], eta2[0].shape[0]
    target = _separable(p, eta1, eta2)

    # the product family, k-major, from each side's stack of |0><k| = kron(|0>, <k|)
    ground_1, ground_2 = (kron(np.eye(d, 1), np.eye(d)[:, None, :]) for d in (d1, d2))
    collapse_kraus = kron(ground_1[:, None], ground_2).reshape(-1, d1 * d2, d1 * d2)
    collapse = non_interacting(identity_kernel(space), collapse_kraus)
    return SteeringScript(
        space=space,
        cell_masses=p,
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
