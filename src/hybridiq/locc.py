"""Multi-round LOCC protocols over a discrete outcome record.

A protocol measures the two quantum sides in rounds; each round's instrument
may depend on the history of earlier outcomes.  Outcome label 0 is reserved
for "not yet measured", so complete records have every label >= 1.  Running a
protocol produces a hybrid state over complete records plus the overall
quantum operation Lambda(rho); the same protocol can be lowered to one hybrid
channel per round acting on the full record space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .classical import ClassicalSpace, counting_space, identity_kernel
from .errors import (
    DimensionMismatch,
    IncompleteInstrument,
    NotAState,
    RecordSpaceTooLarge,
    ShapeMismatch,
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
from .channel import HybridChannel, apply, from_blocks, non_interacting

INSTRUMENT_TOL = 1e-9
RECORD_SPACE_LIMIT = 100_000
PPT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class LoccRound:
    """One measurement round: which side acts, how many outcomes, which operators.

    ``instrument`` maps a history tuple (outcomes of the earlier rounds) to the
    list of measurement operators for this round; only reachable histories need
    entries.  ``side`` may be left None to take the paper's default alternation
    (odd rounds act on side 1, even rounds on side 2).
    """

    outcomes: int
    instrument: Mapping[tuple[int, ...], Sequence[np.ndarray]]
    side: int | None = None


@dataclass(frozen=True, eq=False)
class LoccProtocol:
    dims: tuple[int, int]
    rounds: tuple[LoccRound, ...]

    def __post_init__(self):
        d1, d2 = int(self.dims[0]), int(self.dims[1])
        if d1 < 1 or d2 < 1:
            raise ShapeMismatch("both local dimensions must be positive")
        object.__setattr__(self, "dims", (d1, d2))
        if not self.rounds:
            raise ShapeMismatch("a protocol needs at least one round")
        resolved = []
        for r, rnd in enumerate(self.rounds):
            side = rnd.side if rnd.side is not None else (1 if r % 2 == 0 else 2)
            if side not in (1, 2):
                raise ShapeMismatch(f"round {r} has side {side}, expected 1 or 2")
            if rnd.outcomes < 1:
                raise ShapeMismatch(f"round {r} needs at least one outcome")
            d_side = (d1, d2)[side - 1]
            instrument = {}
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
                defect = kraus_defect(stack)
                if defect > INSTRUMENT_TOL:
                    raise IncompleteInstrument(
                        history,
                        f"round {r} instrument at history {history} deviates from "
                        f"completeness by {defect:.3e}",
                    )
                stack = stack.copy()
                stack.flags.writeable = False
                instrument[history] = stack
            resolved.append(LoccRound(rnd.outcomes, instrument, side))
        object.__setattr__(self, "rounds", tuple(resolved))

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)


class Branch(NamedTuple):
    record: tuple[int, ...]
    w: np.ndarray       # full-space operator, product of lifted round operators
    w_side1: np.ndarray
    w_side2: np.ndarray


def _lift(protocol: LoccProtocol, side: int, v: np.ndarray) -> np.ndarray:
    d1, d2 = protocol.dims
    return np.kron(v, np.eye(d2)) if side == 1 else np.kron(np.eye(d1), v)


def branch_operators(protocol: LoccProtocol, rho: np.ndarray | None = None) -> list[Branch]:
    """Accumulated operators for every complete outcome record, in lexicographic order.

    With ``rho`` given, branches whose mass already fell to zero are pruned,
    which is what lets instruments omit unreachable histories; without it every
    history must have an instrument entry.
    """
    d1, d2 = protocol.dims
    d = d1 * d2
    frontier = [Branch((), np.eye(d, dtype=complex), np.eye(d1, dtype=complex), np.eye(d2, dtype=complex))]
    for rnd in protocol.rounds:
        next_frontier = []
        for branch in frontier:
            ops = rnd.instrument.get(branch.record)
            if ops is None:
                if rho is not None:
                    mass = np.einsum("ij,jk,ik->", branch.w, rho, branch.w.conj()).real
                    if mass <= ZERO_MASS:
                        continue
                raise IncompleteInstrument(branch.record)
            for label in range(1, rnd.outcomes + 1):
                v = ops[label - 1]
                lifted = _lift(protocol, rnd.side, v)
                next_frontier.append(
                    Branch(
                        branch.record + (label,),
                        lifted @ branch.w,
                        (v @ branch.w_side1) if rnd.side == 1 else branch.w_side1,
                        (v @ branch.w_side2) if rnd.side == 2 else branch.w_side2,
                    )
                )
        frontier = next_frontier
    return frontier


def complete_record_space(protocol: LoccProtocol) -> ClassicalSpace:
    """Counting-measure space of complete records, labelled by the record tuples."""
    total = int(np.prod([rnd.outcomes for rnd in protocol.rounds]))
    if total > RECORD_SPACE_LIMIT:
        raise RecordSpaceTooLarge(f"record space has {total} cells (limit {RECORD_SPACE_LIMIT})")
    records = tuple(
        itertools.product(*(range(1, rnd.outcomes + 1) for rnd in protocol.rounds))
    )
    return counting_space(len(records), labels=records)


def run(protocol: LoccProtocol, rho) -> tuple[HybridState, np.ndarray]:
    """Execute all rounds on ``rho``.

    Returns the hybrid state over complete outcome records (cell mass
    W_x rho W_x^dag for record x) and the overall quantum operation output
    Lambda(rho) = sum_x W_x rho W_x^dag.
    """
    d1, d2 = protocol.dims
    density = _require_density(rho, "input state")
    if density.shape[0] != d1 * d2:
        raise DimensionMismatch(
            f"input state has dimension {density.shape[0]}, expected {d1 * d2}"
        )
    space = complete_record_space(protocol)
    index = {rec: i for i, rec in enumerate(space.labels)}
    masses = np.zeros((space.size, d1 * d2, d1 * d2), dtype=complex)
    for branch in branch_operators(protocol, density):
        masses[index[branch.record]] = branch.w @ density @ branch.w.conj().T
    state = new_state(space, masses)
    return state, quantum_marginal(state)


def full_record_space(protocol: LoccProtocol) -> ClassicalSpace:
    """Counting-measure space over all records, 0 meaning "not yet measured"."""
    sizes = [rnd.outcomes + 1 for rnd in protocol.rounds]
    total = int(np.prod(sizes))
    if total > RECORD_SPACE_LIMIT:
        raise RecordSpaceTooLarge(f"record space has {total} cells (limit {RECORD_SPACE_LIMIT})")
    records = tuple(itertools.product(*(range(s) for s in sizes)))
    return counting_space(total, labels=records)


def initial_record_state(protocol: LoccProtocol, rho) -> HybridState:
    """Point mass at record (0, ..., 0) with quantum part ``rho``."""
    space = full_record_space(protocol)
    zero = (0,) * protocol.n_rounds
    return point_mass_state(space, space.labels.index(zero), rho)


def as_hybrid_channels(protocol: LoccProtocol) -> list[HybridChannel]:
    """One hybrid channel per round over the full record space.

    Round r moves mass from records with x_r = 0 to the records with the
    measured label written in, conjugating by the lifted instrument operators.
    Records that the round cannot act on (label already set, or history
    without an instrument entry) are passed through unchanged, which keeps
    every source cell complete.
    """
    d = protocol.dims[0] * protocol.dims[1]
    space = full_record_space(protocol)
    index = {rec: i for i, rec in enumerate(space.labels)}
    eye = np.eye(d, dtype=complex)

    channels = []
    for r, rnd in enumerate(protocol.rounds):
        blocks: dict[tuple[int, int], np.ndarray] = {}
        for n, rec in enumerate(space.labels):
            history = rec[:r]
            ops = rnd.instrument.get(history) if all(x >= 1 for x in history) else None
            if rec[r] != 0 or ops is None:
                blocks[(n, n)] = eye[None]
                continue
            for label in range(1, rnd.outcomes + 1):
                target = rec[:r] + (label,) + rec[r + 1:]
                blocks[(index[target], n)] = _lift(protocol, rnd.side, ops[label - 1])[None]
        channels.append(from_blocks(space, space, d, d, blocks, kind="locc_round"))
    return channels


def separable_from_ensemble(space: ClassicalSpace, f, states_1, states_2) -> np.ndarray:
    """Discretized separable state sum_n f_n eta1_n (x) eta2_n."""
    p = np.asarray(f, dtype=float)
    if p.ndim != 1 or p.size != space.size:
        raise NotAState(f"cell masses have shape {p.shape}, expected ({space.size},)")
    if not is_probability_vector(p):
        raise NotAState("cell masses must be non-negative and sum to 1")
    eta1 = [_require_density(s, f"first-side state {i}") for i, s in enumerate(states_1)]
    eta2 = [_require_density(s, f"second-side state {i}") for i, s in enumerate(states_2)]
    if len(eta1) != space.size or len(eta2) != space.size:
        raise NotAState("need one density matrix per cell on each side")
    d1, d2 = eta1[0].shape[0], eta2[0].shape[0]
    out = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    for weight, a, b in zip(np.clip(p, 0.0, None), eta1, eta2):
        out += weight * np.kron(a, b)
    return out


def is_ppt(rho, dim_1: int, dim_2: int, tol: float = PPT_TOL) -> bool:
    """Partial transpose test: conclusive for separability on 2x2 and 2x3."""
    density = _require_density(rho)
    if density.shape[0] != dim_1 * dim_2:
        raise DimensionMismatch(
            f"state of dimension {density.shape[0]} does not factor as {dim_1} x {dim_2}"
        )
    transposed = partial_transpose(density, dim_1, dim_2, "B")
    return bool(np.linalg.eigvalsh(transposed)[0] >= -tol)


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
    eye_other = np.eye(dims[2 - side], dtype=complex)
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
        lifted = [
            np.kron(v, eye_other) if side == 1 else np.kron(eye_other, v) for v in local
        ]
        blocks[(n, n)] = np.stack(lifted)
    return from_blocks(space, space, d, d, blocks, kind="locc_local")


def steer_to_separable(
    space: ClassicalSpace,
    f,
    states_1,
    states_2,
    dims: tuple[int, int] | None = None,
) -> SteeringScript:
    """Script turning any input state into the given separable target.

    Step one collapses both sides onto |0>(x)|0> with the product Kraus family
    |0><k| (x) |0><k'|; the next two steps repopulate side 1 and side 2 cell by
    cell from the eigendecompositions of the target conditional states.
    """
    eta1 = [_require_density(s, f"first-side state {i}") for i, s in enumerate(states_1)]
    eta2 = [_require_density(s, f"second-side state {i}") for i, s in enumerate(states_2)]
    inferred = (eta1[0].shape[0], eta2[0].shape[0])
    if dims is not None and tuple(dims) != inferred:
        raise DimensionMismatch(f"dims {tuple(dims)} do not match target states {inferred}")
    d1, d2 = inferred
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
