"""Classical-quantum correlation measures.

The mutual information of a hybrid state is computed as the Holevo quantity of
the ensemble (cell probability, conditional quantum state); cells below the
zero-mass cutoff are excluded.  The three-term entropy formula and the
relative-entropy identity against the quantum embedding are provided as
independent cross-check paths (the Holevo form is the primary one because
tr(sigma ln sigma) is ill-conditioned for near-singular blocks).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import HybridChannel, apply
from .errors import HybridError, NotAnEnsemble
from .linalg import block_margins, entropies, nonnegative, von_neumann_entropy
from .state import (
    HybridState,
    ZERO_MASS,
    classical_marginal,
    is_probability_vector,
    quantum_marginal,
)

MONOTONICITY_SLACK = 1e-8


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Probabilities plus density matrices of common dimension."""

    probabilities: np.ndarray
    states: np.ndarray  # (r, d, d)
    eigenvalues: np.ndarray = field(init=False, repr=False)  # (r, d) ascending, of each state

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        rho = np.asarray(self.states, dtype=complex)
        if p.ndim != 1 or p.size == 0:
            raise NotAnEnsemble("need at least one member")
        if rho.ndim != 3 or rho.shape != (p.size, rho.shape[1], rho.shape[1]) or rho.size == 0:
            raise NotAnEnsemble(f"states of shape {rho.shape} do not match {p.size} probabilities")
        if not is_probability_vector(p):
            raise NotAnEnsemble("probabilities must be non-negative and sum to 1")
        margins = block_margins(rho)
        error = lambda _, problem: NotAnEnsemble(f"a member {problem}")
        margins.require(error)
        margins.require_unit_traces(error)
        sym = margins.sym
        p = np.clip(p, 0.0, None)
        for arr in (p, sym, margins.eigenvalues):
            arr.flags.writeable = False
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "states", sym)
        object.__setattr__(self, "eigenvalues", margins.eigenvalues)

    @property
    def size(self) -> int:
        return int(self.probabilities.size)


def _holevo_raw(p: np.ndarray, states: np.ndarray, eigs: np.ndarray) -> float:
    """S(sum p rho) - sum p S(rho), given each member's spectrum ``eigs``.

    The average is divided by its trace, which the weights fix at 1 only up to
    rounding: at qdim 1 it is then exactly 1.0, so a classical state has exactly
    zero mutual information whatever order its masses were summed in.
    """
    average = np.einsum("r,rij->ij", p, states)
    average /= np.trace(average).real
    return float(entropies(np.linalg.eigvalsh(average))) - float(p @ entropies(eigs))


def holevo(ensemble: Ensemble) -> float:
    """chi = S(sum p rho) - sum p S(rho), in nats."""
    return _holevo_raw(ensemble.probabilities, ensemble.states, ensemble.eigenvalues)


def _cell_ensemble(state: HybridState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p_n, sigma_n / p_n, its spectrum) over cells with positive mass, p renormalized."""
    p = classical_marginal(state).masses
    keep = p > ZERO_MASS
    if not keep.any():
        raise NotAnEnsemble("state has no cell with positive mass")
    kept = p[keep]
    return (
        kept / kept.sum(),
        state.masses[keep] / kept[:, None, None],
        state.eigenvalues[keep] / kept[:, None],
    )


def state_ensemble(state: HybridState) -> Ensemble:
    """Ensemble (p_n, sigma_n / p_n) over cells with positive mass."""
    return Ensemble(*_cell_ensemble(state)[:2])


def mutual_information(state: HybridState) -> float:
    """Correlation between the classical and quantum subsystems, in nats."""
    return nonnegative(_holevo_raw(*_cell_ensemble(state)))


def mutual_information_three_term(state: HybridState) -> float:
    """sum tr(sigma_n ln sigma_n) - sum p_n ln p_n - tr(rho ln rho) (cross-check path)."""
    p = classical_marginal(state).masses
    keep = p > ZERO_MASS
    mass_term = -float(entropies(np.linalg.eigvalsh(state.masses[keep])).sum())
    classical_term = float((p[keep] * np.log(p[keep])).sum())
    rho_term = -float(entropies(np.linalg.eigvalsh(quantum_marginal(state))))
    return mass_term - classical_term - rho_term


@dataclass(frozen=True)
class MonotonicityReport:
    I_before: float
    I_after: float
    violation: bool
    bound_2S: float

    def to_dict(self) -> dict:
        return {
            "I_before": self.I_before,
            "I_after": self.I_after,
            "violation": self.violation,
            "bound_2S": self.bound_2S,
        }


def monotonicity_report(state: HybridState, channel: HybridChannel) -> MonotonicityReport:
    """Mutual information before and after a non-interacting channel.

    Non-interacting channels cannot create classical-quantum correlations, so
    ``violation`` flags I_after exceeding I_before beyond numerical slack.
    """
    if getattr(channel, "kind", None) != "non_interacting":
        raise HybridError("monotonicity_report requires a channel built by non_interacting()")
    before = mutual_information(state)
    after = mutual_information(apply(channel, state))
    return MonotonicityReport(
        I_before=before,
        I_after=after,
        violation=bool(after > before + MONOTONICITY_SLACK),
        bound_2S=2.0 * von_neumann_entropy(quantum_marginal(state)),
    )
