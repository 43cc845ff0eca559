"""Classical-quantum correlation measures.

The mutual information of a hybrid state is computed as the Holevo quantity of
the ensemble (cell probability, conditional quantum state); cells below the
zero-mass cutoff are excluded.  The three-term entropy formula and the
relative-entropy identity against the quantum embedding are provided as
independent cross-check paths (the Holevo form is the primary one because
tr(sigma ln sigma) is ill-conditioned for near-singular blocks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import HybridChannel, apply
from .errors import HybridError, NotAnEnsemble
from .linalg import (
    HERMITICITY_TOL,
    PSD_TOL,
    SPECTRAL_CUTOFF,
    TRACE_TOL,
    block_margins,
    von_neumann_entropy,
)
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
        if margins.nonfinite.any():
            raise NotAnEnsemble("a member has non-finite entries")
        if margins.hermiticity.max() > HERMITICITY_TOL:
            raise NotAnEnsemble(
                f"a member deviates from Hermiticity by {margins.hermiticity.max():.3e}"
            )
        sym = margins.sym
        traces = np.einsum("rii->r", sym).real
        if np.abs(traces - 1.0).max() > TRACE_TOL:
            raise NotAnEnsemble("every member must have unit trace")
        if margins.floor.min() < -PSD_TOL:
            raise NotAnEnsemble("a member is not positive semidefinite")
        p = np.clip(p, 0.0, None)
        p.flags.writeable = False
        sym.flags.writeable = False
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "states", sym)

    @property
    def size(self) -> int:
        return int(self.probabilities.size)


def _entropy_from_eigs(vals: np.ndarray) -> float:
    vals = vals[vals > SPECTRAL_CUTOFF]
    return float(-(vals * np.log(vals)).sum())


def _holevo_raw(p: np.ndarray, states: np.ndarray) -> float:
    average = np.einsum("r,rij->ij", p, states)
    avg_entropy = _entropy_from_eigs(np.linalg.eigvalsh(average))
    member_entropies = np.array([_entropy_from_eigs(v) for v in np.linalg.eigvalsh(states)])
    return avg_entropy - float(p @ member_entropies)


def holevo(ensemble: Ensemble) -> float:
    """chi = S(sum p rho) - sum p S(rho), in nats."""
    return _holevo_raw(ensemble.probabilities, ensemble.states)


def _cell_ensemble(state: HybridState) -> tuple[np.ndarray, np.ndarray]:
    """(p_n, sigma_n / p_n) over cells with positive mass, p renormalized, unvalidated."""
    p = classical_marginal(state).masses
    keep = p > ZERO_MASS
    if not keep.any():
        raise NotAnEnsemble("state has no cell with positive mass")
    kept = p[keep]
    return kept / kept.sum(), state.masses[keep] / kept[:, None, None]


def state_ensemble(state: HybridState) -> Ensemble:
    """Ensemble (p_n, sigma_n / p_n) over cells with positive mass."""
    return Ensemble(*_cell_ensemble(state))


def mutual_information(state: HybridState) -> float:
    """Correlation between the classical and quantum subsystems, in nats."""
    return max(_holevo_raw(*_cell_ensemble(state)), 0.0)


def mutual_information_three_term(state: HybridState) -> float:
    """sum tr(sigma_n ln sigma_n) - sum p_n ln p_n - tr(rho ln rho) (cross-check path)."""
    p = classical_marginal(state).masses
    keep = p > ZERO_MASS
    mass_term = -sum(_entropy_from_eigs(v) for v in np.linalg.eigvalsh(state.masses[keep]))
    classical_term = float((p[keep] * np.log(p[keep])).sum())
    rho_term = -_entropy_from_eigs(np.linalg.eigvalsh(quantum_marginal(state)))
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
