"""Classical-quantum correlation measures.

The mutual information of a hybrid state is computed as the Holevo quantity of
the ensemble (cell probability, conditional quantum state); cells at or below
the zero-mass cutoff get weight 0.  One segmented core computes the Holevo
quantity of every segment of a member stack, so many states or ensembles of a
common dimension are evaluated in one pass; ``holevo`` and
``mutual_information`` are its one-segment case.  The three-term entropy
formula and the relative-entropy identity against the quantum embedding are
provided as independent cross-check paths (the Holevo form is the primary one
because tr(sigma ln sigma) is ill-conditioned for near-singular blocks).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import COMPLETENESS_TOL, HybridChannel, apply, interaction_defect
from .errors import HybridError, NotAnEnsemble
from .linalg import block_margins, entropies, nonnegative, spectra, von_neumann_entropy
from .state import (
    _ONE_SEGMENT,
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


def _holevo_segments(
    p: np.ndarray, weighted: np.ndarray, eigs: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """chi = S(sum p rho) - sum p S(rho) of each segment of a member stack, in nats.

    Member n has weight ``p[n]``, weighted state ``weighted[n] = p[n] rho_n``
    (zero when the weight is) and the spectrum ``eigs[n]`` of rho_n; segment s
    holds the members from ``starts[s]`` up to the next start.  A segment's
    weights are divided by their sum, so zero-weight members add nothing, and
    a segment without a positive weight raises NotAnEnsemble.  Each average is
    divided by its trace, which the weights fix at 1 only up to rounding: at
    qdim 1 it is then exactly 1.0, so a classical state has exactly zero mutual
    information whatever order its masses were summed in.
    """
    totals = np.add.reduceat(p, starts)
    if not np.all(totals > 0.0):
        empty = int((totals > 0.0).argmin())
        raise NotAnEnsemble(f"segment {empty} has no member of positive weight")
    n, d = eigs.shape
    averages = np.add.reduceat(weighted.reshape(n, d * d), starts).reshape(-1, d, d)
    averages /= np.einsum("sii->s", averages).real[:, None, None]
    members = np.add.reduceat(p * entropies(eigs), starts) / totals
    return entropies(spectra(averages)) - members


def holevo(ensemble: Ensemble) -> float:
    """chi = S(sum p rho) - sum p S(rho), in nats, clipped at +0.0."""
    p = ensemble.probabilities
    weighted = p[:, None, None] * ensemble.states
    return nonnegative(float(_holevo_segments(p, weighted, ensemble.eigenvalues, _ONE_SEGMENT)[0]))


def _mutual_information_segments(
    masses: np.ndarray, eigs: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Mutual information of each state of a concatenated cell stack, in nats.

    ``masses`` (N, q, q) and their spectra ``eigs`` (N, q) hold one state's
    cells per segment, segment s from ``starts[s]`` up to the next start.  Each
    is the Holevo quantity of the ensemble (p_n, sigma_n / p_n), clipped at
    +0.0 as ``linalg.nonnegative`` clips a scalar; a cell with mass at or below
    ZERO_MASS gets weight 0, and a state without a heavier cell raises
    NotAnEnsemble.
    """
    p = np.einsum("nii->n", masses).real
    keep = p > ZERO_MASS
    chi = _holevo_segments(
        np.where(keep, p, 0.0),
        masses * keep[:, None, None],
        eigs / np.where(keep, p, 1.0)[:, None],
        starts,
    )
    return np.maximum(chi, 0.0) + 0.0


def state_ensemble(state: HybridState) -> Ensemble:
    """Ensemble (p_n, sigma_n / p_n) over cells with positive mass."""
    p = classical_marginal(state).masses
    keep = p > ZERO_MASS
    if not keep.any():
        raise NotAnEnsemble("state has no cell with positive mass")
    kept = p[keep]
    return Ensemble(kept / kept.sum(), state.masses[keep] / kept[:, None, None])


def mutual_information(state: HybridState) -> float:
    """Correlation between the classical and quantum subsystems, in nats."""
    return float(_mutual_information_segments(state.masses, state.eigenvalues, _ONE_SEGMENT)[0])


def mutual_information_three_term(state: HybridState) -> float:
    """sum tr(sigma_n ln sigma_n) - sum p_n ln p_n - tr(rho ln rho) (cross-check path).

    Solves its own spectra with numpy.linalg.eigvalsh, independently of linalg.spectra.
    """
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
    """Mutual information before and after a channel of non-interacting subsystems.

    Non-interacting channels cannot create classical-quantum correlations, so
    ``violation`` flags I_after exceeding I_before beyond numerical slack;
    HybridError when the channel's interaction_defect exceeds COMPLETENESS_TOL.
    """
    if not (defect := interaction_defect(channel)) <= COMPLETENESS_TOL:
        raise HybridError(f"monotonicity_report requires non-interacting subsystems: interaction "
                          f"defect {defect:.3e} exceeds COMPLETENESS_TOL {COMPLETENESS_TOL:.0e}")
    before = mutual_information(state)
    after = mutual_information(apply(channel, state))
    return MonotonicityReport(
        I_before=before,
        I_after=after,
        violation=bool(after > before + MONOTONICITY_SLACK),
        bound_2S=2.0 * von_neumann_entropy(quantum_marginal(state)),
    )
