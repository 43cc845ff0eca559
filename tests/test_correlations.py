import json
import math

import numpy as np
import pytest

from hybridiq import io
from hybridiq.channel import (
    apply,
    compose,
    extend_with_ancilla,
    from_rows,
    identity_channel,
    non_interacting,
    random_channel,
)
from hybridiq.classical import (
    MarkovKernel,
    counting_space,
    identity_kernel,
    uniform_mixing_kernel,
)
from hybridiq.correlations import (
    Ensemble,
    _holevo_segments,
    _mutual_information_segments,
    holevo,
    monotonicity_report,
    mutual_information,
    mutual_information_three_term,
    state_ensemble,
)
from hybridiq.errors import HybridError, NotAnEnsemble
from hybridiq.linalg import relative_entropy, von_neumann_entropy
from hybridiq.rand import (
    random_density,
    random_kraus_set,
    random_probability_vector,
    random_stochastic_matrix,
)
from hybridiq.state import (
    ZERO_MASS,
    classical_marginal,
    embed_quantum,
    new_state,
    product_state,
    quantum_marginal,
    random_state,
)

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)

# one block for each per-block invariant: finite, Hermitian, positive
BAD_BLOCKS = [
    pytest.param(np.array([[np.nan, 0.0], [0.0, 1.0]]), id="non-finite"),
    pytest.param(np.array([[0.5, 0.1], [0.0, 0.5]]), id="non-hermitian"),
    pytest.param(np.diag([1.5, -0.5]), id="non-psd"),
]


def test_holevo_identical_members_zero():
    rng = np.random.default_rng(0)
    rho = random_density(3, rng)
    ens = Ensemble(np.array([0.3, 0.7]), np.stack([rho, rho]))
    assert holevo(ens) == pytest.approx(0.0, abs=1e-12)


def test_holevo_of_classical_members_is_plus_zero():
    # random_density(1) leaves entries an ulp below one, whose entropies are +1e-16
    rng = np.random.default_rng(41)
    ens = Ensemble(np.full(4, 0.25), np.stack([random_density(1, rng) for _ in range(4)]))
    chi = holevo(ens)
    assert chi == 0.0 and math.copysign(1.0, chi) == 1.0


def test_holevo_orthogonal_pure_states():
    ens = Ensemble(np.array([0.5, 0.5]), np.stack([KET0, KET1]))
    assert holevo(ens) == pytest.approx(math.log(2), abs=1e-12)


def test_holevo_nonorthogonal_pure_states():
    ens = Ensemble(np.array([0.5, 0.5]), np.stack([KET0, PLUS]))
    avg = (KET0 + PLUS) / 2
    vals = np.linalg.eigvalsh(avg)
    vals = vals[vals > 1e-14]
    expected = float(-(vals * np.log(vals)).sum())  # pure members contribute zero
    assert holevo(ens) == pytest.approx(expected, abs=1e-12)


def test_holevo_merging_identical_members_is_invariant():
    rng = np.random.default_rng(1)
    rho_a, rho_b = random_density(2, rng), random_density(2, rng)
    split = Ensemble(np.array([0.2, 0.3, 0.5]), np.stack([rho_a, rho_a, rho_b]))
    merged = Ensemble(np.array([0.5, 0.5]), np.stack([rho_a, rho_b]))
    assert holevo(split) == pytest.approx(holevo(merged), abs=1e-10)


def test_holevo_concavity_under_ensemble_merging():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p1 = random_probability_vector(3, rng)
        p2 = random_probability_vector(2, rng)
        states1 = np.stack([random_density(2, rng) for _ in range(3)])
        states2 = np.stack([random_density(2, rng) for _ in range(2)])
        t = rng.uniform()
        merged = Ensemble(
            np.concatenate([t * p1, (1 - t) * p2]), np.concatenate([states1, states2])
        )
        parts = t * holevo(Ensemble(p1, states1)) + (1 - t) * holevo(Ensemble(p2, states2))
        assert holevo(merged) >= parts - 1e-9


def test_ensemble_validation():
    with pytest.raises(NotAnEnsemble):
        Ensemble(np.array([0.5, 0.6]), np.stack([KET0, KET1]))
    with pytest.raises(NotAnEnsemble):
        Ensemble(np.array([0.5, 0.5]), np.stack([KET0, 2 * KET1]))
    with pytest.raises(NotAnEnsemble):
        Ensemble(np.array([1.0]), np.stack([np.array([[0.0, 1.0], [0.0, 1.0]])]))
    with pytest.raises(NotAnEnsemble):
        Ensemble(np.array([np.nan]), np.stack([KET0]))
    with pytest.raises(NotAnEnsemble):
        Ensemble(np.array([1.0]), np.stack([np.full((2, 2), np.nan)]))
    with pytest.raises(NotAnEnsemble, match="at least one member"):
        Ensemble(np.array([]), np.zeros((0, 2, 2)))
    with pytest.raises(NotAnEnsemble, match="do not match 2 probabilities"):
        Ensemble(np.array([0.5, 0.5]), np.stack([KET0, KET1, KET0]))


@pytest.mark.parametrize("block", BAD_BLOCKS)
def test_ensemble_rejects_bad_member(block):
    with pytest.raises(NotAnEnsemble, match="^a member "):
        Ensemble(np.array([0.5, 0.5]), np.stack([KET0, block]))


def _literal_entropy(rho):
    vals = [v for v in np.linalg.eigvalsh(rho) if v > 1e-14]
    return -sum(v * math.log(v) for v in vals)


def _literal_mutual_information(w):
    # the Holevo quantity of (p_n, sigma_n / p_n), one eigen-solve per member
    p = np.array([np.trace(m).real for m in w.masses])
    keep = [n for n in range(len(p)) if p[n] > 1e-12]
    total = sum(p[n] for n in keep)
    average = sum(w.masses[n] for n in keep) / total
    members = sum(p[n] / total * _literal_entropy(w.masses[n] / p[n]) for n in keep)
    return _literal_entropy(average) - members


def _spectrum_reuse_cases():
    rng = np.random.default_rng(31)
    zero_cells = random_state(counting_space(6), 3, rng).masses.copy()
    zero_cells[[1, 4]] = 0.0
    zero_cells /= np.einsum("nii->", zero_cells).real
    vecs = rng.standard_normal((5, 3, 1)) + 1j * rng.standard_normal((5, 3, 1))
    pure = vecs @ vecs.conj().transpose(0, 2, 1)
    rank2 = np.stack([random_density(2, rng) for _ in range(4)])
    rank2 = np.stack([np.kron(r, KET0) for r in rank2])  # rank <= 2 in dimension 4
    return {
        "zero-mass-cells": new_state(counting_space(6), zero_cells),
        "qdim-1": new_state(counting_space(4), random_probability_vector(4, rng)[:, None, None]),
        "pure": new_state(counting_space(5), pure / np.einsum("nii->", pure).real),
        "rank-deficient": new_state(counting_space(4), rank2 / 4),
        "one-cell": new_state(counting_space(1), random_density(3, rng)[None]),
        "one-cell-pure": new_state(counting_space(1), KET1[None]),
    }


@pytest.mark.parametrize("name", list(_spectrum_reuse_cases()))
def test_stored_spectra_match_a_per_cell_loop(name):
    w = _spectrum_reuse_cases()[name]
    expected = max(_literal_mutual_information(w), 0.0)
    assert abs(mutual_information(w) - expected) <= 1e-12
    assert abs(holevo(state_ensemble(w)) - _literal_mutual_information(w)) <= 1e-12


def _concatenated(items, stacks):
    """The stacks of ``items`` joined into one, and where each item starts."""
    sizes = np.array([len(getattr(item, stacks[0])) for item in items])
    joined = (np.concatenate([getattr(item, name) for item in items]) for name in stacks)
    return (*joined, np.cumsum(sizes) - sizes)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_segmented_core_matches_one_state_and_one_ensemble_at_a_time(q):
    rng = np.random.default_rng(40 + q)
    states = [random_state(counting_space(n), q, rng) for n in (1, 3, 6, 2, 5)]
    with_zero = random_state(counting_space(5), q, rng).masses.copy()
    with_zero[[0, 3]] = 0.0  # zero-mass cells inside a segment
    states.append(new_state(counting_space(5), with_zero / np.einsum("nii->", with_zero).real))
    mi = _mutual_information_segments(*_concatenated(states, ("masses", "eigenvalues")))
    assert mi.shape == (len(states),)
    for value, w in zip(mi.tolist(), states):
        assert abs(value - mutual_information(w)) <= 1e-12
        assert abs(value - max(_literal_mutual_information(w), 0.0)) <= 1e-12

    members = [np.stack([random_density(q, rng) for _ in range(k)]) for k in (1, 4, 2, 3)]
    if q == 1:  # random_density(1) can miss trace one by an ulp; a qdim-1 state is [[1]]
        members = [np.ones_like(rho) for rho in members]
    ensembles = [Ensemble(random_probability_vector(len(rho), rng), rho) for rho in members]
    p, rho, eigs, starts = _concatenated(ensembles, ("probabilities", "states", "eigenvalues"))
    chi = _holevo_segments(p, p[:, None, None] * rho, eigs, starts)
    for value, ens in zip(chi.tolist(), ensembles):
        assert abs(value - holevo(ens)) <= 1e-12
    if q == 1:  # no quantum side, so no correlation, exactly
        assert mi.tolist() == [0.0] * len(states)
        assert chi.tolist() == [0.0] * len(ensembles)


def test_segmented_core_ignores_zero_mass_cells():
    rng = np.random.default_rng(45)
    w = random_state(counting_space(3), 2, rng)
    padded = np.zeros((6, 2, 2), dtype=complex)
    padded[[1, 2, 4]] = w.masses
    padded[5] = 0.5 * ZERO_MASS * np.eye(2)  # positive, but at the zero-mass cutoff
    padded /= np.einsum("nii->", padded).real
    lighter = new_state(counting_space(6), padded)
    both = [w, lighter]
    value, padded_value = _mutual_information_segments(
        *_concatenated(both, ("masses", "eigenvalues"))
    )
    assert abs(value - padded_value) <= 1e-12
    assert abs(mutual_information(lighter) - mutual_information(w)) <= 1e-12


def test_segmented_core_refuses_a_segment_without_mass():
    rng = np.random.default_rng(46)
    masses = np.concatenate([random_state(counting_space(2), 2, rng).masses, np.zeros((2, 2, 2))])
    eigs = np.linalg.eigvalsh(masses)
    with pytest.raises(NotAnEnsemble, match="^segment 1 has no member of positive weight$"):
        _mutual_information_segments(masses, eigs, np.array([0, 2]))
    p = np.array([0.4, 0.6, 0.0])
    with pytest.raises(NotAnEnsemble, match="^segment 1 "):
        _holevo_segments(p, p[:, None, None] * masses[:3], eigs[:3], np.array([0, 2]))


def test_ensemble_eigenvalues_are_read_only_member_spectra():
    rng = np.random.default_rng(32)
    pure = np.diag([1.0, 0.0, 0.0]).astype(complex)
    ens = Ensemble(np.array([0.4, 0.6]), np.stack([random_density(3, rng), pure]))
    assert np.array_equal(ens.eigenvalues, np.linalg.eigvalsh(ens.states))
    assert "eigenvalues" not in repr(ens)
    with pytest.raises(ValueError):
        ens.eigenvalues[0, 0] = 1.0


def test_mutual_information_product_is_zero():
    rng = np.random.default_rng(3)
    space = counting_space(5)
    w = product_state(space, random_probability_vector(5, rng), random_density(3, rng))
    assert mutual_information(w) <= 1e-10


def test_mutual_information_at_qdim_1_is_exactly_zero():
    # the masses sum to 1 - 1 ulp, and the weighted average of the
    # renormalized cells still rounds to 0.9999999999999999
    masses = np.array([0.01, np.nextafter(1.0, 0.0) - 0.01])
    assert masses.sum() == np.nextafter(1.0, 0.0)
    w = new_state(counting_space(2), masses.reshape(2, 1, 1).astype(complex))
    assert mutual_information(w) == 0.0


def test_mutual_information_perfectly_correlated():
    w = new_state(counting_space(2), np.stack([0.5 * KET0, 0.5 * KET1]))
    assert mutual_information(w) == pytest.approx(math.log(2), abs=1e-10)


def test_mutual_information_equals_three_term_formula():
    rng = np.random.default_rng(4)
    w = random_state(counting_space(4), 3, rng)  # Wishart blocks are full rank
    assert mutual_information(w) == pytest.approx(
        mutual_information_three_term(w), abs=1e-9
    )


def test_mutual_information_equals_relative_entropy_identity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        w = random_state(counting_space(3), 2, rng)
        p = classical_marginal(w).masses
        reference = np.kron(quantum_marginal(w), np.diag(p))
        identity_value = relative_entropy(embed_quantum(w), reference)
        assert mutual_information(w) == pytest.approx(identity_value, abs=1e-8)


def test_mutual_information_araki_lieb_bound():
    rng = np.random.default_rng(6)
    for _ in range(50):
        w = random_state(counting_space(4), 3, rng)
        bound = 2.0 * von_neumann_entropy(quantum_marginal(w))
        assert mutual_information(w) <= bound + 1e-9


def test_state_ensemble_skips_zero_cells():
    rng = np.random.default_rng(7)
    rho = random_density(2, rng)
    w = product_state(counting_space(3), [0.5, 0.0, 0.5], rho)
    ens = state_ensemble(w)
    assert ens.size == 2
    assert np.allclose(ens.probabilities, [0.5, 0.5])


def test_monotonicity_identity_channel():
    rng = np.random.default_rng(8)
    space = counting_space(3)
    w = random_state(space, 2, rng)
    ch = non_interacting(identity_kernel(space), [np.eye(2)])
    report = monotonicity_report(w, ch)
    assert report.I_after == pytest.approx(report.I_before, abs=1e-10)
    assert not report.violation
    assert report.bound_2S == pytest.approx(
        2 * von_neumann_entropy(quantum_marginal(w)), abs=1e-12
    )


def test_monotonicity_complete_mixing_kills_correlations():
    rng = np.random.default_rng(9)
    space = counting_space(4)
    w = random_state(space, 2, rng)
    ch = non_interacting(uniform_mixing_kernel(space), [np.eye(2)])
    report = monotonicity_report(w, ch)
    assert report.I_after <= 1e-8
    assert not report.violation


def test_monotonicity_random_channels_never_violate():
    rng = np.random.default_rng(10)
    for _ in range(25):
        n_src, n_dst = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        q = int(rng.integers(2, 4))
        src, dst = counting_space(n_src), counting_space(n_dst)
        kernel = MarkovKernel(src, dst, random_stochastic_matrix(n_dst, n_src, rng))
        ch = non_interacting(kernel, random_kraus_set(q, 2, rng))
        w = random_state(src, q, rng)
        assert not monotonicity_report(w, ch).violation


def test_monotonicity_requires_non_interacting():
    # the structure is measured from the rows, so every way of writing a
    # non-interacting channel is accepted, and a channel that interacts is not
    rng = np.random.default_rng(11)
    space = counting_space(3)
    kernel = lambda: MarkovKernel(space, space, random_stochastic_matrix(3, 3, rng))
    ch = non_interacting(kernel(), random_kraus_set(2, 2, rng))
    accepted = [
        ch,
        io.channel_from_json(json.loads(json.dumps(io.channel_to_json(ch)))),
        from_rows(space, space, 2, 2, ch.dst, ch.src, ch.kraus),
        compose(non_interacting(kernel(), random_kraus_set(2, 3, rng)), ch),
        extend_with_ancilla(ch, 2),
        identity_channel(space, 2),
    ]
    for accept in accepted:
        w = random_state(space, accept.qdim_src, rng)
        assert not monotonicity_report(w, accept).violation

    # X on the qubit of cell 1 only: a product state becomes correlated
    pair = counting_space(2)
    controlled = from_rows(pair, pair, 2, 2, [0, 1], [0, 1], [np.eye(2), [[0, 1], [1, 0]]])
    w = product_state(pair, np.array([0.5, 0.5]), KET0)
    assert mutual_information(w) == 0.0
    assert mutual_information(apply(controlled, w)) == pytest.approx(math.log(2), abs=1e-12)
    measured = r"interaction defect \d\.\d{3}e[-+]0\d exceeds COMPLETENESS_TOL 1e-09"
    for refuse in (random_channel(space, space, 2, 2, branching=2, seed=0), controlled):
        with pytest.raises(HybridError, match=measured):
            monotonicity_report(random_state(refuse.src_space, 2, rng), refuse)

