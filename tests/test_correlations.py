import math

import numpy as np
import pytest

from hybridiq.channel import non_interacting
from hybridiq.classical import (
    MarkovKernel,
    counting_space,
    identity_kernel,
    uniform_mixing_kernel,
)
from hybridiq.correlations import (
    Ensemble,
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


def test_holevo_identical_members_zero():
    rng = np.random.default_rng(0)
    rho = random_density(3, rng)
    ens = Ensemble(np.array([0.3, 0.7]), np.stack([rho, rho]))
    assert holevo(ens) == pytest.approx(0.0, abs=1e-12)


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


def test_mutual_information_product_is_zero():
    rng = np.random.default_rng(3)
    space = counting_space(5)
    w = product_state(space, random_probability_vector(5, rng), random_density(3, rng))
    assert mutual_information(w) <= 1e-10


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
    from hybridiq.channel import random_channel

    space = counting_space(2)
    ch = random_channel(space, space, 2, 2, branching=2, seed=0)
    w = random_state(space, 2, 1)
    with pytest.raises(HybridError):
        monotonicity_report(w, ch)


def test_report_dict_shape():
    space = counting_space(2)
    w = random_state(space, 2, 2)
    ch = non_interacting(identity_kernel(space), [np.eye(2)])
    d = monotonicity_report(w, ch).to_dict()
    assert set(d) == {"I_before", "I_after", "violation", "bound_2S"}
