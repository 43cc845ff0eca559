import numpy as np
import pytest

from hybridiq.classical import counting_space, discretize_interval
from hybridiq.errors import (
    BadEffect,
    BadEvent,
    DimensionMismatch,
    NotNormalized,
    NotPositive,
    SpaceMismatch,
    ZeroMassCell,
    ZeroProbability,
)
from hybridiq.linalg import partial_trace, trace_norm
from hybridiq.rand import random_density, random_effect, random_probability_vector
from hybridiq.state import (
    Effect,
    classical_marginal,
    condition_on_effect,
    conditional_quantum,
    distance,
    embed_quantum,
    mix,
    new_state,
    probability,
    product_state,
    quantum_marginal,
    random_state,
    tensor_with_quantum,
)

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def two_cell_state():
    return new_state(counting_space(2), np.stack([0.5 * KET0, 0.5 * KET1]))


def test_new_state_valid_cases():
    w = new_state(counting_space(1), KET0[None])
    assert w.qdim == 2
    assert two_cell_state().space.size == 2


def test_new_state_rejects_negative_block():
    masses = np.stack([np.diag([1.01, -0.01]).astype(complex)])
    with pytest.raises(NotPositive) as info:
        new_state(counting_space(1), masses)
    assert info.value.cell == 0
    with pytest.raises(NotPositive) as info:
        new_state(counting_space(2), np.stack([KET0, np.full((2, 2), np.nan)]))
    assert info.value.cell == 1


def test_new_state_rejects_empty_blocks():
    with pytest.raises(DimensionMismatch):
        new_state(counting_space(1), np.zeros((1, 0, 0)))


def test_new_state_rejects_bad_trace_and_renormalizes():
    masses = np.stack([0.95 * KET0])
    with pytest.raises(NotNormalized):
        new_state(counting_space(1), masses)
    w = new_state(counting_space(1), masses, renormalize=True)
    assert np.trace(w.masses[0]).real == pytest.approx(1.0)
    with pytest.raises(NotNormalized):
        new_state(counting_space(1), np.stack([0.5 * KET0]), renormalize=True)


def test_probability_normalization_and_projector():
    w = two_cell_state()
    assert probability(w, range(2), np.eye(2)) == pytest.approx(1.0, abs=1e-9)
    assert probability(w, [0], KET0) == pytest.approx(0.5)
    assert probability(w, [], np.eye(2)) == 0.0


def test_probability_matches_loop_oracle():
    rng = np.random.default_rng(0)
    space = counting_space(5)
    w = random_state(space, 3, rng)
    event = [0, 2, 4]
    eff = random_effect(3, rng)
    oracle = 0.0
    for n in event:
        for i in range(3):
            for j in range(3):
                oracle += (w.masses[n][i, j] * eff[j, i]).real
    assert probability(w, event, eff) == pytest.approx(oracle, abs=1e-12)


def test_probability_bad_inputs():
    w = two_cell_state()
    with pytest.raises(BadEvent):
        probability(w, [5], np.eye(2))
    with pytest.raises(BadEffect):
        probability(w, [0], 2 * np.eye(2))
    with pytest.raises(BadEffect):
        probability(w, [0], np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(BadEffect):
        Effect(-0.1 * np.eye(2))


def test_effect_equality_is_identity():
    e = Effect(np.eye(2))
    assert e == e
    assert Effect(np.eye(2)) != Effect(np.eye(2))


def test_axiom_additivity_on_random_state():
    rng = np.random.default_rng(1)
    w = random_state(counting_space(6), 3, rng)
    e = random_effect(3, rng)
    a, b = [0, 2], [1, 5]
    assert probability(w, a + b, e) == pytest.approx(
        probability(w, a, e) + probability(w, b, e), abs=1e-12
    )
    e1 = 0.4 * e
    e2 = 0.6 * e
    assert probability(w, a, e1 + e2) == pytest.approx(
        probability(w, a, e1) + probability(w, a, e2), abs=1e-10
    )


def test_classical_marginal_recovers_distribution():
    rng = np.random.default_rng(2)
    space = discretize_interval(0.0, 2.0, 4)
    f = random_probability_vector(4, rng)
    rho = random_density(2, rng)
    w = product_state(space, f, rho)
    marg = classical_marginal(w)
    assert np.allclose(marg.masses, f, atol=1e-12)
    assert np.allclose(marg.densities, f / space.weights, atol=1e-12)
    assert marg.masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_quantum_marginal():
    w = two_cell_state()
    assert np.allclose(quantum_marginal(w), np.eye(2) / 2)
    rng = np.random.default_rng(3)
    wr = random_state(counting_space(4), 3, rng)
    assert np.linalg.eigvalsh(quantum_marginal(wr))[0] >= -1e-9


def test_conditional_quantum():
    rng = np.random.default_rng(4)
    space = counting_space(3)
    rho = random_density(2, rng)
    w = product_state(space, [0.2, 0.5, 0.3], rho)
    for n in range(3):
        assert np.allclose(conditional_quantum(w, n), rho, atol=1e-12)
    tau = random_density(2, rng)
    w2 = new_state(counting_space(2), np.stack([0.3 * tau, 0.7 * tau]))
    assert np.allclose(conditional_quantum(w2, 0), tau, atol=1e-12)
    point = product_state(space, [1.0, 0.0, 0.0], rho)
    with pytest.raises(ZeroMassCell):
        conditional_quantum(point, 1)


def test_distance_metric():
    w = two_cell_state()
    assert distance(w, w) == 0.0
    a = new_state(counting_space(1), KET0[None])
    b = new_state(counting_space(1), KET1[None])
    assert distance(a, b) == pytest.approx(2.0)
    rng = np.random.default_rng(5)
    space = counting_space(3)
    w1, w2, w3 = (random_state(space, 2, rng) for _ in range(3))
    assert distance(w1, w2) == distance(w2, w1)  # exact
    assert distance(w1, w3) <= distance(w1, w2) + distance(w2, w3) + 1e-10
    assert 0.0 <= distance(w1, w2) <= 2.0 + 1e-12
    with pytest.raises(SpaceMismatch):
        distance(a, w)


def test_product_state_point_mass():
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    w = product_state(counting_space(2), [1.0, 0.0], rho)
    assert np.allclose(w.masses[0], rho)
    assert np.abs(w.masses[1]).max() == 0.0


def test_tensor_with_quantum():
    rng = np.random.default_rng(6)
    space = counting_space(3)
    w = random_state(space, 2, rng)
    rho_q = random_density(2, rng)
    wt = tensor_with_quantum(w, rho_q)
    assert wt.qdim == 4
    for n in range(3):
        back = partial_trace(wt.masses[n], 2, 2, "B")
        assert np.allclose(back, w.masses[n], atol=1e-12)
    # scalar ancilla leaves the state unchanged
    w1 = tensor_with_quantum(w, np.eye(1))
    assert np.allclose(w1.masses, w.masses, atol=1e-15)
    e = random_effect(2, rng)
    assert probability(wt, [0, 2], np.kron(e, np.eye(2))) == pytest.approx(
        probability(w, [0, 2], e), abs=1e-12
    )


def test_condition_on_effect_identity_and_product():
    rng = np.random.default_rng(7)
    space = counting_space(2)
    v = random_state(space, 2, rng)
    rho_q = random_density(3, rng)
    w = tensor_with_quantum(v, rho_q)

    cond = condition_on_effect(w, np.eye(3))
    assert cond.prob == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(cond.state.masses, v.masses, atol=1e-12)

    f = random_effect(3, rng)
    cond_f = condition_on_effect(w, f)
    assert cond_f.prob == pytest.approx(np.trace(rho_q @ f).real, abs=1e-10)
    assert np.allclose(cond_f.state.masses, v.masses, atol=1e-10)


def test_condition_on_effect_probability_identity():
    rng = np.random.default_rng(8)
    space = counting_space(3)
    w = random_state(space, 6, rng)  # factor 2 x 3
    f = random_effect(3, rng)
    cond = condition_on_effect(w, f)
    e = random_effect(2, rng)
    lhs = probability(cond.state, [0, 2], e) * cond.prob
    rhs = probability(w, [0, 2], np.kron(e, f))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_condition_on_effect_zero_probability():
    w = new_state(counting_space(1), np.stack([np.kron(KET0, KET0)]))
    with pytest.raises(ZeroProbability):
        condition_on_effect(w, KET1)


def test_embed_quantum():
    rng = np.random.default_rng(9)
    w = new_state(counting_space(1), np.stack([random_density(3, rng)]))
    assert np.allclose(embed_quantum(w), w.masses[0])

    space = counting_space(3)
    f = random_probability_vector(3, rng)
    rho = random_density(2, rng)
    wp = product_state(space, f, rho)
    assert np.allclose(embed_quantum(wp), np.kron(rho, np.diag(f)), atol=1e-12)

    wr = random_state(space, 2, rng)
    emb = embed_quantum(wr)
    assert np.trace(emb).real == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(partial_trace(emb, 2, 3, "B"), quantum_marginal(wr), atol=1e-12)


def test_embed_quantum_isometry():
    rng = np.random.default_rng(10)
    space = counting_space(4)
    w1 = random_state(space, 3, rng)
    w2 = random_state(space, 3, rng)
    emb_dist = trace_norm(embed_quantum(w1) - embed_quantum(w2))
    assert emb_dist == pytest.approx(distance(w1, w2), abs=1e-10)


def test_random_state_determinism_and_validity():
    space = counting_space(4)
    w1 = random_state(space, 3, 42)
    w2 = random_state(space, 3, 42)
    assert np.array_equal(w1.masses, w2.masses)
    w3 = random_state(space, 3, 43)
    assert distance(w1, w3) > 0.0
    assert np.trace(w1.masses.sum(axis=0)).real == pytest.approx(1.0, abs=1e-12)


def test_mix_blockwise():
    rng = np.random.default_rng(11)
    space = counting_space(3)
    w1, w2 = random_state(space, 2, rng), random_state(space, 2, rng)
    m = mix(w1, w2, 0.25)
    assert np.allclose(m.masses, 0.25 * w1.masses + 0.75 * w2.masses, atol=1e-15)
