import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hybridiq import io
from hybridiq.channel import (
    apply, extend_with_ancilla, from_rows, identity_channel, random_channel,
)
from hybridiq.classical import (
    ClassicalSpace, MarkovKernel, counting_space, discretize_interval, validate_kernel,
)
from hybridiq.correlations import Ensemble
from hybridiq.errors import (
    BadEffect,
    BadEvent,
    BadKernel,
    BadRange,
    DimensionMismatch,
    HybridError,
    NotAnEnsemble,
    NotAState,
    NotNormalized,
    NotPositive,
    ShapeMismatch,
    SpaceMismatch,
    ZeroMassCell,
    ZeroProbability,
)
from hybridiq.linalg import (
    PSD_TOL, hermitian_eig, partial_trace, partial_transpose, trace_norm, von_neumann_entropy,
)
from hybridiq.locc import is_ppt, separable_from_ensemble
from hybridiq.rand import random_density, random_effect, random_probability_vector, random_unitary
from hybridiq.state import (
    Effect,
    _probability_segments,
    classical_marginal,
    condition_on_effect,
    conditional_quantum,
    distance,
    embed_quantum,
    mix,
    new_state,
    point_mass_state,
    probability,
    product_state,
    quantum_marginal,
    random_state,
    require_effects,
    tensor_with_quantum,
)

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


# one block for each per-block invariant: finite, Hermitian, positive
BAD_BLOCKS = [
    pytest.param(np.array([[np.nan, 0.0], [0.0, 1.0]]), id="non-finite"),
    pytest.param(np.array([[0.5, 0.1], [0.0, 0.5]]), id="non-hermitian"),
    pytest.param(np.diag([1.5, -0.5]), id="non-psd"),
]


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


def test_new_state_positivity_verdict_at_qdim_2_sits_at_psd_tol():
    # cell 1 is a rotated block with eigenvalues (low, 0.5 - low), so its
    # off-diagonals carry the negative eigenvalue into the closed-form spectrum
    u = random_unitary(2, np.random.default_rng(37))
    masses = lambda low: np.stack([0.5 * KET0, (u * np.array([low, 0.5 - low])) @ u.conj().T])
    low = -0.5 * PSD_TOL
    assert new_state(counting_space(2), masses(low)).eigenvalues[1, 0] == pytest.approx(low, abs=1e-15)
    with pytest.raises(NotPositive, match="^mass block at cell 1 is not positive semidefinite$") as info:
        new_state(counting_space(2), masses(-2 * PSD_TOL))
    assert info.value.cell == 1


@pytest.mark.parametrize("block", BAD_BLOCKS)
def test_new_state_names_the_lowest_failing_cell(block):
    # cells 1 and 2 both fail, cell 2 by more
    with pytest.raises(NotPositive, match="^mass block at cell 1 ") as info:
        new_state(counting_space(3), np.stack([KET0, block, 2 * block]))
    assert info.value.cell == 1


def test_new_state_rejects_empty_blocks():
    with pytest.raises(DimensionMismatch):
        new_state(counting_space(1), np.zeros((1, 0, 0)))


def test_new_state_rejects_bad_trace():
    with pytest.raises(NotNormalized):
        new_state(counting_space(1), np.stack([0.95 * KET0]))
    with pytest.raises(NotNormalized):
        new_state(counting_space(1), np.stack([0.5 * KET0]))
    # an all-zero stack passes the positivity verdict and still fails the trace
    with pytest.raises(NotNormalized):
        new_state(counting_space(3), np.zeros((3, 2, 2)))


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


def test_probability_refuses_bool_and_float_events():
    w = random_state(counting_space(3), 2, 1)
    cell_2 = float(np.trace(w.masses[2]).real)
    # a boolean mask, a float index, a string or a bare cell is not a collection of cells
    for event in (np.array([False, False, True]), [True], [1.7], [np.float64(2.0)], "2", 2):
        with pytest.raises(BadEvent):
            probability(w, event, np.eye(2))
    for event in ([2], np.array([2], dtype=np.int64), [np.int64(2)], (np.uint8(2),)):
        assert probability(w, event, np.eye(2)) == pytest.approx(cell_2, abs=1e-15)


@pytest.mark.parametrize("block", BAD_BLOCKS)
def test_effect_rejects_bad_block(block):
    with pytest.raises(BadEffect, match="^effect "):
        Effect(block)


def test_effect_stack_rule_names_the_lowest_failing_block():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(BadEffect) as info:
        Effect(2.0 * eye)  # the one-block case keeps Effect's own message
    assert str(info.value) == "effect has eigenvalue 2.0 above one"
    error = lambda block, problem: BadEffect(f"block {block} {problem}")
    require_effects(np.stack([0.0 * eye, 0.5 * eye, eye]), error)
    with pytest.raises(BadEffect) as info:
        require_effects(np.stack([0.5 * eye, 2.0 * eye, 0.2 * eye, 3.0 * eye]), error)
    assert str(info.value) == "block 1 has eigenvalue 2.0 above one"
    # the finite, Hermitian and positive verdicts come before the upper bound
    with pytest.raises(BadEffect, match="^block 2 is not positive semidefinite$"):
        require_effects(np.stack([2.0 * eye, 0.5 * eye, -eye]), error)


def test_probability_segments_match_one_state_at_a_time():
    rng = np.random.default_rng(5)
    states = [random_state(counting_space(n), 3, rng) for n in (1, 4, 2, 6)]
    effects = np.stack([random_effect(3, rng) for _ in states])
    events = [rng.random(w.space.size) < 0.5 for w in states]
    events[1][:] = False  # an empty event
    sizes = np.array([w.space.size for w in states])
    values = _probability_segments(
        np.concatenate([w.masses for w in states]), effects, np.concatenate(events),
        np.cumsum(sizes) - sizes,
    )
    assert values.shape == (len(states),)
    assert values[1] == 0.0
    for value, w, eff, event in zip(values.tolist(), states, effects, events):
        cells = np.flatnonzero(event).tolist()
        oracle = sum(np.trace(w.masses[n] @ eff).real for n in cells)
        assert abs(value - oracle) <= 1e-12
        assert value == probability(w, cells, eff)


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
    near = new_state(space, w1.masses * (1 - 1e-15) + w2.masses * 1e-15)
    assert distance(w1, w2) == distance(w2, w1)  # exact
    assert distance(w1, near) == distance(near, w1)
    assert distance(w1, w3) <= distance(w1, w2) + distance(w2, w3) + 1e-10
    assert 0.0 <= distance(w1, w2) <= 2.0 + 1e-12
    with pytest.raises(SpaceMismatch):
        distance(a, w)


@st.composite
def _state_pairs(draw):
    """Two states on 1-8 cells at q 1-5; w2 copies w1 on a drawn subset of cells (all, some or
    none), and w1 may have zero-mass cells."""
    cells, q = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    space = counting_space(cells)
    m1 = random_state(space, q, rng).masses.copy()
    zero = np.array(draw(st.lists(st.booleans(), min_size=cells, max_size=cells)))
    if not zero.all():
        m1[zero] = 0.0
    m1 /= np.einsum("nii->", m1).real
    shared = np.array(draw(st.lists(st.booleans(), min_size=cells, max_size=cells)))
    m2 = random_state(space, q, rng).masses.copy()
    own = np.einsum("nii->n", m1[~shared]).real.sum()
    m2[~shared] *= own / max(np.einsum("nii->n", m2[~shared]).real.sum(), 1e-300)
    m2[shared] = m1[shared]
    return new_state(space, m1), new_state(space, m2)


@given(_state_pairs())
def test_distance_is_symmetric_and_matches_svd_trace_norm(pair):
    w1, w2 = pair
    d = distance(w1, w2)
    assert d == distance(w2, w1)
    svd = sum(np.linalg.svd(a - b, compute_uv=False).sum() for a, b in zip(w1.masses, w2.masses))
    assert abs(d - svd) <= 1e-14
    assert distance(w1, w1) == 0.0
    assert distance(w2, new_state(w2.space, w2.masses)) == 0.0


def test_eigenvalues_are_the_stored_read_only_mass_spectrum():
    rng = np.random.default_rng(12)
    masses = random_state(counting_space(5), 3, rng).masses.copy()
    masses[2] = 0.0
    w = new_state(counting_space(5), masses / np.einsum("nii->", masses).real)
    assert np.array_equal(w.eigenvalues, np.linalg.eigvalsh(w.masses))  # bit-equal
    with pytest.raises(ValueError):
        w.eigenvalues[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.eigenvalues = np.zeros((5, 3))
    assert "eigenvalues" not in repr(w)
    assert "eigenvalues" not in json.dumps(io.state_to_json(w))


def test_apply_above_qdim_2_solves_no_spectrum_until_eigenvalues_is_read(
    eigvalsh_calls, cholesky_calls
):
    rng = np.random.default_rng(24)
    space = counting_space(3)
    w = random_state(space, 4, rng)
    ch = random_channel(space, space, 4, 4, 2, rng)
    eigvalsh_calls.clear()
    cholesky_calls.clear()
    out = apply(ch, w)
    assert (eigvalsh_calls, cholesky_calls) == ([], [(3, 4, 4)])
    eigs = out.eigenvalues
    assert eigvalsh_calls == [(3, 4, 4)]
    assert out.eigenvalues is eigs and len(eigvalsh_calls) == 1
    assert eigs.tobytes() == np.linalg.eigvalsh(out.masses).tobytes()
    with pytest.raises(ValueError):
        eigs[0, 0] = 1.0
    assert "eigenvalues" not in repr(out)
    assert "eigenvalues" not in json.dumps(io.state_to_json(out))


def _two_cell_qdim_3():
    return new_state(counting_space(2), np.stack([np.eye(3), np.eye(3)]) / 6)


_I4 = np.eye(4, dtype=complex)
_CH = identity_channel(counting_space(2), 2)
# numpy's message for rows that do not stack to one array
_RAGGED = ("setting an array element with a sequence. The requested array has an inhomogeneous "
           "shape after 1 dimensions. The detected shape was (2,) + inhomogeneous part.")


# each public entry point's own refusal of a malformed argument: call, class, message
BAD_ARGUMENTS = [
    pytest.param(lambda: Effect([["a", "b"], ["c", "d"]]), BadEffect,
                 "complex() arg is a malformed string", id="effect-non-numeric"),
    pytest.param(lambda: Effect(np.ones((2, 3))), BadEffect,
                 "effect must be a square matrix, got shape (2, 3)", id="effect-non-square"),
    pytest.param(lambda: new_state(counting_space(2), np.stack([KET0, KET1, KET0]) / 3),
                 DimensionMismatch, "3 mass blocks for 2 cells", id="new-state-cell-count"),
    pytest.param(lambda: probability(two_cell_state(), [0], np.eye(3)), BadEffect,
                 "effect dimension 3 does not match qdim 2", id="probability-effect-dimension"),
    pytest.param(lambda: conditional_quantum(two_cell_state(), 2), BadEvent,
                 "cell 2 outside 0..1", id="conditional-quantum-cell"),
    pytest.param(lambda: point_mass_state(counting_space(2), -1, KET0), BadEvent,
                 "cell -1 outside 0..1", id="point-mass-cell"),
    pytest.param(lambda: conditional_quantum(two_cell_state(), 1.5), BadEvent,
                 "cell must be an integer index, got 1.5", id="conditional-quantum-float-cell"),
    pytest.param(lambda: conditional_quantum(two_cell_state(), True), BadEvent,
                 "cell must be an integer index, got True", id="conditional-quantum-bool-cell"),
    pytest.param(lambda: point_mass_state(counting_space(2), 1.5, KET0), BadEvent,
                 "cell must be an integer index, got 1.5", id="point-mass-float-cell"),
    pytest.param(lambda: mix(two_cell_state(), two_cell_state(), "a"), HybridError,
                 "mixing weight must be a real number, got 'a'", id="mix-string-weight"),
    pytest.param(lambda: mix(two_cell_state(), two_cell_state(), 0.5j), HybridError,
                 "mixing weight must be a real number, got 0.5j", id="mix-complex-weight"),
    pytest.param(lambda: mix(two_cell_state(), _two_cell_qdim_3(), 0.5), SpaceMismatch,
                 "states live on different spaces", id="mix-spaces"),
    pytest.param(lambda: mix(two_cell_state(), two_cell_state(), 1.5), HybridError,
                 "mixing weight 1.5 outside [0, 1]", id="mix-weight"),
    pytest.param(lambda: mix(two_cell_state(), two_cell_state(), np.float64(2.0)), HybridError,
                 "mixing weight 2.0 outside [0, 1]", id="mix-numpy-weight"),
    pytest.param(lambda: product_state(counting_space(2), [1.0], KET0), NotAState,
                 "classical masses have shape (1,), expected (2,)", id="product-state-shape"),
    pytest.param(lambda: product_state(counting_space(2), [0.7, 0.7], KET0), NotAState,
                 "classical masses must be non-negative and sum to 1", id="product-state-masses"),
    pytest.param(lambda: condition_on_effect(_two_cell_qdim_3(), np.eye(2) / 2), DimensionMismatch,
                 "qdim 3 does not factor with ancilla dim 2", id="condition-on-effect-dimension"),
    # input that numpy cannot read as a number array: a string, ragged rows, a bare int
    # where a collection is expected
    pytest.param(lambda: new_state(counting_space(1), "abc"), DimensionMismatch,
                 "masses must be complex numbers: complex() arg is a malformed string",
                 id="masses-string"),
    pytest.param(lambda: new_state(counting_space(2), [KET0, [[1.0, 0.0]]]), DimensionMismatch,
                 f"masses must be complex numbers: {_RAGGED}", id="masses-ragged"),
    pytest.param(lambda: tensor_with_quantum(two_cell_state(), "abc"), DimensionMismatch,
                 "ancilla state must be complex numbers: complex() arg is a malformed string",
                 id="ancilla-state-string"),
    pytest.param(lambda: hermitian_eig("abc"), DimensionMismatch,
                 "matrix must be complex numbers: complex() arg is a malformed string",
                 id="hermitian-eig-string"),
    pytest.param(lambda: is_ppt([[1, 0], [0]], 1, 1), DimensionMismatch,
                 f"state must be complex numbers: {_RAGGED}", id="is-ppt-ragged"),
    pytest.param(lambda: von_neumann_entropy([[1, 0], [0]]), DimensionMismatch,
                 f"state must be complex numbers: {_RAGGED}", id="entropy-ragged"),
    pytest.param(lambda: partial_trace([[1, 0], [0]], 1, 1, "A"), DimensionMismatch,
                 f"matrix must be complex numbers: {_RAGGED}", id="partial-trace-ragged"),
    pytest.param(lambda: product_state(counting_space(2), ["a", "b"], KET0), NotAState,
                 "classical masses must be float numbers: could not convert string to float: 'a'",
                 id="product-state-strings"),
    pytest.param(lambda: Ensemble(["a"], [KET0]), NotAnEnsemble,
                 "probabilities must be float numbers: could not convert string to float: 'a'",
                 id="ensemble-strings"),
    pytest.param(lambda: Ensemble([0.5, 0.5], [KET0, [[1.0]]]), NotAnEnsemble,
                 f"states must be complex numbers: {_RAGGED}", id="ensemble-ragged"),
    pytest.param(lambda: MarkovKernel(counting_space(2), counting_space(2), "ab"), BadKernel,
                 "kernel must be float numbers: could not convert string to float: 'ab'",
                 id="kernel-string"),
    pytest.param(lambda: validate_kernel([[1, 0], [0]]), BadKernel,
                 f"kernel must be float numbers: {_RAGGED}", id="kernel-ragged"),
    pytest.param(lambda: ClassicalSpace([1.0, 1.0], labels=5), BadRange,
                 "labels must be a collection, got 5", id="labels-int"),
    pytest.param(lambda: ClassicalSpace("ab"), BadRange,
                 "cell weights must be float numbers: could not convert string to float: 'ab'",
                 id="weights-string"),
    pytest.param(lambda: separable_from_ensemble(counting_space(1), ["a"], [KET0], [KET0]),
                 NotAState,
                 "cell masses must be float numbers: could not convert string to float: 'a'",
                 id="separable-strings"),
    # dimension and branching arguments are positive Python or numpy integers, not bools
    pytest.param(lambda: extend_with_ancilla(_CH, 2.5), ShapeMismatch,
                 "ancilla dimension must be positive and an integer, got 2.5", id="ancilla-float"),
    pytest.param(lambda: extend_with_ancilla(_CH, "2"), ShapeMismatch,
                 "ancilla dimension must be positive and an integer, got '2'", id="ancilla-string"),
    pytest.param(lambda: extend_with_ancilla(_CH, True), ShapeMismatch,
                 "ancilla dimension must be positive and an integer, got True", id="ancilla-bool"),
    pytest.param(lambda: identity_channel(counting_space(2), 2.5), ShapeMismatch,
                 "quantum dimensions must be positive integers, got 2.5", id="identity-float"),
    pytest.param(lambda: identity_channel(counting_space(2), -1), ShapeMismatch,
                 "quantum dimensions must be positive integers, got -1", id="identity-negative"),
    pytest.param(lambda: random_channel(counting_space(2), counting_space(2), 2.5, 2, 1, 1),
                 ShapeMismatch, "quantum dimensions must be positive integers, got 2.5",
                 id="random-channel-qdim"),
    pytest.param(lambda: random_channel(counting_space(2), counting_space(2), 2, 0, 1, 1),
                 ShapeMismatch, "quantum dimensions must be positive integers, got 0",
                 id="random-channel-qdim-zero"),
    pytest.param(lambda: random_channel(counting_space(2), counting_space(2), 2, 2, 2.5, 1),
                 ShapeMismatch, "branching must be at least 1 and an integer, got 2.5",
                 id="random-channel-branching"),
    pytest.param(lambda: from_rows(counting_space(1), counting_space(1), 2.5, 2.5, [], [], ()),
                 ShapeMismatch, "quantum dimensions must be positive integers, got 2.5",
                 id="from-rows-qdim"),
    pytest.param(lambda: random_state(counting_space(2), 2.5, 1), DimensionMismatch,
                 "qdim must be a positive integer, got 2.5", id="random-state-float"),
    pytest.param(lambda: random_state(counting_space(2), -1, 1), DimensionMismatch,
                 "qdim must be a positive integer, got -1", id="random-state-negative"),
    pytest.param(lambda: partial_trace(_I4, 2.5, 1.6, "A"), DimensionMismatch,
                 "factor dimensions must be positive integers, got 2.5", id="partial-trace"),
    pytest.param(lambda: partial_transpose(_I4, "2", 2, "A"), DimensionMismatch,
                 "factor dimensions must be positive integers, got '2'", id="partial-transpose"),
    pytest.param(lambda: is_ppt(_I4 / 4, 2.0, 2.0), DimensionMismatch,
                 "factor dimensions must be positive integers, got 2.0", id="is-ppt"),
]


def test_dimension_arguments_accept_numpy_integers():
    space = counting_space(2)
    assert extend_with_ancilla(_CH, np.int64(2)).qdim_src == 4
    assert identity_channel(space, np.int32(2)).qdim_dst == 2
    assert random_channel(space, space, np.int64(2), np.int64(2), np.int64(1), 1).qdim_src == 2
    assert random_state(space, np.int64(2), 1).qdim == 2
    assert np.array_equal(partial_trace(_I4, np.int64(2), np.int64(2), "A"), 2 * np.eye(2))
    assert is_ppt(_I4 / 4, np.int64(2), np.int64(2))


@pytest.mark.parametrize("call, error, message", BAD_ARGUMENTS)
def test_state_entry_points_refuse_bad_arguments(call, error, message):
    with pytest.raises(HybridError) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_cells_and_weights_accept_numpy_scalars():
    # numpy integers name cells and numpy floats weight mixtures, as Python ones do;
    # a numpy bool is not a cell, as a Python one is not
    with pytest.raises(BadEvent, match="^cell must be an integer index"):
        point_mass_state(counting_space(2), np.True_, KET0)
    w = point_mass_state(counting_space(2), np.int64(1), KET0)
    assert np.array_equal(w.masses[1], KET0) and not w.masses[0].any()
    assert np.array_equal(conditional_quantum(w, np.int32(1)), KET0)
    half = mix(w, point_mass_state(counting_space(2), 0, KET0), np.float32(0.5))
    assert np.allclose(np.einsum("nii->n", half.masses).real, [0.5, 0.5], atol=0)


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


def test_embed_quantum_is_the_block_diagonal_sum_over_cells():
    w = random_state(counting_space(3), 2, np.random.default_rng(8))
    oracle = sum(np.kron(w.masses[n], np.diag(np.eye(3)[n])) for n in range(3))
    assert np.array_equal(embed_quantum(w), oracle)


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
