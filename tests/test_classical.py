from fractions import Fraction

import numpy as np
import pytest

from hybridiq.classical import (
    ClassicalSpace,
    MarkovKernel,
    compose_kernels,
    counting_space,
    discretize_interval,
    identity_kernel,
    kernel_from_map,
    uniform_mixing_kernel,
    validate_kernel,
)
from hybridiq.errors import BadKernel, BadMap, BadRange, SpaceMismatch
from hybridiq.rand import random_stochastic_matrix


def test_discretize_interval_uniform():
    space = discretize_interval(0.0, 1.0, 4)
    assert np.allclose(space.weights, 0.25)
    assert space.labels[0] == (0.0, 0.25)


def test_discretize_interval_single_cell():
    space = discretize_interval(0.0, 1.0, 1)
    assert space.size == 1
    assert space.weights[0] == pytest.approx(1.0)


def test_discretize_interval_total_length():
    space = discretize_interval(-2.0, 3.0, 10)
    assert space.weights.sum() == pytest.approx(5.0)


def test_discretize_interval_bad_inputs():
    with pytest.raises(BadRange):
        discretize_interval(1.0, 0.0, 3)
    with pytest.raises(BadRange):
        discretize_interval(0.0, 1.0, 0)
    # a non-integer cell count or a non-real end is refused, not passed on to numpy
    # an int beyond the float range does not convert to a finite float
    for args in [(0.0, 1.0, 2.5), ("0", 1, 2), (None, 1, 2), (1j, 2, 2), (0, 10**400, 2),
                 (-(10**400), 0, 2)]:
        with pytest.raises(BadRange):
            discretize_interval(*args)
    assert discretize_interval(np.float64(0.0), 1, np.int64(3)).size == 3
    halves = discretize_interval(Fraction(0), Fraction(1, 2), 2)
    assert halves.weights.tolist() == [0.25, 0.25] and halves.labels == ((0.0, 0.25), (0.25, 0.5))


def test_space_requires_positive_weights():
    with pytest.raises(BadRange):
        ClassicalSpace(np.array([1.0, 0.0]))
    with pytest.raises(BadRange):
        ClassicalSpace(np.array([]))
    with pytest.raises(BadRange, match="1 labels for 2 cells"):
        ClassicalSpace(np.ones(2), ("a",))
    with pytest.raises(BadRange, match="at least one cell"):
        counting_space(0)
    for n_cells in [2.5, True, "3"]:
        with pytest.raises(BadRange, match="integer count of at least one cell"):
            counting_space(n_cells)
    assert counting_space(np.int64(3)).size == 3


def test_space_equality_ignores_labels():
    a = ClassicalSpace(np.array([1.0, 2.0]), labels=("x", "y"))
    b = ClassicalSpace(np.array([1.0, 2.0]))
    c = ClassicalSpace(np.array([1.0, 3.0]))
    assert a == b
    assert a != c


def test_a_space_equals_itself_without_comparing_weights(monkeypatch):
    a = ClassicalSpace(np.array([1.0, 2.0]), labels=("x", "y"))
    b = ClassicalSpace(np.array([1.0, 2.0]))
    calls = []
    original = np.array_equal
    monkeypatch.setattr(np, "array_equal", lambda *args: calls.append(1) or original(*args))
    assert a == a and not a != a
    assert calls == []
    # distinct spaces still compare their weights, and labels still do not count
    assert a == b and b == a and a != ClassicalSpace(np.array([1.0, 3.0]))
    assert len(calls) == 3
    assert a != "a space" and counting_space(2) == counting_space(2)


def test_kernel_from_map_identity_swap_constant():
    space = counting_space(2)
    assert np.array_equal(kernel_from_map(space, [0, 1]).matrix, np.eye(2))
    assert np.array_equal(kernel_from_map(space, [1, 0]).matrix, np.array([[0, 1], [1, 0]]))
    space3 = counting_space(3)
    const = kernel_from_map(space3, lambda n: 0)
    assert np.array_equal(const.matrix, np.array([[1, 1, 1], [0, 0, 0], [0, 0, 0]]))


def test_kernel_from_map_out_of_range():
    with pytest.raises(BadMap):
        kernel_from_map(counting_space(2), [0, 5])


@pytest.mark.parametrize(
    "phi", [[0.5, 1, 2], ["1", 1, 2], [True, False, 2], lambda n: 0.7, [0, 1], [0, 1, 2, 0],
            # not a callable, Sequence or 1-d ndarray: a dict would be read as its keys
            5, (n for n in range(3)), {0: 1, 1: 2, 2: 0}, np.array(0)]
)
def test_kernel_from_map_refuses_a_target_that_is_not_a_cell(phi):
    with pytest.raises(BadMap):
        kernel_from_map(counting_space(3), phi)


def test_kernel_from_map_bijection_is_doubly_stochastic():
    rng = np.random.default_rng(2)
    space = counting_space(5)
    perm = rng.permutation(5)
    matrix = kernel_from_map(space, perm.tolist()).matrix
    assert np.allclose(matrix.sum(axis=0), 1.0)
    assert np.allclose(matrix.sum(axis=1), 1.0)


def test_validate_kernel_reports():
    assert validate_kernel(np.eye(3)).ok
    bad_sum = validate_kernel(np.array([[0.5, 0.0], [0.4, 1.0]]))
    assert not bad_sum.ok and bad_sum.column == 0
    assert bad_sum.message == "column 0 sums to 0.9, expected 1"
    bad_neg = validate_kernel(np.array([[-0.1, 0.0], [1.1, 1.0]]))
    assert not bad_neg.ok and bad_neg.column == 0
    for matrix in (np.ones(2), np.zeros((0, 2)), np.array([[np.nan, 0.0], [1.0, 1.0]])):
        report = validate_kernel(matrix)
        assert not report.ok and report.column is None and report.deviation == np.inf
    space = counting_space(2)
    with pytest.raises(BadKernel, match="non-finite"):
        MarkovKernel(space, space, np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_kernel_constructor_rejects_bad_matrix():
    space = counting_space(2)
    with pytest.raises(BadKernel):
        MarkovKernel(space, space, np.array([[0.5, 0.0], [0.4, 1.0]]))
    with pytest.raises(BadKernel):
        MarkovKernel(space, space, np.eye(3))


def test_compose_identity_and_swap():
    space = counting_space(2)
    swap = kernel_from_map(space, [1, 0])
    ident = identity_kernel(space)
    assert np.array_equal(compose_kernels(ident, swap).matrix, swap.matrix)
    assert np.array_equal(compose_kernels(swap, swap).matrix, np.eye(2))


def test_compose_matches_triple_loop_oracle():
    rng = np.random.default_rng(4)
    s3, s4, s2 = counting_space(3), counting_space(4), counting_space(2)
    p1 = MarkovKernel(s3, s4, random_stochastic_matrix(4, 3, rng))
    p2 = MarkovKernel(s4, s2, random_stochastic_matrix(2, 4, rng))
    got = compose_kernels(p2, p1).matrix
    oracle = np.zeros((2, 3))
    for i in range(2):
        for j in range(3):
            for k in range(4):
                oracle[i, j] += p2.matrix[i, k] * p1.matrix[k, j]
    assert np.abs(got - oracle).max() <= 1e-12


def test_compose_space_mismatch():
    p1 = identity_kernel(counting_space(3))
    p2 = identity_kernel(counting_space(4))
    with pytest.raises(SpaceMismatch):
        compose_kernels(p2, p1)


def test_compose_associative():
    rng = np.random.default_rng(6)
    space = counting_space(4)
    kernels = [
        MarkovKernel(space, space, random_stochastic_matrix(4, 4, rng)) for _ in range(3)
    ]
    left = compose_kernels(kernels[2], compose_kernels(kernels[1], kernels[0]))
    right = compose_kernels(compose_kernels(kernels[2], kernels[1]), kernels[0])
    assert np.abs(left.matrix - right.matrix).max() <= 1e-12


def test_uniform_mixing_kernel_columns():
    k = uniform_mixing_kernel(counting_space(4))
    assert np.allclose(k.matrix, 0.25)
