import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridiq import io
from hybridiq.channel import (
    TRANSFER_QDIM_PRODUCT_LIMIT,
    HybridChannel,
    _apply_stack,
    _unchecked_from_rows,
    apply,
    completeness_defect,
    compose,
    extend_with_ancilla,
    from_blocks,
    from_coeff_kernel,
    from_rows,
    identity_channel,
    interaction_defect,
    non_interacting,
    random_channel,
)
from hybridiq.classical import (
    MarkovKernel,
    counting_space,
    identity_kernel,
    kernel_from_map,
)
from hybridiq.errors import (
    BadBasis,
    HybridError,
    IncompleteChannel,
    IncompleteKraus,
    NotPSDCoefficients,
    NumericalFailure,
    ShapeMismatch,
    SpaceMismatch,
)
from hybridiq.linalg import right_normalize
from hybridiq.locc import as_hybrid_channels
from hybridiq.properties import _random_protocol
from hybridiq.rand import (
    random_complex,
    random_density,
    random_kraus_set,
    random_probability_vector,
    random_stochastic_matrix,
)
from hybridiq.state import (
    classical_marginal,
    distance,
    mix,
    new_state,
    probability,
    product_state,
    quantum_marginal,
    random_state,
    tensor_with_quantum,
    condition_on_effect,
)
from hybridiq.rand import random_effect

X_GATE = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI = [
    np.eye(2, dtype=complex),
    X_GATE,
    np.array([[0.0, -1j], [1j, 0.0]]),
    np.diag([1.0, -1.0]).astype(complex),
]


def complete(raw):
    """The Kraus stack raw right-normalized into one complete set."""
    return right_normalize(raw, lambda _, problem: NumericalFailure(f"raw stack {problem}"))


def apply_oracle(channel, state):
    """Naive triple-loop evaluation of the Kraus-row sum."""
    out = np.zeros((channel.dst_space.size, channel.qdim_dst, channel.qdim_dst), dtype=complex)
    for m in range(channel.dst_space.size):
        for n in range(channel.src_space.size):
            for r in np.flatnonzero((channel.dst == m) & (channel.src == n)):
                L = channel.kraus[r]
                out[m] += L @ state.masses[n] @ L.conj().T
    return out


def blocks_of(channel):
    """The rows grouped into {(m, n): stacked Kraus operators}, in row order."""
    grouped = {}
    for m, n, L in zip(channel.dst.tolist(), channel.src.tolist(), channel.kraus):
        grouped.setdefault((m, n), []).append(L)
    return {key: np.stack(stack) for key, stack in grouped.items()}


def indop_oracle(kernel, kraus, state):
    """Direct evaluation of the non-interacting form on cell masses."""
    n_dst, n_src = kernel.matrix.shape
    q = kraus[0].shape[0]
    out = np.zeros((n_dst, q, q), dtype=complex)
    for m in range(n_dst):
        for n in range(n_src):
            for L in kraus:
                out[m] += kernel.matrix[m, n] * (L @ state.masses[n] @ L.conj().T)
    return out


def fhs_oracle(basis, coeffs, state, n_dst):
    """Direct double-sum evaluation of the coefficient-kernel form."""
    q = basis[0].shape[0]
    out = np.zeros((n_dst, q, q), dtype=complex)
    for m in range(n_dst):
        for n in range(state.space.size):
            for a, la in enumerate(basis):
                for b, lb in enumerate(basis):
                    out[m] += coeffs[m, n, a, b] * (la @ state.masses[n] @ lb.conj().T)
    return out


def test_from_blocks_identity_and_coin():
    one = counting_space(1)
    ch = from_blocks(one, one, 2, 2, {(0, 0): np.eye(2, dtype=complex)[None]})
    assert completeness_defect(ch) <= 1e-12

    two = counting_space(2)
    half = np.eye(2, dtype=complex) / np.sqrt(2.0)
    coin = from_blocks(one, two, 2, 2, {(0, 0): half[None], (1, 0): half[None]})
    w = new_state(one, np.stack([random_density(2, np.random.default_rng(0))]))
    out = apply(coin, w)
    assert np.allclose(classical_marginal(out).masses, [0.5, 0.5], atol=1e-12)


def test_from_blocks_incomplete():
    one = counting_space(1)
    with pytest.raises(IncompleteChannel) as info:
        from_blocks(one, one, 2, 2, {(0, 0): (np.sqrt(0.9) * np.eye(2, dtype=complex))[None]})
    assert info.value.cell == 0
    assert info.value.deviation == pytest.approx(0.1, abs=1e-12)


def test_incomplete_channel_names_first_bad_source():
    space = counting_space(4)
    eye = np.eye(2, dtype=complex)
    blocks = {(n, n): eye[None] for n in range(4)}
    blocks[(3, 3)] = 0.5 * eye[None]
    blocks[(0, 1)] = 0.5 * eye[None]  # cell 1 sums to 1.25 I, cell 3 to 0.25 I
    with pytest.raises(IncompleteChannel) as info:
        from_blocks(space, space, 2, 2, blocks)
    assert info.value.cell == 1
    assert info.value.deviation == pytest.approx(0.25, abs=1e-12)

    # a source cell without any rows is incomplete by the full identity
    del blocks[(0, 0)]
    with pytest.raises(IncompleteChannel) as info:
        from_blocks(space, space, 2, 2, blocks)
    assert info.value.cell == 0
    assert info.value.deviation == pytest.approx(1.0, abs=1e-12)


def test_rowless_channel_is_incomplete_without_allocating_per_cell_sums():
    space = counting_space(3)
    # cells x q^2 sums or an identity at q = 2**30 would not fit in memory
    with pytest.raises(IncompleteChannel) as info:
        from_rows(space, counting_space(1), 2**30, 1, [], [], ())
    assert (info.value.cell, info.value.deviation) == (0, 1.0)
    # no (0, 1, 2**62) complex array exists at all
    with pytest.raises(ShapeMismatch, match="do not fit in an array"):
        from_rows(space, space, 2**62, 1, [], [], ())


_ONE, _TWO = counting_space(1), counting_space(2)


# each constructor's own refusal of a malformed argument, through its public entry point
@pytest.mark.parametrize("error, match, call", [
    pytest.param(ShapeMismatch, "quantum dimensions must be positive",
                 lambda: from_rows(_ONE, _ONE, 0, 1, [0], [0], np.ones((1, 1, 0))), id="qdim-0"),
    pytest.param(ShapeMismatch, r"do not form \(R,\), \(R,\), \(R, 2, 2\)",
                 lambda: from_rows(_ONE, _ONE, 2, 2, [0, 0], [0], np.eye(2)[None]), id="rows"),
    pytest.param(ShapeMismatch, r"blocks at \(0, 0\) have shape \(1, 2, 3\)",
                 lambda: from_blocks(_ONE, _ONE, 2, 2, {(0, 0): np.ones((2, 3))}), id="block"),
    pytest.param(IncompleteKraus, r"must stack to \(k, d, d\), got shape \(1, 2, 3\)",
                 lambda: non_interacting(identity_kernel(_TWO), [np.ones((2, 3))]), id="kraus"),
    pytest.param(BadBasis, r"must stack to \(b, d, d\), got shape \(4, 2, 3\)",
                 lambda: from_coeff_kernel(_ONE, _ONE, np.ones((4, 2, 3)), np.zeros((1, 1, 4, 4))),
                 id="basis"),
    pytest.param(ShapeMismatch, r"coefficients have shape \(1, 2, 4, 4\), expected \(1, 1, 4, 4\)",
                 lambda: from_coeff_kernel(_ONE, _ONE, PAULI, np.zeros((1, 2, 4, 4))), id="coeffs"),
    pytest.param(SpaceMismatch, "destination of the first channel",
                 lambda: compose(identity_channel(_TWO, 2), identity_channel(_ONE, 2)), id="cells"),
    pytest.param(SpaceMismatch, "destination of the first channel",
                 lambda: compose(identity_channel(_TWO, 3), identity_channel(_TWO, 2)), id="qdims"),
    pytest.param(ShapeMismatch, "ancilla dimension must be positive",
                 lambda: extend_with_ancilla(identity_channel(_TWO, 2), 0), id="ancilla"),
    pytest.param(ShapeMismatch, "branching must be at least 1",
                 lambda: random_channel(_TWO, _TWO, 2, 2, branching=0, seed=0), id="branching"),
])
def test_constructors_refuse_malformed_arguments(error, match, call):
    with pytest.raises(error, match=match):
        call()


def test_identity_channel_is_identity():
    rng = np.random.default_rng(1)
    space = counting_space(3)
    w = random_state(space, 2, rng)
    out = apply(identity_channel(space, 2), w)
    assert np.abs(out.masses - w.masses).max() <= 1e-14


def test_apply_matches_oracle():
    rng = np.random.default_rng(2)
    src, dst = counting_space(3), counting_space(4)
    ch = random_channel(src, dst, 2, 3, branching=2, seed=rng)
    for _ in range(5):
        w = random_state(src, 2, rng)
        out = apply(ch, w)
        assert np.abs(out.masses - apply_oracle(ch, w)).max() <= 1e-11
        assert np.trace(out.masses.sum(axis=0)).real == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.eigvalsh(out.masses).min() >= -1e-9


# (2, 3) is above the transfer-table limit, the rest at or below it
@pytest.mark.parametrize("q_src, q_dst", [(2, 3), (2, 2), (1, 2), (2, 1), (1, 4), (4, 1)])
def test_apply_matches_oracle_on_ragged_rows(q_src, q_dst):
    # per-pair Kraus counts 3, 1 | 2, 0 (an empty stack), 4
    rng = np.random.default_rng(16)
    src, dst = counting_space(2), counting_space(3)
    layout = {0: {(2, 0): 1, (0, 0): 3}, 1: {(1, 1): 2, (0, 1): 0, (2, 1): 4}}
    blocks = {}
    for n, counts in layout.items():
        stack = complete(random_complex(rng, (sum(counts.values()), q_dst, q_src)))
        bounds = np.cumsum([0] + list(counts.values()))
        for (key, _), a, z in zip(counts.items(), bounds[:-1], bounds[1:]):
            blocks[key] = stack[a:z]
    ch = from_blocks(src, dst, q_src, q_dst, blocks)

    pairs = list(zip(ch.dst.tolist(), ch.src.tolist()))
    assert pairs == sorted(pairs)
    grouped = blocks_of(ch)
    assert sorted(grouped) == sorted(key for key, stack in blocks.items() if len(stack))
    for key, stack in grouped.items():
        assert np.array_equal(stack, blocks[key])  # each pair keeps its Kraus order
    states = [random_state(src, q_src, rng) for _ in range(3)]
    # a zero-mass source cell: its rows add nothing, and all of target 1's rows come from cell 1
    for empty in (0, 1):
        masses = np.zeros((2, q_src, q_src), dtype=complex)
        masses[1 - empty] = random_density(q_src, rng)
        states.append(new_state(src, masses))
    for w in states:
        assert np.abs(apply(ch, w).masses - apply_oracle(ch, w)).max() <= 1e-12
    # the table is cached exactly on the transfer side of the shape rule
    assert ("transfer" in vars(ch)) == (q_src * q_dst <= TRANSFER_QDIM_PRODUCT_LIMIT)


def _targets(pattern: str, n: int, n_src: int, n_dst: int, rng) -> list[int]:
    """Target cells of source n: every cell, a band, the hub 0 plus n's own
    cell, or a random subset of the lower half (the upper targets get no pairs)."""
    if pattern == "dense":
        return list(range(n_dst))
    if pattern == "banded":
        centre = n * n_dst // n_src
        return [m for m in range(centre - 1, centre + 2) if 0 <= m < n_dst]
    if pattern == "hub":
        return sorted({0, n % n_dst})
    lower = (n_dst + 1) // 2
    return sorted(rng.choice(lower, size=rng.integers(1, lower + 1), replace=False).tolist())


def _patterned_channel(pattern, n_src, n_dst, q_src, q_dst, rng):
    """Complete channel with 1-3 Kraus rows per cell pair of the pattern.

    A source whose rows are fewer than ceil(q_src / q_dst) gets the missing ones
    on its first target, so its stacked rows have full column rank and
    right_normalize can make them complete.
    """
    dst, src, stacks = [], [], []
    for n in range(n_src):
        counts = {m: int(rng.integers(1, 4)) for m in _targets(pattern, n, n_src, n_dst, rng)}
        short = -(-q_src // q_dst) - sum(counts.values())
        if short > 0:
            counts[next(iter(counts))] += short
        for m, k in counts.items():
            dst += [m] * k
            src += [n] * k
        stacks.append(complete(random_complex(rng, (sum(counts.values()), q_dst, q_src))))
    return from_rows(
        counting_space(n_src), counting_space(n_dst), q_src, q_dst, dst, src, np.concatenate(stacks)
    )


def test_patterned_channel_tops_up_rows_that_cannot_be_complete():
    # one hub pair drawing 1-3 rows of a 1x4 operator: four rows are needed for
    # sum L^dag L to be invertible, so the helper raised NumericalFailure before
    rng = np.random.default_rng(0)
    ch = _patterned_channel("hub", 1, 1, 4, 1, rng)
    assert len(ch.kraus) == 4
    w = random_state(ch.src_space, 4, rng)
    assert np.abs(apply(ch, w).masses - apply_oracle(ch, w)).max() <= 1e-12


# every (q_src, q_dst) with a product at or below the transfer limit, and two above it
_QDIMS = [(q_src, q_dst) for q_src in range(1, 5) for q_dst in range(1, 5) if q_src * q_dst <= 4]


@settings(max_examples=60)
@given(
    st.sampled_from(["dense", "banded", "hub", "sparse"]),
    st.integers(1, 7),
    st.integers(1, 7),
    st.sampled_from(_QDIMS + [(2, 3), (3, 3)]),
    st.lists(st.booleans(), min_size=7, max_size=7),
    st.integers(0, 2**32 - 1),
)
def test_apply_matches_oracle_on_every_pattern(pattern, n_src, n_dst, qdims, dead, seed):
    rng = np.random.default_rng(seed)
    q_src, q_dst = qdims
    ch = _patterned_channel(pattern, n_src, n_dst, q_src, q_dst, rng)
    masses = random_state(ch.src_space, q_src, rng).masses.copy()
    masses[np.flatnonzero(dead[:n_src])[: n_src - 1]] = 0.0  # zero-mass cells, one stays live
    w = new_state(ch.src_space, masses / np.trace(masses.sum(axis=0)).real)
    assert np.abs(apply(ch, w).masses - apply_oracle(ch, w)).max() <= 1e-12
    assert ("transfer" in vars(ch)) == (q_src * q_dst <= TRANSFER_QDIM_PRODUCT_LIMIT)
    if "transfer" in vars(ch):
        pairs = len(set(zip(ch.dst.tolist(), ch.src.tolist())))
        # only a channel whose every target reads every source has a transfer matrix
        assert (ch.transfer is None) == (pairs < n_src * n_dst)


def _sparse_kernel(src, dst, zeros, rng) -> MarkovKernel:
    """Random kernel with the entries flagged in ``zeros`` set to 0; each column keeps its largest."""
    p = random_stochastic_matrix(dst.size, src.size, rng)
    drop = np.asarray(zeros[: p.size]).reshape(p.shape) & (p < p.max(axis=0))
    p[drop] = 0.0
    return MarkovKernel(src, dst, p / p.sum(axis=0))


def _reusable_channel(family, n_src, n_dst, q_src, q_dst, k, zeros, rng):
    """A non_interacting channel (square, through JSON), a random_channel or a composition."""
    src, dst = counting_space(n_src), counting_space(n_dst)
    if family == "non_interacting":
        ch = non_interacting(_sparse_kernel(src, dst, zeros, rng), random_kraus_set(q_src, k, rng))
        return io.channel_from_json(json.loads(json.dumps(io.channel_to_json(ch))))

    def draw(a, b, q_b):
        # at least k branches, and enough for each source's rows to right-normalize
        return random_channel(a, b, q_src, q_b, max(k, -(-q_src // (b.size * q_b))), rng)

    if family == "random":
        return draw(src, dst, q_dst)
    mid = counting_space(int(rng.integers(1, 4)))
    first = draw(src, mid, q_src)
    return compose(draw(mid, dst, q_dst), first)


@settings(max_examples=60)
@given(
    st.sampled_from(["non_interacting", "random", "compose"]),
    st.integers(1, 5),
    st.integers(1, 5),
    st.sampled_from([(3, 3), (4, 4), (5, 5), (2, 3), (3, 2), (1, 5), (5, 1)]),
    st.integers(1, 3),
    st.lists(st.booleans(), min_size=25, max_size=25),
    st.integers(0, 2**32 - 1),
)
def test_reused_row_path_channel_matches_oracle_in_either_form(
    family, n_src, n_dst, qdims, k, zeros, seed
):
    rng = np.random.default_rng(seed)
    q_src, q_dst = qdims
    if family == "non_interacting":  # square, on the row path
        q_src = q_dst = max(qdims)
    else:
        k = min(k, 2)
    ch = _reusable_channel(family, n_src, n_dst, q_src, q_dst, k, zeros, rng)
    masses = random_state(ch.src_space, q_src, rng).masses.copy()
    masses[np.flatnonzero(zeros[:n_src])[: n_src - 1]] = 0.0  # zero-mass cells, one stays live
    w = new_state(ch.src_space, masses / np.trace(masses.sum(axis=0)).real)
    expected = apply_oracle(ch, w)
    # the first apply runs the rows, the second the form the channel selects
    for _ in range(2):
        assert np.abs(apply(ch, w).masses - expected).max() <= 1e-12
    assert "source_basis" in vars(ch)


def test_source_basis_is_built_on_the_second_apply_where_it_pays():
    rng = np.random.default_rng(24)
    space = counting_space(8)
    kernel = MarkovKernel(space, space, random_stochastic_matrix(8, 8, rng))
    ch = non_interacting(kernel, random_kraus_set(16, 2, rng))
    w = random_state(space, 16, rng)
    once = apply(ch, w)
    assert "source_basis" not in vars(ch)  # a channel applied once pays no factorisation
    for _ in range(2):
        assert np.abs(apply(ch, w).masses - once.masses).max() <= 1e-15
    left, right, gram = ch.source_basis
    # rows sqrt(P(m|n)) L_a: each source spans the two Kraus operators
    assert left.shape == (8, 2 * 16, 16) and right.shape == (8, 16, 2 * 16)
    assert gram.shape == (8, 8 * 2 * 2)
    assert not any(arr.flags.writeable for arr in (left, right, gram))
    basis = left.reshape(8, 2, 256)
    assert np.abs(basis @ basis.conj().swapaxes(1, 2) - np.eye(2)).max() <= 1e-12

    # one row per cell pair, every row independent: rank 8 per source, the rows stay
    mixing = random_channel(space, space, 16, 16, branching=1, seed=rng)
    for _ in range(3):
        assert np.abs(apply(mixing, w).masses - apply_oracle(mixing, w)).max() <= 1e-12
    assert mixing.source_basis is None


def test_source_basis_frees_the_target_groups_the_first_apply_built():
    rng = np.random.default_rng(30)
    space = counting_space(8)
    kernel = MarkovKernel(space, space, random_stochastic_matrix(8, 8, rng))
    ch = non_interacting(kernel, random_kraus_set(16, 2, rng))
    w = random_state(space, 16, rng)
    expected = apply_oracle(ch, w)
    assert np.abs(apply(ch, w).masses - expected).max() <= 1e-12
    assert "target_groups" in vars(ch)  # the first apply runs the rows
    for _ in range(2):
        assert np.abs(apply(ch, w).masses - expected).max() <= 1e-12
    assert ch.source_basis is not None and "target_groups" not in vars(ch)


def test_source_basis_shape_rule_rejects_before_any_factorisation(svd_calls):
    rng = np.random.default_rng(25)
    # one row per source: a rank-1 basis per source costs as much as the rows, plus the Grams
    ch = random_channel(counting_space(4), counting_space(1), 3, 3, branching=1, seed=rng)
    w = random_state(ch.src_space, 3, rng)
    for _ in range(2):
        assert np.abs(apply(ch, w).masses - apply_oracle(ch, w)).max() <= 1e-12
    assert ch.source_basis is None and not svd_calls


def test_transfer_splits_a_hub_target_into_slices():
    # the transfer is one dense matrix or None: a hub or sparse channel, with empty cell
    # pairs, has no matrix and applies through the row path instead of per-target slices
    rng = np.random.default_rng(19)
    # 6 sources decay to cell 0 and keep their own cell: 11 of 36 pairs
    hub = _patterned_channel("hub", 6, 6, 2, 2, rng)
    # the upper half of the targets gets no pairs
    sparse = _patterned_channel("sparse", 4, 4, 2, 2, rng)
    dense = random_channel(counting_space(3), counting_space(4), 2, 2, branching=2, seed=rng)
    assert hub.transfer is None and sparse.transfer is None
    assert dense.transfer.shape == (4 * 4, 3 * 4) and not dense.transfer.flags.writeable
    for ch in (hub, sparse, dense):
        w = random_state(ch.src_space, 2, rng)
        assert np.abs(apply(ch, w).masses - apply_oracle(ch, w)).max() <= 1e-12


def test_rowless_channel_has_an_empty_transfer_table():
    # no cell pair has rows, so there is no transfer matrix at all
    ch = _unchecked_from_rows(counting_space(3), counting_space(2), 2, 1, [], [], ())
    assert ch.transfer is None
    w = random_state(ch.src_space, 2, np.random.default_rng(20))
    with pytest.raises(HybridError):  # all output mass is zero
        apply(ch, w)


def test_transfer_matrix_starts_at_a_32_byte_boundary():
    rng = np.random.default_rng(27)
    shapes = [(1, 1, 1, 1), (3, 4, 2, 2), (5, 2, 1, 4), (2, 3, 4, 1), (9, 7, 2, 2)]
    for n_src, n_dst, q_src, q_dst in shapes:
        ch = random_channel(counting_space(n_src), counting_space(n_dst), q_src, q_dst, 2, rng)
        table = ch.transfer
        assert table.shape == (n_dst * q_dst**2, n_src * q_src**2)
        assert table.ctypes.data % 32 == 0
        assert table.flags.c_contiguous and not table.flags.writeable
        w = random_state(ch.src_space, q_src, rng)
        assert np.abs(apply(ch, w).masses - apply_oracle(ch, w)).max() <= 1e-12


def _check_target_groups(ch):
    """Each group's arrays against the rows of its targets, read-only; returns each group's k."""
    counts = np.bincount(ch.dst, minlength=ch.dst_space.size)
    q_dst, q_src = ch.qdim_dst, ch.qdim_src
    for cells, src, left, adjoint in ch.target_groups:
        t, k = src.shape
        assert np.array_equal(cells, np.flatnonzero(counts == k))
        rows = np.isin(ch.dst, cells)
        kraus = ch.kraus[rows].reshape(t, k, q_dst, q_src)
        assert np.array_equal(src, ch.src[rows].reshape(t, k))
        assert np.array_equal(left, kraus.transpose(0, 2, 1, 3).reshape(t, q_dst, k * q_src))
        assert np.array_equal(adjoint, kraus.conj().swapaxes(2, 3))
        assert not any(arr.flags.writeable for arr in (cells, src, left, adjoint))
    return [src.shape[1] for _, src, _, _ in ch.target_groups]


def test_target_groups_are_one_group_where_every_target_holds_the_same_rows():
    rng = np.random.default_rng(28)
    space = counting_space(4)
    kernel = MarkovKernel(space, space, random_stochastic_matrix(4, 4, rng))
    assert (kernel.matrix > 0).all()  # a full kernel: every cell pair holds the two rows
    rounds = as_hybrid_channels(_random_protocol(rng))
    channels = [
        random_channel(space, counting_space(3), 3, 2, 2, rng),
        non_interacting(kernel, random_kraus_set(3, 2, rng)),
        *rounds,
    ]
    assert len(rounds) > 1
    for ch in channels:
        (k,) = _check_target_groups(ch)
        assert k * ch.dst_space.size == ch.src.size
        w = random_state(ch.src_space, ch.qdim_src, rng)
        assert np.abs(_apply_stack(ch, w.masses[None])[0] - apply_oracle(ch, w)).max() <= 1e-12


@pytest.mark.parametrize("pattern", ["hub", "sparse"])
def test_target_groups_hold_one_group_per_row_count(pattern):
    rng = np.random.default_rng(29)
    ch = _patterned_channel(pattern, 6, 6, 3, 3, rng)
    counts = np.bincount(ch.dst, minlength=6)
    assert _check_target_groups(ch) == sorted(set(counts[counts > 0].tolist()))
    assert len(ch.target_groups) > 1
    w = random_state(ch.src_space, 3, rng)
    out = _apply_stack(ch, w.masses[None])[0]
    assert np.abs(out - apply_oracle(ch, w)).max() <= 1e-12
    # the sparse pattern leaves the upper targets without rows: their output is exactly zero
    assert (pattern == "sparse") == (counts == 0).any()
    assert not out[counts == 0].any()


def _pair_map_oracle(channel):
    """{(m, n): sum_r kron(L_r, conj(L_r))} over each cell pair's rows, by a literal loop."""
    maps = {}
    for m, n, L in zip(channel.dst.tolist(), channel.src.tolist(), channel.kraus):
        maps[m, n] = maps.get((m, n), 0) + np.kron(L, L.conj())
    return maps


def _transfer_table_maps(channel):
    """{(m, n): T_mn} read back from block (m, n) of the dense transfer matrix."""
    n_dst, n_src = channel.dst_space.size, channel.src_space.size
    blocks = channel.transfer.reshape(n_dst, channel.qdim_dst**2, n_src, channel.qdim_src**2)
    return {(m, n): blocks[m, :, n] for m in range(n_dst) for n in range(n_src)}


def _interaction_defect_oracle(channel):
    """max |T_mn - P(m|n) T_0| with T_0 = sum_m T_m0 and P(m|n) = <T_0, T_mn> / <T_0, T_0>."""
    maps = _pair_map_oracle(channel)
    t0 = sum(t for (_, n), t in maps.items() if n == 0)
    return max(np.abs(t - np.vdot(t0, t) / np.vdot(t0, t0).real * t0).max() for t in maps.values())


def _per_pair_channel(family, rng):
    """Patterned channels of rectangular rows, or a channel with non-interacting subsystems."""
    space = counting_space(4)
    if family in ("dense", "sparse", "hub"):
        q_src, q_dst = {"dense": (2, 2), "sparse": (2, 1), "hub": (1, 3)}[family]
        return _patterned_channel(family, 4, 3, q_src, q_dst, rng)
    if family == "random":
        return random_channel(space, counting_space(3), 2, 2, 2, rng)
    kernel = lambda: MarkovKernel(space, space, random_stochastic_matrix(4, 4, rng))
    ch = non_interacting(kernel(), random_kraus_set(2, 2, rng))
    if family == "composed":
        return compose(non_interacting(kernel(), random_kraus_set(2, 3, rng)), ch)
    return extend_with_ancilla(ch, 2) if family == "ancilla" else ch


@pytest.mark.parametrize(
    "family", ["dense", "sparse", "hub", "random", "non_interacting", "composed", "ancilla"]
)
def test_transfer_table_and_interaction_defect_match_a_per_pair_loop(family):
    ch = _per_pair_channel(family, np.random.default_rng(27))
    oracle = _pair_map_oracle(ch)
    # the sparse and hub patterns leave some cell pair without rows, and so without a matrix
    assert (ch.transfer is None) == (family in ("sparse", "hub"))
    assert (len(oracle) < ch.dst_space.size * ch.src_space.size) == (ch.transfer is None)
    if ch.transfer is not None:
        for pair, t in _transfer_table_maps(ch).items():
            assert np.abs(t - oracle[pair]).max() <= 1e-14
    defect = interaction_defect(ch)
    assert abs(defect - _interaction_defect_oracle(ch)) <= 1e-14
    # only the families built from non_interacting measure zero
    assert (defect <= 1e-14) == (family in ("non_interacting", "composed", "ancilla"))


def test_apply_at_qdim_1_is_the_classical_kernel():
    rng = np.random.default_rng(18)
    src, dst = counting_space(4), counting_space(3)
    kernel = MarkovKernel(src, dst, random_stochastic_matrix(3, 4, rng))
    w = random_state(src, 1, rng)
    out = apply(non_interacting(kernel, [np.eye(1)]), w)
    p = w.masses[:, 0, 0].real
    assert np.abs(out.masses[:, 0, 0] - kernel.matrix @ p).max() <= 1e-12


@pytest.mark.parametrize("cells, qdim, branching", [(32, 2, 1), (4, 16, 2)])
def test_apply_matches_oracle_at_scale(cells, qdim, branching):
    rng = np.random.default_rng(cells)
    space = counting_space(cells)
    ch = random_channel(space, space, qdim, qdim, branching=branching, seed=rng)
    assert ch.kraus.shape[0] == cells * cells * branching
    w = random_state(space, qdim, rng)
    assert np.abs(apply(ch, w).masses - apply_oracle(ch, w)).max() <= 1e-12


def test_from_rows_sorts_copies_and_freezes():
    rng = np.random.default_rng(17)
    one, two = counting_space(1), counting_space(2)
    kraus = complete(random_complex(rng, (3, 2, 2)))
    ch = from_rows(one, two, 2, 2, [1, 0, 1], [0, 0, 0], kraus)
    assert ch.dst.tolist() == [0, 1, 1] and ch.src.tolist() == [0, 0, 0]
    assert np.array_equal(ch.kraus, kraus[[1, 0, 2]])  # stable within the (1, 0) pair
    kraus[:] = 0.0
    assert completeness_defect(ch) <= 1e-12
    for arr in (ch.dst, ch.src, ch.kraus):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_apply_space_mismatch():
    ch = identity_channel(counting_space(2), 2)
    w = random_state(counting_space(3), 2, 0)
    with pytest.raises(SpaceMismatch):
        apply(ch, w)


def test_non_interacting_identity():
    space = counting_space(2)
    ch = non_interacting(identity_kernel(space), [np.eye(2)])
    w = random_state(space, 2, 5)
    assert np.abs(apply(ch, w).masses - w.masses).max() <= 1e-14


def test_non_interacting_swap_with_x_gate():
    space = counting_space(2)
    rng = np.random.default_rng(3)
    rho, tau = random_density(2, rng), random_density(2, rng)
    w = new_state(space, np.stack([0.3 * rho, 0.7 * tau]))
    swap = kernel_from_map(space, [1, 0])
    ch = non_interacting(swap, [X_GATE])
    out = apply(ch, w)
    assert np.allclose(out.masses[0], 0.7 * X_GATE @ tau @ X_GATE, atol=1e-12)
    assert np.allclose(out.masses[1], 0.3 * X_GATE @ rho @ X_GATE, atol=1e-12)


def test_non_interacting_swap_moves_masses():
    space = counting_space(2)
    rng = np.random.default_rng(4)
    rho, tau = random_density(2, rng), random_density(2, rng)
    w = new_state(space, np.stack([0.3 * rho, 0.7 * tau]))
    ch = non_interacting(kernel_from_map(space, [1, 0]), [np.eye(2)])
    out = apply(ch, w)
    assert np.allclose(out.masses[0], 0.7 * tau, atol=1e-12)
    assert np.allclose(out.masses[1], 0.3 * rho, atol=1e-12)


def test_non_interacting_evolves_marginals_independently():
    rng = np.random.default_rng(5)
    src, dst = counting_space(3), counting_space(4)
    kernel = MarkovKernel(src, dst, random_stochastic_matrix(4, 3, rng))
    kraus = random_kraus_set(2, 3, rng)
    ch = non_interacting(kernel, kraus)

    f = random_probability_vector(3, rng)
    rho = random_density(2, rng)
    out = apply(ch, product_state(src, f, rho))

    f_expected = kernel.matrix @ f
    rho_expected = sum(L @ rho @ L.conj().T for L in kraus)
    assert np.allclose(classical_marginal(out).masses, f_expected, atol=1e-11)
    assert np.allclose(quantum_marginal(out), rho_expected, atol=1e-11)
    # output is again a product state
    expected = f_expected[:, None, None] * rho_expected
    assert np.abs(out.masses - expected).max() <= 1e-11


def test_non_interacting_matches_indop_oracle():
    rng = np.random.default_rng(6)
    src, dst = counting_space(3), counting_space(2)
    kernel = MarkovKernel(src, dst, random_stochastic_matrix(2, 3, rng))
    kraus = random_kraus_set(2, 2, rng)
    ch = non_interacting(kernel, kraus)
    w = random_state(src, 2, rng)
    assert np.abs(apply(ch, w).masses - indop_oracle(kernel, kraus, w)).max() <= 1e-12


def test_non_interacting_rejects_bad_kraus():
    space = counting_space(2)
    with pytest.raises(IncompleteKraus):
        non_interacting(identity_kernel(space), [0.9 * np.eye(2)])


def test_compose_identity_and_permutations():
    rng = np.random.default_rng(7)
    space = counting_space(3)
    ch = random_channel(space, space, 2, 2, branching=2, seed=rng)
    both = compose(identity_channel(space, 2), ch)
    w = random_state(space, 2, rng)
    assert np.abs(apply(both, w).masses - apply(ch, w).masses).max() <= 1e-12

    perm1 = non_interacting(kernel_from_map(space, [1, 2, 0]), [np.eye(2)])
    perm2 = non_interacting(kernel_from_map(space, [2, 0, 1]), [np.eye(2)])
    out = apply(compose(perm2, perm1), w)
    assert np.abs(out.masses - w.masses).max() <= 1e-12  # the two cycles cancel


_PATTERNS = ("dense", "banded", "hub", "sparse")
_FAMILIES = _PATTERNS + ("non_interacting", "random", "compose")


def _chain_link(family, n_src, n_dst, q_src, q_dst, k, zeros, rng):
    """A channel of one of _PATTERNS or of _reusable_channel's families.

    A family that cannot make these qdims draws a random_channel instead: a
    pattern with 1 row per pair may not right-normalize when q_src > q_dst,
    and non_interacting is square.
    """
    if family in _PATTERNS and q_src <= q_dst:
        return _patterned_channel(family, n_src, n_dst, q_src, q_dst, rng)
    if family in _PATTERNS or (family == "non_interacting" and q_src != q_dst):
        family = "random"
    return _reusable_channel(family, n_src, n_dst, q_src, q_dst, k, zeros, rng)


@settings(max_examples=60)
@given(
    st.lists(st.sampled_from(_FAMILIES), min_size=3, max_size=3),
    st.lists(st.integers(1, 4), min_size=4, max_size=4),
    st.lists(st.integers(1, 4), min_size=4, max_size=4),
    st.integers(1, 2),
    st.lists(st.booleans(), min_size=16, max_size=16),
    st.integers(0, 2**32 - 1),
)
# two rank-1 non_interacting links compose to one rank-1 row per pair: source_basis pays
@example(["non_interacting", "non_interacting", "dense"], [3, 3, 3, 2], [3, 3, 3, 3], 1,
         [False] * 16, 0)
def test_compose_matches_sequential_and_associativity(families, cells, qdims, k, zeros, seed):
    # qdims up to 4 put links and compositions on both sides of the transfer rule
    # (q_dst * q_src <= 4); on the row path source_basis is measured and, in the
    # example, kept
    rng = np.random.default_rng(seed)
    ch1, ch2, ch3 = (
        _chain_link(families[i], cells[i], cells[i + 1], qdims[i], qdims[i + 1], k, zeros, rng)
        for i in range(3)
    )
    w = random_state(ch1.src_space, qdims[0], rng)

    composed = compose(ch2, ch1)
    sequential = apply(ch2, apply(ch1, w)).masses
    for _ in range(2):  # a row-path channel's second apply may run its source_basis
        assert np.abs(apply(composed, w).masses - sequential).max() <= 1e-10

    left = compose(ch3, composed)
    right = compose(compose(ch3, ch2), ch1)
    assert np.abs(apply(left, w).masses - apply(right, w).masses).max() <= 1e-10
    for ch in (composed, left, right):
        assert all(
            stack.shape[0] <= ch.qdim_src * ch.qdim_dst for stack in blocks_of(ch).values()
        )


def test_compose_bounds_blocks_on_block_blowup():
    # 110 x 110 = 12100 product blocks refactor into at most q_dst * q_src = 16
    rng = np.random.default_rng(9)
    space = counting_space(1)
    big1 = random_channel(space, space, 4, 4, branching=110, seed=rng)
    big2 = random_channel(space, space, 4, 4, branching=110, seed=rng)
    both = compose(big2, big1)
    assert isinstance(both, HybridChannel)
    assert blocks_of(both)[(0, 0)].shape[0] <= 16
    w = random_state(space, 4, rng)
    expected = apply(big2, apply(big1, w))
    assert np.abs(apply(both, w).masses - expected.masses).max() <= 1e-12


def test_coeff_kernel_pauli_reduces_to_non_interacting():
    rng = np.random.default_rng(10)
    src, dst = counting_space(3), counting_space(3)
    p = random_stochastic_matrix(3, 3, rng)
    coeffs = np.zeros((3, 3, 4, 4), dtype=complex)
    coeffs[:, :, 0, 0] = p
    ch = from_coeff_kernel(src, dst, PAULI, coeffs)
    ch_ref = non_interacting(MarkovKernel(src, dst, p), [np.eye(2)])
    w = random_state(src, 2, rng)
    assert np.abs(apply(ch, w).masses - apply(ch_ref, w).masses).max() <= 1e-11


def test_coeff_kernel_matches_fhs_oracle():
    rng = np.random.default_rng(11)
    src, dst = counting_space(2), counting_space(3)
    basis = PAULI
    # Hermitian PSD coefficient matrices with per-source completeness: for each
    # source cell spread CPTP Kraus sets over target cells with kernel weights
    p = random_stochastic_matrix(3, 2, rng)
    coeffs = np.zeros((3, 2, 4, 4), dtype=complex)
    gram = np.linalg.inv(np.array([[np.trace(a.conj().T @ b) for b in basis] for a in basis]))
    for n in range(2):
        kraus = random_kraus_set(2, 3, rng)
        expand = np.array([[np.trace(b.conj().T @ k) for b in basis] for k in kraus]) @ gram.T
        s = expand.T @ expand.conj()  # sum over kraus of outer products, PSD
        for m in range(3):
            coeffs[m, n] = p[m, n] * s
    ch = from_coeff_kernel(src, dst, basis, coeffs)
    w = random_state(src, 2, rng)
    got = apply(ch, w).masses
    assert np.abs(got - fhs_oracle(basis, coeffs, w, 3)).max() <= 1e-10


def test_coeff_kernel_two_level_branch_example():
    # plus branch mixes classically by a stochastic kernel, minus branch moves
    # deterministically; the two classical branch distributions evolve
    # independently of each other
    rng = np.random.default_rng(12)
    n_cells = 4
    space = counting_space(n_cells)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    proj_p = np.outer(plus, plus).astype(complex)
    proj_m = np.outer(minus, minus).astype(complex)
    basis = [proj_p, proj_m, np.outer(plus, minus).astype(complex), np.outer(minus, plus).astype(complex)]

    h = random_stochastic_matrix(n_cells, n_cells, rng)
    phi = [1, 2, 3, 0]
    phi_matrix = kernel_from_map(space, phi).matrix
    coeffs = np.zeros((n_cells, n_cells, 4, 4), dtype=complex)
    coeffs[:, :, 0, 0] = h
    coeffs[:, :, 1, 1] = phi_matrix
    ch = from_coeff_kernel(space, space, basis, coeffs)

    w = random_state(space, 2, rng)
    out = apply(ch, w)

    mass_p = np.einsum("i,nij,j->n", plus.conj(), w.masses, plus).real
    mass_m = np.einsum("i,nij,j->n", minus.conj(), w.masses, minus).real
    out_p = np.einsum("i,nij,j->n", plus.conj(), out.masses, plus).real
    out_m = np.einsum("i,nij,j->n", minus.conj(), out.masses, minus).real
    assert np.allclose(out_p, h @ mass_p, atol=1e-11)
    assert np.allclose(out_m, phi_matrix @ mass_m, atol=1e-11)
    # coherences between the branches are wiped out
    assert np.abs(np.einsum("i,nij,j->n", plus.conj(), out.masses, minus)).max() <= 1e-12


def test_coeff_kernel_rejects_bad_inputs():
    space = counting_space(1)
    coeffs = np.zeros((1, 1, 4, 4), dtype=complex)
    coeffs[0, 0, 0, 0] = 1.1
    coeffs[0, 0, 1, 1] = -0.1
    with pytest.raises(NotPSDCoefficients) as info:
        from_coeff_kernel(space, space, PAULI, coeffs)
    assert (info.value.m, info.value.n) == (0, 0)
    with pytest.raises(BadBasis):
        from_coeff_kernel(space, space, PAULI[:3] + [PAULI[0]], np.zeros((1, 1, 4, 4)))
    with pytest.raises(BadBasis):
        from_coeff_kernel(space, space, PAULI[:3], np.zeros((1, 1, 3, 3)))


def test_extend_with_ancilla():
    rng = np.random.default_rng(13)
    space = counting_space(2)
    ch = random_channel(space, space, 2, 2, branching=2, seed=rng)
    assert extend_with_ancilla(ch, 1) is ch

    ext = extend_with_ancilla(ch, 3)
    assert ext.qdim_src == 6
    w = random_state(space, 2, rng)
    rho_q = random_density(3, rng)
    lhs = apply(ext, tensor_with_quantum(w, rho_q))
    rhs = tensor_with_quantum(apply(ch, w), rho_q)
    assert np.abs(lhs.masses - rhs.masses).max() <= 1e-11


def test_commuting_diagram_vieq():
    rng = np.random.default_rng(14)
    space = counting_space(3)
    d, d_q = 2, 2
    ch = random_channel(space, space, d, d, branching=2, seed=rng)
    big = random_state(space, d * d_q, rng)
    f = random_effect(d_q, rng)
    e = random_effect(d, rng)
    event = [0, 2]

    prob_f = probability(big, range(3), np.kron(np.eye(d), f))
    cond = condition_on_effect(big, f)
    rhs = prob_f * probability(apply(ch, cond.state), event, e)
    lhs = probability(apply(extend_with_ancilla(ch, d_q), big), event, np.kron(e, f))
    assert lhs == pytest.approx(rhs, abs=1e-9)

    # ancilla marginal untouched
    from hybridiq.linalg import partial_trace

    before = sum(partial_trace(m, d, d_q, "A") for m in big.masses)
    after_state = apply(extend_with_ancilla(ch, d_q), big)
    after = sum(partial_trace(m, d, d_q, "A") for m in after_state.masses)
    assert np.abs(before - after).max() <= 1e-10


def test_channel_contraction_and_convex_linearity():
    rng = np.random.default_rng(15)
    src, dst = counting_space(3), counting_space(2)
    ch = random_channel(src, dst, 2, 2, branching=2, seed=rng)
    w1, w2 = random_state(src, 2, rng), random_state(src, 2, rng)
    assert distance(apply(ch, w1), apply(ch, w2)) <= distance(w1, w2) + 1e-9
    t = rng.uniform()
    lhs = apply(ch, mix(w1, w2, t))
    rhs_masses = t * apply(ch, w1).masses + (1 - t) * apply(ch, w2).masses
    assert np.abs(lhs.masses - rhs_masses).max() <= 1e-11


def test_random_channel_determinism():
    src, dst = counting_space(2), counting_space(3)
    ch1 = random_channel(src, dst, 2, 2, branching=2, seed=99)
    ch2 = random_channel(src, dst, 2, 2, branching=2, seed=99)
    blocks1, blocks2 = blocks_of(ch1), blocks_of(ch2)
    assert sorted(blocks1) == sorted(blocks2)
    for key in blocks1:
        assert np.array_equal(blocks1[key], blocks2[key])
    assert completeness_defect(ch1) <= 1e-12


class _ZerosAfter(np.random.Generator):
    """Generator whose standard normal draws are zeros after the first ``live`` calls."""

    def __init__(self, live):
        super().__init__(np.random.PCG64(0))
        self.live = live

    def standard_normal(self, size=None):
        self.live -= 1
        return super().standard_normal(size) if self.live >= 0 else np.zeros(size)


@pytest.mark.parametrize("live, cell", [(0, 0), (2, 1)])
def test_random_channel_names_the_first_singular_source_cell(live, cell):
    # random_complex makes two draws per source cell: with live = 2 only cell 0 is non-zero
    with pytest.raises(NumericalFailure, match=rf"^normalizer for source cell {cell} is singular$"):
        random_channel(counting_space(3), counting_space(2), 2, 2, 1, _ZerosAfter(live))


def _form_channel(form, rng):
    space = counting_space(4)
    if form == "rows":
        return random_channel(space, counting_space(3), 3, 3, 1, rng)
    if form == "transfer":  # dense: every target reads every source
        return random_channel(space, counting_space(3), 2, 2, 2, rng)
    # the sparse and hub forms are small enough for the transfer matrix but have rowless
    # cell pairs, so they fall through to the basis or row form
    if form == "sparse transfer":  # each target reads two sources
        p = (np.eye(4) + np.roll(np.eye(4), 1, axis=0)) / 2
        return non_interacting(MarkovKernel(space, space, p), random_kraus_set(2, 2, rng))
    if form == "ragged rows":  # target 0 reads every source, targets 1-3 only their own cell
        p = np.eye(4) / 2
        p[0] += 0.5
        return non_interacting(MarkovKernel(space, space, p), random_kraus_set(3, 2, rng))
    p = random_stochastic_matrix(4, 4, rng)
    if form == "hub transfer":  # every source feeds target 0, and sources 1-3 feed only it
        p[1:, 1:] = 0.0
        p /= p.sum(axis=0)
    q = 2 if form == "hub transfer" else 3
    return non_interacting(MarkovKernel(space, space, p), random_kraus_set(q, 2, rng))


@pytest.mark.parametrize(
    "form", ["transfer", "sparse transfer", "hub transfer", "rows", "ragged rows", "basis"]
)
def test_stacked_apply_is_per_state_apply_in_each_form(form):
    rng = np.random.default_rng(26)
    ch = _form_channel(form, rng)
    states = [random_state(ch.src_space, ch.qdim_src, rng) for _ in range(3)]
    out = _apply_stack(ch, np.stack([w.masses for w in states]))
    assert out.shape == (3, ch.dst_space.size, ch.qdim_dst, ch.qdim_dst)
    if "transfer" in form:
        assert ch.qdim_src * ch.qdim_dst <= TRANSFER_QDIM_PRODUCT_LIMIT
        assert (ch.transfer is None) == (form != "transfer")
    else:  # a stack of three counts as a repeat apply: source_basis is measured
        assert (ch.source_basis is not None) == (form == "basis")
        # the ragged channel's 8-row and 2-row targets run as two groups
        assert len(ch.target_groups) == (2 if form == "ragged rows" else 1)
    # each later apply is a repeat, so it runs the same form as the stack
    for w, stacked in zip(states, out):
        assert np.array_equal(apply(ch, w).masses, new_state(ch.dst_space, stacked).masses)
        assert np.abs(stacked - apply_oracle(ch, w)).max() <= 1e-11
