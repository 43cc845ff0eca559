import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridiq.classical import counting_space
from hybridiq.correlations import Ensemble
from hybridiq.errors import (
    DimensionMismatch, HybridError, NotAnEnsemble, NotAState, NotHermitian, NotNormalized,
    NotPositive, NumericalFailure,
)
from hybridiq.linalg import (
    HERMITICITY_TOL,
    PSD_TOL,
    TRACE_TOL,
    _density_spectrum,
    _require_density,
    block_margins,
    entropies,
    hermitian_eig,
    is_psd,
    kraus_defect,
    partial_trace,
    partial_transpose,
    relative_entropy,
    right_normalize,
    spectra,
    trace_norm,
    von_neumann_entropy,
)
from hybridiq.locc import PPT_TOL, is_ppt
from hybridiq.rand import random_complex, random_density, random_kraus_set, random_unitary
from hybridiq.state import HybridState, new_state


def char_poly_coeffs(m):
    """Characteristic polynomial coefficients via the Faddeev-LeVerrier recursion."""
    d = m.shape[0]
    coeffs = [1.0 + 0j]
    mk = np.zeros((d, d), dtype=complex)
    for k in range(1, d + 1):
        mk = m @ (mk + coeffs[-1] * np.eye(d))
        coeffs.append(-np.trace(mk) / k)
    return np.array(coeffs)


def test_hermitian_eig_identity():
    eig = hermitian_eig(np.eye(2))
    assert np.allclose(eig.eigenvalues, [1.0, 1.0])


def test_hermitian_eig_diagonal_sorted():
    eig = hermitian_eig(np.diag([3.0, -1.0]).astype(complex))
    assert np.allclose(eig.eigenvalues, [3.0, -1.0])


def test_hermitian_eig_matches_char_poly_roots():
    rng = np.random.default_rng(7)
    g = random_complex(rng, (4, 4))
    m = (g + g.conj().T) / 2
    eig = hermitian_eig(m)
    roots = np.sort(np.roots(char_poly_coeffs(m)).real)[::-1]
    assert np.allclose(eig.eigenvalues, roots, atol=1e-8)


def test_hermitian_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(11)
    for d in (1, 2, 5, 8):
        g = random_complex(rng, (d, d))
        m = (g + g.conj().T) / 2
        vals, vecs = hermitian_eig(m)
        recon = (vecs * vals) @ vecs.conj().T
        assert np.linalg.norm(recon - m) <= 1e-10 * max(np.linalg.norm(m), 1.0)
        assert np.abs(vecs.conj().T @ vecs - np.eye(d)).max() <= 1e-10
        assert abs(vals.sum() - np.trace(m).real) <= 1e-10 * max(1.0, abs(np.trace(m).real))


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eig_rejects_nan():
    with pytest.raises(NumericalFailure):
        hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_trace_norm_basics():
    assert trace_norm(np.eye(2)) == pytest.approx(2.0)
    assert trace_norm(np.diag([0.5, -0.5])) == pytest.approx(1.0)
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    assert trace_norm(p0 - p1) == pytest.approx(2.0)


def test_trace_norm_is_a_norm():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = random_complex(rng, (4, 4))
        b = random_complex(rng, (4, 4))
        s = rng.normal()
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10
        assert abs(trace_norm(s * a) - abs(s) * trace_norm(a)) <= 1e-10 * (1 + trace_norm(a))


def test_partial_trace_product_factorization():
    rng = np.random.default_rng(5)
    rho = random_density(2, rng)
    tau = random_complex(rng, (3, 3))
    m = np.kron(rho, tau)
    assert np.allclose(partial_trace(m, 2, 3, "B"), rho * np.trace(tau), atol=1e-12)
    assert np.allclose(partial_trace(np.eye(6), 2, 3, "A"), 2 * np.eye(3), atol=1e-12)


def test_partial_trace_matches_index_sum_oracle():
    rng = np.random.default_rng(9)
    m = random_complex(rng, (6, 6))
    got_b = partial_trace(m, 2, 3, "B")
    got_a = partial_trace(m, 2, 3, "A")
    oracle_b = np.zeros((2, 2), dtype=complex)
    oracle_a = np.zeros((3, 3), dtype=complex)
    for i in range(2):
        for j in range(2):
            for b in range(3):
                oracle_b[i, j] += m[i * 3 + b, j * 3 + b]
    for a in range(3):
        for b in range(3):
            for i in range(2):
                oracle_a[a, b] += m[i * 3 + a, i * 3 + b]
    assert np.abs(got_b - oracle_b).max() <= 1e-12
    assert np.abs(got_a - oracle_a).max() <= 1e-12
    assert abs(np.trace(got_b) - np.trace(m)) <= 1e-12 * max(1.0, abs(np.trace(m)))


def test_partial_trace_linearity():
    rng = np.random.default_rng(13)
    m1 = random_complex(rng, (6, 6))
    m2 = random_complex(rng, (6, 6))
    a, b = 0.3, -1.7
    lhs = partial_trace(a * m1 + b * m2, 2, 3, "B")
    rhs = a * partial_trace(m1, 2, 3, "B") + b * partial_trace(m2, 2, 3, "B")
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        partial_trace(np.eye(5), 2, 3, "B")


@pytest.mark.parametrize("op", [partial_trace, partial_transpose])
def test_partial_ops_refuse_a_bad_side_and_a_non_factoring_dimension(op):
    with pytest.raises(DimensionMismatch, match=r"^side must be 'A' or 'B', got 'C'$"):
        op(np.eye(6), 2, 3, "C")
    with pytest.raises(DimensionMismatch, match=r"^matrix of dimension 5 does not factor as 2 x 3$"):
        op(np.eye(5), 2, 3, "A")


def test_trace_norm_refuses_non_square_and_empty_matrices():
    with pytest.raises(DimensionMismatch, match=r"^matrix must be square, got shape \(2, 3\)$"):
        trace_norm(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch, match=r"^matrix must have positive dimension$"):
        trace_norm(np.zeros((0, 0)))


def test_relative_entropy_refuses_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match=r"^dimension mismatch: 2 vs 3$"):
        relative_entropy(np.eye(2) / 2, np.eye(3) / 3)


def test_partial_transpose_product_and_involution():
    rng = np.random.default_rng(17)
    rho = random_density(2, rng)
    tau = random_complex(rng, (3, 3))
    assert np.allclose(partial_transpose(np.kron(rho, tau), 2, 3, "B"), np.kron(rho, tau.T))
    m = random_complex(rng, (6, 6))
    twice = partial_transpose(partial_transpose(m, 2, 3, "A"), 2, 3, "A")
    assert np.array_equal(twice, m)
    assert abs(np.trace(partial_transpose(m, 2, 3, "B")) - np.trace(m)) <= 1e-12


def test_partial_transpose_bell_min_eigenvalue():
    bell = np.zeros((4, 4))
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    pt = partial_transpose(bell, 2, 2, "B")
    assert np.linalg.eigvalsh(pt)[0] == pytest.approx(-0.5, abs=1e-12)


def test_is_psd():
    assert is_psd(np.eye(3))
    assert not is_psd(np.diag([1.0, -1e-3]))
    rng = np.random.default_rng(19)
    u = random_unitary(3, rng)
    m = (u * np.array([0.2, 0.0, 0.8])) @ u.conj().T
    assert is_psd(m)
    with pytest.raises(NotHermitian, match="deviates from Hermiticity"):
        is_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_is_psd_near_the_float_maximum():
    # the Hermitian part is halved before it is summed, so these entries stay finite
    big = np.finfo(float).max
    assert is_psd(np.diag([0.0, 0.0, big]))
    assert is_psd(1e308 * np.eye(3))
    assert is_psd(1e308 * np.eye(2))


@pytest.mark.parametrize("d", [3, 4])
def test_density_checks_refuse_a_block_at_the_float_maximum_without_a_warning(d):
    # the certificate's shifted part overflows; the refusal comes from the trace rule
    rho = np.zeros((d, d), dtype=complex)
    rho[-1, -1] = np.finfo(float).max
    dims = (2, d // 2) if d % 2 == 0 else (1, d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotNormalized):
            new_state(counting_space(1), rho[None])
        with pytest.raises(NotAState):
            _require_density(rho)
        with pytest.raises(NotAState):
            is_ppt(rho, *dims)


def test_block_margins():
    zero = np.zeros((2, 2))
    stack = np.stack(
        [
            np.diag([0.25, 0.75]),
            zero,
            np.diag([1.5, -0.5]),
            np.array([[0.5, 1e-6], [0.0, 0.5]]),
            np.full((2, 2), np.nan),
            np.array([[0.0, 1.0], [-1.0, 0.0]]),  # anti-Hermitian: its Hermitian part is zero
            zero,
        ]
    ).astype(complex)
    m = block_margins(stack)
    assert m.nonfinite.tolist() == [False, False, False, False, True, False, False]
    assert m.hermiticity == pytest.approx([0.0, 0.0, 0.0, 1e-6, 0.0, 2.0, 0.0])
    assert m.floor == pytest.approx([0.25, 0.0, -0.25, 0.5 - 5e-7, 0.0, 0.0, 0.0])
    assert np.array_equal(m.sym[4], np.zeros((2, 2)))
    for sym, vals in zip(m.sym, m.eigenvalues):
        assert np.linalg.eigvalsh(sym) == pytest.approx(vals, abs=1e-15)
    # blocks with a zero Hermitian part read exact zero eigenvalues, scale 1 and floor 0
    dead = [1, 4, 5, 6]
    assert np.array_equal(m.eigenvalues[dead], np.zeros((4, 2)))
    assert np.array_equal(m.scales[dead], np.ones(4))
    assert np.array_equal(m.floor[dead], np.zeros(4))
    # the other blocks measure bit for bit as they do on their own
    live = [0, 2, 3]
    alone = block_margins(stack[live])
    for got, want in zip(m, alone):
        assert np.array_equal(got[live], want)


# spectra's 2x2 closed form stays within this many eps times the spectral radius of
# LAPACK's eigvalsh; 2*10^6 random, rank-1 and near-degenerate blocks stayed below 7
SPECTRA_EPS_BOUND = 16


def _hermitian_pairs(a, c, b):
    """(n, 2, 2) Hermitian stack with diagonals a, c and upper off-diagonal b."""
    stack = np.zeros((len(a), 2, 2), dtype=complex)
    stack[:, 0, 0], stack[:, 1, 1], stack[:, 0, 1] = a, c, b
    stack[:, 1, 0] = np.conj(stack[:, 0, 1])
    return stack


def test_spectra_is_lapack_bit_for_bit_at_d1_and_above_d2():
    rng = np.random.default_rng(41)
    for d in (1, 3, 4):
        g = random_complex(rng, (9, d, d))
        sym = (g + g.conj().swapaxes(1, 2)) / 2
        out = spectra(sym)
        assert out.shape == (9, d) and out.dtype == np.float64
        assert np.array_equal(out, np.linalg.eigvalsh(sym))


def test_spectra_at_d2_is_within_eps_of_the_spectral_radius_of_eigvalsh():
    rng, n = np.random.default_rng(43), 200
    g = random_complex(rng, (n, 2, 2))
    v = random_complex(rng, (n, 2))
    x, y, z = rng.standard_normal((3, n))
    stacks = {
        "random": (g + g.conj().swapaxes(1, 2)) / 2,
        "positive": g @ g.conj().swapaxes(1, 2),
        "diagonal": _hermitian_pairs(x, y, 0.0),
        "zero": np.zeros((n, 2, 2), dtype=complex),
        "rank-1": v[:, :, None] * v.conj()[:, None, :],
        "near-degenerate": _hermitian_pairs(x, x, 1e-300 * (1 + 1j) * y),
        "near-singular": _hermitian_pairs(x * x, y * y, x * y * (1 - 1e-12)),
        "imaginary off-diagonal": _hermitian_pairs(x, y, 1j * z),
    }
    for scale in (1e150, 1e-150):
        stacks[f"scaled {scale:.0e}"] = scale * stacks["positive"]
    for name, stack in stacks.items():
        out, ref = spectra(stack), np.linalg.eigvalsh(stack)
        radius = np.abs(ref).max(axis=1, keepdims=True)
        assert out.shape == (n, 2) and np.isfinite(out).all(), name
        assert (out[:, 0] <= out[:, 1]).all(), name
        assert (np.abs(out - ref) <= SPECTRA_EPS_BOUND * np.finfo(float).eps * radius).all(), name
    assert np.array_equal(spectra(stacks["zero"]), np.zeros((n, 2)))
    # a = c with |b| far below eps * a: both eigenvalues are a to the last bit
    degenerate = spectra(stacks["near-degenerate"])
    assert np.array_equal(degenerate, np.stack([x, x], axis=1))


def test_spectra_returns_a_fresh_writable_array():
    sym = np.stack([np.diag([0.25, 0.75]), np.eye(2)]).astype(complex)
    out = spectra(sym)
    out[:] = -1.0
    assert np.array_equal(spectra(sym), [[0.25, 0.75], [1.0, 1.0]])


def test_block_verdicts_name_the_lowest_failing_block():
    stack = np.stack(
        [
            np.diag([0.25, 0.75]),
            np.diag([0.9, -0.1]),
            np.array([[0.5, 1e-6], [0.0, 0.5]]),
            np.full((2, 2), np.nan),
            np.diag([1.5, -0.5]),
            np.array([[0.5, 1e-3], [0.0, 0.5]]),
            np.full((2, 2), np.inf),
        ]
    ).astype(complex)
    finite, hermitian, positive = block_margins(stack).worst()
    assert finite == (2.0, 0.0, 3, "has non-finite entries")
    # the lowest failing block is named, with its own deviation, not the worst block's
    assert hermitian == (1e-3, HERMITICITY_TOL, 2, "deviates from Hermiticity by 1.000e-06")
    assert positive == (0.25, PSD_TOL, 1, "is not positive semidefinite")
    passing = block_margins(stack[:1]).worst()
    assert [tuple(v) for v in passing] == [
        (0.0, 0.0, None, ""), (0.0, HERMITICITY_TOL, None, ""), (-0.25, PSD_TOL, None, "")
    ]


def test_unit_trace_rule_names_the_first_block_off_by_more_than_trace_tol():
    stack = np.stack([
        np.eye(2) / 2,
        np.diag([0.5, 0.5 + 0.5 * TRACE_TOL]),
        np.diag([0.5, 0.5 + 2 * TRACE_TOL]),
        np.diag([0.25, 0.25]),
    ]).astype(complex)
    block_margins(stack[:2]).require_unit_traces(pytest.fail)  # within the tolerance
    with pytest.raises(NotAState) as info:
        block_margins(stack).require_unit_traces(lambda block, problem: NotAState(f"{block} {problem}"))
    trace = float(np.trace(stack[2]).real)
    assert str(info.value) == f"2 has trace {trace!r}, expected 1"


def test_density_and_ensemble_share_the_unit_trace_message():
    rho = np.diag([0.5, 0.25]).astype(complex)
    with pytest.raises(NotAState, match=r"^rho has trace 0\.75, expected 1$"):
        relative_entropy(rho, np.eye(2) / 2)
    with pytest.raises(NotAnEnsemble, match=r"^a member has trace 0\.75, expected 1$"):
        Ensemble(np.array([0.5, 0.5]), np.stack([np.eye(2) / 2, rho]))


def test_kraus_defect_is_batched_over_leading_axes():
    rng = np.random.default_rng(8)
    sets = np.stack([
        np.stack(random_kraus_set(3, 2, rng)) * scale for scale in (1.0, 1.01, 0.9, 1.0)
    ]).reshape(2, 2, 2, 3, 3)
    batched = kraus_defect(sets)
    assert batched.shape == (2, 2)
    for i, j in np.ndindex(2, 2):
        gram = sum(a.conj().T @ a for a in sets[i, j])
        single = kraus_defect(sets[i, j])
        assert np.ndim(single) == 0 and abs(single - batched[i, j]) <= 1e-15
        assert abs(single - np.abs(gram - np.eye(3)).max()) <= 1e-15
    assert batched[0, 0] <= 1e-12 and batched[0, 1] == pytest.approx(0.0201, abs=1e-12)
    assert kraus_defect(np.zeros((0, 2, 3, 3), dtype=complex)).shape == (0,)


def test_right_normalize_is_batched_over_leading_axes():
    rng = np.random.default_rng(9)
    raw = rng.standard_normal((2, 3, 4, 2, 3)) + 1j * rng.standard_normal((2, 3, 4, 2, 3))
    error = lambda index, problem: NumericalFailure(f"set {index} {problem}")
    batched = right_normalize(raw, error)
    assert batched.shape == raw.shape and (kraus_defect(batched) <= 1e-12).all()
    for i, j in np.ndindex(2, 3):
        assert np.array_equal(batched[i, j], right_normalize(raw[i, j], error))
    raw[1, 1] = 0.0
    with pytest.raises(NumericalFailure, match=r"^set 4 is singular$"):
        right_normalize(raw, error)


def test_entropies_are_batched_and_skip_sub_cutoff_eigenvalues_exactly():
    eigs = np.array([
        [[0.5, 0.5, 1e-15, -1e-16], [1.0, 0.0, 0.0, 0.0]],
        [[0.25, 0.25, 0.25, 0.25], [0.0, 1e-14, 0.3, 0.7 - 1e-14]],
    ])
    expected = np.array([
        [-2 * 0.5 * math.log(0.5), 0.0],
        [-4 * 0.25 * math.log(0.25), -(0.3 * math.log(0.3) + (0.7 - 1e-14) * math.log(0.7 - 1e-14))],
    ])
    out = entropies(eigs)
    assert out.shape == (2, 2)
    assert np.allclose(out, expected, rtol=0, atol=1e-15)
    assert out[0, 0] == 2 * 0.5 * math.log(2.0) and out[0, 1] == 0.0  # cut-off terms add 0


def test_von_neumann_entropy_values():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    for d in (2, 3, 5):
        assert von_neumann_entropy(np.eye(d) / d) == pytest.approx(math.log(d), abs=1e-12)
    expected = -0.25 * math.log(0.25) - 0.75 * math.log(0.75)
    assert von_neumann_entropy(np.diag([0.25, 0.75])) == pytest.approx(expected, abs=1e-12)


def test_von_neumann_entropy_bounds_and_errors():
    rng = np.random.default_rng(23)
    for _ in range(20):
        rho = random_density(4, rng)
        s = von_neumann_entropy(rho)
        assert 0.0 <= s <= math.log(4) + 1e-9
    with pytest.raises(NotAState):
        von_neumann_entropy(np.diag([0.5, 0.4]))
    with pytest.raises(NotAState):
        von_neumann_entropy(np.diag([1.5, -0.5]))


# one block for each per-block invariant: finite, Hermitian, positive
BAD_BLOCKS = [
    pytest.param(np.array([[np.nan, 0.0], [0.0, 1.0]]), id="non-finite"),
    pytest.param(np.array([[0.5, 0.1], [0.0, 0.5]]), id="non-hermitian"),
    pytest.param(np.diag([1.5, -0.5]), id="non-psd"),
]


@pytest.mark.parametrize("block", BAD_BLOCKS)
def test_density_inputs_reject_bad_blocks(block):
    # as_cmatrix refuses non-finite input before the verdict sees it
    error = NumericalFailure if not np.isfinite(block).all() else NotAState
    with pytest.raises(error):
        von_neumann_entropy(block)
    with pytest.raises(error):
        relative_entropy(np.eye(2) / 2, block)


def test_relative_entropy_values():
    rng = np.random.default_rng(29)
    rho = random_density(3, rng)
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)
    assert relative_entropy(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == math.inf
    expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
    got = relative_entropy(np.diag([0.5, 0.5]), np.diag([0.25, 0.75]))
    assert got == pytest.approx(expected, abs=1e-12)


def test_relative_entropy_pinsker_floor():
    rng = np.random.default_rng(31)
    for _ in range(50):
        rho = random_density(3, rng)
        tau = random_density(3, rng)
        assert relative_entropy(rho, tau) >= trace_norm(rho - tau) ** 2 / 2 - 1e-9


# lambda_min of each kind of drawn density, in units of PSD_TOL; "low-edge" is within
# rounding of the spectrum rule's boundary, where the rule accepts about half the draws
# and a Cholesky shifted by the whole tolerance would accept some that it refuses
PLACED_LOWS = {"low-pass": -0.5, "low-fail": -2.0, "low-edge": -(1 + 1e-8)}
DEFECTS = {"nan": np.nan, "inf": np.inf, "hermiticity": 2j * HERMITICITY_TOL}


def _placed_density(kind: str, d: int, rng) -> np.ndarray:
    """A d x d unit-trace block: random, rank-1, zero or with lambda_min placed per
    PLACED_LOWS; exactly Hermitian, so a scaled copy stays exactly Hermitian."""
    if kind == "zero":
        return np.zeros((d, d), dtype=complex)
    low = PLACED_LOWS.get(kind, 0.0) * PSD_TOL
    vals = np.eye(d)[-1] if kind == "rank-1" else rng.uniform(0.1, 1.0, d)
    if kind in PLACED_LOWS:
        vals[0] = 0.0
    vals *= (1.0 - low) / vals.sum()
    vals[0] += low
    u = random_unitary(d, rng)
    m = (u * vals) @ u.conj().T
    return (m + m.conj().T) / 2


# The spectrum rule, as new_state, the density checks and is_ppt applied it to every
# stack before the Cholesky certificate: block_margins decides each block.
def _new_state_by_spectrum(space, masses):
    margins = block_margins(masses)
    margins.require(lambda cell, problem: NotPositive(cell, f"mass block at cell {cell} {problem}"))
    total = float(np.einsum("nii->", margins.sym).real)
    if abs(total - 1.0) > TRACE_TOL:
        raise NotNormalized(total)
    return margins.sym, margins.eigenvalues


def _is_ppt_by_spectrum(rho, dim_1, dim_2):
    transposed = partial_transpose(_density_spectrum(rho)[0], dim_1, dim_2, "B")
    return bool(np.linalg.eigvalsh(transposed)[0] >= -PPT_TOL)


def _outcome(f, *args):
    """A call's error as (class, message, cell), or its value with arrays as their bytes."""
    try:
        value = f(*args)
    except HybridError as exc:
        return type(exc), str(exc), getattr(exc, "cell", None)
    if isinstance(value, HybridState):
        value = (value.masses, value.eigenvalues)
    if isinstance(value, tuple):
        return tuple(v.tobytes() for v in value)
    return value.tobytes() if isinstance(value, np.ndarray) else value


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.sampled_from([3, 4, 6]),
    st.lists(
        st.tuples(
            st.sampled_from(["random", "rank-1", "zero", *PLACED_LOWS]),
            st.sampled_from([1.0, 1e150, 1e-150, 1e300, np.finfo(float).max]),
        ),
        min_size=1,
        max_size=3,
    ),
    st.sampled_from([None, *DEFECTS]),
    st.integers(0, 2**32 - 1),
)
def test_cholesky_certificate_decides_as_the_spectrum_rule(d, blocks, defect, seed):
    rng = np.random.default_rng(seed)
    stack = np.stack([scale * _placed_density(kind, d, rng) for kind, scale in blocks])
    if defect is not None:
        stack[int(rng.integers(len(blocks))), -1, 0] += DEFECTS[defect]
    space = counting_space(len(blocks))
    rho, dims = stack[0], (2, d // 2) if d % 2 == 0 else (1, d)
    assert _outcome(new_state, space, stack) == _outcome(_new_state_by_spectrum, space, stack)
    assert _outcome(_require_density, rho) == _outcome(lambda r: _density_spectrum(r)[0], rho)
    assert _outcome(is_ppt, rho, *dims) == _outcome(_is_ppt_by_spectrum, rho, *dims)


def test_cholesky_certificate_accepts_nothing_the_spectrum_rule_refuses_at_its_edge():
    rng = np.random.default_rng(24)
    space = counting_space(1)
    verdicts = set()
    for d in (3, 6):
        for _ in range(200):
            masses = _placed_density("low-edge", d, rng)[None]
            outcome = _outcome(new_state, space, masses)
            assert outcome == _outcome(_new_state_by_spectrum, space, masses)
            verdicts.add(outcome[0] is NotPositive)
    assert verdicts == {True, False}
