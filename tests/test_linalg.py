import math

import numpy as np
import pytest

from hybridiq.errors import DimensionMismatch, NotAState, NotHermitian, NumericalFailure
from hybridiq.linalg import (
    block_margins,
    hermitian_eig,
    is_psd,
    partial_trace,
    partial_transpose,
    relative_entropy,
    trace_norm,
    von_neumann_entropy,
)
from hybridiq.rand import random_complex, random_density, random_unitary


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
    assert is_psd(np.eye(3), 1e-9)
    assert not is_psd(np.diag([1.0, -1e-3]), 1e-9)
    rng = np.random.default_rng(19)
    u = random_unitary(3, rng)
    m = (u * np.array([0.2, 0.0, 0.8])) @ u.conj().T
    assert is_psd(m, 1e-9)


def test_block_margins():
    stack = np.stack(
        [
            np.diag([0.25, 0.75]),
            np.diag([1.5, -0.5]),
            np.array([[0.5, 1e-6], [0.0, 0.5]]),
            np.full((2, 2), np.nan),
        ]
    ).astype(complex)
    m = block_margins(stack)
    assert m.nonfinite.tolist() == [False, False, False, True]
    assert m.hermiticity == pytest.approx([0.0, 0.0, 1e-6, 0.0])
    assert m.floor == pytest.approx([0.25, -0.25, 0.5 - 5e-7, 0.0])
    assert np.array_equal(m.sym[3], np.zeros((2, 2)))
    for sym, vals in zip(m.sym, m.eigenvalues):
        assert np.linalg.eigvalsh(sym) == pytest.approx(vals, abs=1e-15)


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
