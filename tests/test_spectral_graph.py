"""Laplacian construction, polynomial bases, and the two convolution routes."""

import numpy as np
import pytest
from scipy.special import comb, eval_chebyu, eval_gegenbauer, eval_jacobi

from spectemp import spectral_graph
from spectemp.errors import ParameterError, ShapeError
from spectemp.spectral_graph import (Adjacency, FilterBank, basis_eval,
                                     basis_recurrence, eigendecompose,
                                     filter_response, fit_weight_alpha,
                                     graph_conv, normalized_laplacian,
                                     orthogonality_residual,
                                     polynomial_stack, signal_density,
                                     spectral_oracle_conv)

BASES = ("monomial", "bernstein", "chebyshev2", "gegenbauer", "jacobi")


def random_adjacency(rng, n):
    raw = rng.uniform(0.0, 1.0, size=(n, n))
    raw = (raw + raw.T) / 2.0
    np.fill_diagonal(raw, 0.0)
    raw[raw < 0.3] = 0.0   # some sparsity, possibly isolated nodes
    return Adjacency(raw)


# ---------------------------------------------------------------------------
# adjacency and Laplacian
# ---------------------------------------------------------------------------

def test_adjacency_rejects_bad_matrices():
    with pytest.raises(ShapeError):
        Adjacency(np.ones((2, 3)))
    with pytest.raises(ParameterError):
        Adjacency(np.array([[0.0, 1.0], [2.0, 0.0]]))   # asymmetric
    with pytest.raises(ParameterError):
        Adjacency(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ParameterError):
        Adjacency(np.array([[1.0, 0.0], [0.0, 0.0]]))   # nonzero diagonal


def test_adjacency_bounds_asymmetry_absolutely():
    # |A - A^T| = 9e-6 sits inside a relative 1e-5 of the entries
    with pytest.raises(ParameterError, match="symmetric"):
        Adjacency(np.array([[0.0, 1.0, 0.5], [1.000009, 0.0, 0.2], [0.5, 0.2, 0.0]]))
    Adjacency(np.array([[0.0, 3.0], [3.0 + 1e-13, 0.0]]))   # within 1e-12 absolute


def test_laplacian_two_node_graph():
    lap = normalized_laplacian(Adjacency(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert np.allclose(lap, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)
    spectrum = eigendecompose(lap)
    assert np.allclose(spectrum.eigenvalues, [0.0, 2.0], atol=1e-12)


def test_laplacian_single_isolated_node():
    lap = normalized_laplacian(Adjacency(np.zeros((1, 1))))
    assert lap.shape == (1, 1) and lap[0, 0] == 0.0


def test_laplacian_path_graph_eigenvalues():
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    spectrum = eigendecompose(normalized_laplacian(Adjacency(a)))
    assert np.allclose(spectrum.eigenvalues, [0.0, 1.0, 2.0], atol=1e-12)


def test_laplacian_isolated_node_row_is_zero():
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 1.0
    lap = normalized_laplacian(Adjacency(a))
    assert np.allclose(lap[2], 0.0) and np.allclose(lap[:, 2], 0.0)
    assert np.allclose(lap, lap.T)


def test_eigendecompose_two_node_closed_form():
    spectrum = eigendecompose(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(spectrum.eigenvectors[:, 0], [r, r], atol=1e-12)
    assert np.allclose(spectrum.eigenvectors[:, 1], [r, -r], atol=1e-12)


def test_eigendecompose_zero_matrix_identity_convention():
    spectrum = eigendecompose(np.zeros((3, 3)))
    assert np.allclose(spectrum.eigenvalues, 0.0)
    assert np.allclose(spectrum.eigenvectors, np.eye(3))


def test_eigendecompose_rejects_asymmetry_beyond_1e_10_absolute():
    # eigh reads only the lower triangle: -0.500004 would give eigenvalues
    # 0.499996 and 1.500004, where the matrix's own are 0.499998 and 1.500002
    lap = np.array([[1.0, -0.5], [-0.500004, 1.0]])
    with pytest.raises(ShapeError, match="symmetric"):
        eigendecompose(lap)
    lap[1, 0] = -0.5 - 2e-10
    with pytest.raises(ShapeError, match="symmetric"):
        eigendecompose(lap)
    lap[1, 0] = -0.5 - 5e-11
    assert np.allclose(eigendecompose(lap).eigenvalues, [0.5, 1.5], atol=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 2), (2, 0)])
def test_eigendecompose_names_a_non_finite_entry(bad, where):
    lap = np.eye(3)
    lap[where] = bad
    with pytest.raises(ParameterError, match="non-finite"):
        eigendecompose(lap)


def test_eigendecompose_reconstruction_and_orthonormality():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((8, 8))
    m = (m + m.T) / 2.0
    spectrum = eigendecompose(m)
    u, lam = spectrum.eigenvectors, spectrum.eigenvalues
    recon = u @ np.diag(lam) @ u.T
    assert np.linalg.norm(recon - m) / np.linalg.norm(m) < 1e-8
    assert np.linalg.norm(u.T @ u - np.eye(8)) < 1e-8
    assert np.all(np.diff(lam) >= -1e-12)


def _reference_eigendecompose(lap):
    """eigh, a stable argsort of the eigenvalues, and a per-column sign loop."""
    eigenvalues, eigenvectors = np.linalg.eigh(lap)
    order = np.argsort(eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    eigenvectors = eigenvectors[:, order]
    for j in range(eigenvectors.shape[1]):
        col = eigenvectors[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0:
            eigenvectors[:, j] = -col
    return eigenvalues, eigenvectors


def _reference_laplacians():
    rng = np.random.default_rng(11)
    for _ in range(30):
        yield normalized_laplacian(random_adjacency(rng, int(rng.integers(2, 40))))
    isolated = random_adjacency(rng, 12).matrix
    isolated[[2, 7], :] = isolated[:, [2, 7]] = 0.0
    yield normalized_laplacian(Adjacency(isolated))
    yield normalized_laplacian(Adjacency(np.zeros((6, 6))))    # eigenvalue 0, six times
    yield normalized_laplacian(Adjacency(np.zeros((1, 1))))
    yield np.zeros((0, 0))


def test_eigendecompose_matches_the_sorting_reference_bitwise():
    for lap in _reference_laplacians():
        spectrum = eigendecompose(lap)
        eigenvalues, eigenvectors = _reference_eigendecompose(lap)
        assert spectrum.eigenvalues.tobytes() == eigenvalues.tobytes()
        assert spectrum.eigenvectors.tobytes() == eigenvectors.tobytes()
        # same layout, so products with the eigenvectors round the same
        assert spectrum.eigenvectors.strides == eigenvectors.strides


def test_eigendecompose_signs_skip_entries_up_to_1e_12(monkeypatch):
    # columns: tiny positive before a negative pivot; tiny negative before a
    # positive pivot; no entry above 1e-12; exact zero before a negative pivot
    vectors = np.array([[1e-13, -1e-13, -1e-12, 0.0],
                        [-0.5, 0.5, -1e-13, -0.3],
                        [0.2, -0.1, 0.0, 0.1],
                        [0.1, 0.0, 1e-14, 0.0]])
    monkeypatch.setattr(np.linalg, "eigh", lambda lap: (np.arange(4.0), vectors.copy()))
    spectrum = eigendecompose(np.zeros((4, 4)))
    assert np.array_equal(spectrum.eigenvectors, vectors * [-1.0, 1.0, 1.0, -1.0])
    assert (spectrum.eigenvectors.tobytes()
            == _reference_eigendecompose(np.zeros((4, 4)))[1].tobytes())


def test_eigendecompose_rejects_asymmetric():
    with pytest.raises(ShapeError):
        eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_laplacian_spectrum_contained_in_unit_to_two_band():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = rng.integers(2, 12)
        spectrum = eigendecompose(normalized_laplacian(random_adjacency(rng, n)))
        assert spectrum.eigenvalues.min() > -1e-8
        assert spectrum.eigenvalues.max() < 2.0 + 1e-8


# ---------------------------------------------------------------------------
# basis evaluation against scipy
# ---------------------------------------------------------------------------

def test_gegenbauer_first_two_members_exact():
    for alpha in (0.5, 1.0, 2.0):
        for x in (-1.0, -0.3, 0.0, 0.5, 1.0):
            assert basis_eval("gegenbauer", 0, x, alpha=alpha) == 1.0
            assert basis_eval("gegenbauer", 1, x, alpha=alpha) == 2.0 * alpha * x


def test_gegenbauer_degree_two_hand_value():
    # P_2 at alpha=1 is 4x^2 - 1, zero at x = 1/2
    assert basis_eval("gegenbauer", 2, 0.5, alpha=1.0) == pytest.approx(0.0, abs=1e-15)


def test_monomial_hand_value():
    assert basis_eval("monomial", 3, 0.5) == pytest.approx(0.125)


def test_gegenbauer_matches_scipy():
    x = np.linspace(-1.0, 1.0, 41)
    for alpha in (0.5, 0.75, 1.0, 1.5, 2.5):
        for k in range(7):
            ours = basis_eval("gegenbauer", k, x, alpha=alpha)
            ref = eval_gegenbauer(k, alpha, x)
            assert np.abs(ours - ref).max() < 1e-10


def test_chebyshev2_matches_scipy_and_gegenbauer_alpha_one():
    x = np.linspace(-1.0, 1.0, 41)
    for k in range(7):
        cheb = basis_eval("chebyshev2", k, x)
        assert np.abs(cheb - eval_chebyu(k, x)).max() < 1e-10
        gegen = basis_eval("gegenbauer", k, x, alpha=1.0)
        assert np.abs(cheb - gegen).max() < 1e-12


def test_jacobi_matches_scipy():
    x = np.linspace(-1.0, 1.0, 41)
    for a, b in ((0.5, 0.5), (0.0, 0.0), (1.0, -0.5), (2.0, 1.0)):
        for k in range(6):
            ours = basis_eval("jacobi", k, x, jacobi_a=a, jacobi_b=b)
            assert np.abs(ours - eval_jacobi(k, a, b, x)).max() < 1e-10


def test_bernstein_matches_binomial_closed_form():
    x = np.linspace(-1.0, 1.0, 21)
    lam = 1.0 - x
    degree = 5
    for k in range(degree + 1):
        ours = basis_eval("bernstein", k, x, degree=degree)
        ref = comb(degree, k) * (1.0 - lam / 2.0) ** (degree - k) * (lam / 2.0) ** k
        assert np.abs(ours - ref).max() < 1e-12


def test_bernstein_partition_of_unity():
    x = np.linspace(-1.0, 1.0, 21)
    total = sum(basis_eval("bernstein", k, x, degree=4) for k in range(5))
    assert np.abs(total - 1.0).max() < 1e-12


def bernstein_per_term(degree, p0, apply):
    """The Bernstein stack built term by term, each (L/2)^k p0 from scratch."""
    stack = []
    for k in range(degree + 1):
        term = p0
        for _ in range(k):
            term = apply(term) * 0.5
        for _ in range(degree - k):
            term = term - apply(term) * 0.5
        stack.append(term * float(comb(degree, k, exact=True)))
    return stack


@pytest.mark.parametrize("basis", BASES)
def test_polynomial_stack_apply_count(basis):
    for degree in range(11):
        calls = []
        polynomial_stack(basis_recurrence(basis, degree), 1.0,
                         lambda v: calls.append(v) or 0.5 * v)
        expected = degree * (degree + 3) // 2 if basis == "bernstein" else degree
        assert len(calls) == expected, (degree, len(calls))


@pytest.mark.parametrize("degree", [0, 1, 4, 10])
def test_bernstein_stack_equals_the_per_term_construction_bitwise(degree):
    rng = np.random.default_rng(degree)
    rec = basis_recurrence("bernstein", degree)
    for lam in rng.uniform(0.0, 2.0, 5):
        p0 = float(rng.standard_normal())
        ours = polynomial_stack(rec, p0, lambda v: lam * v)
        ref = bernstein_per_term(degree, p0, lambda v: lam * v)
        assert [np.float64(v).tobytes() for v in ours] == \
            [np.float64(v).tobytes() for v in ref]
    lap = normalized_laplacian(random_adjacency(rng, 12))
    for p0 in (np.eye(12), rng.standard_normal((12, 3))):
        ours = polynomial_stack(rec, p0, lambda v: lap @ v)
        ref = bernstein_per_term(degree, p0, lambda v: lap @ v)
        assert [v.tobytes() for v in ours] == [v.tobytes() for v in ref]


def test_basis_eval_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        basis_eval("gegenbauer", 2, 0.5, alpha=-0.6)
    with pytest.raises(ParameterError):
        basis_eval("gegenbauer", 1, 1.5)
    with pytest.raises(ParameterError):
        basis_eval("bernstein", 1, 0.0)   # family degree required
    with pytest.raises(ParameterError):
        basis_eval("monomial", -1, 0.0)
    with pytest.raises(ParameterError):
        basis_eval("gegenbauer", 5, 0.3, degree=2)   # k beyond the family
    with pytest.raises(ParameterError):
        basis_eval("jacobi", 3, 0.3, jacobi_a=-3, jacobi_b=-3)
    with pytest.raises(ParameterError):
        basis_eval("jacobi", 2, 0.3, alpha=-0.7)      # default a = b = alpha - 1/2
    with pytest.raises(ParameterError):
        orthogonality_residual("jacobi", jacobi_a=-1.5)
    with pytest.raises(ParameterError):
        orthogonality_residual("gegenbauer", alpha=-0.5)
    with pytest.raises(ParameterError, match="jmax"):
        orthogonality_residual("gegenbauer", jmax=-1)    # read 0.0 with fixed nodes


@pytest.mark.parametrize("call,message", [
    (lambda: basis_eval("gegenbauer", 1.5, 0.3, degree=3), "index k must be a non-negative"),
    (lambda: basis_eval("gegenbauer", True, 0.3, degree=3), "index k must be a non-negative"),
    (lambda: basis_eval("monomial", "2", 0.3), "index k must be a non-negative"),
    (lambda: basis_eval("gegenbauer", 2, float("nan")), r"x must lie in \[-1, 1\]"),
    (lambda: basis_eval("bernstein", 1, np.array([0.2, np.nan]), degree=2),
     r"x must lie in \[-1, 1\]"),
    (lambda: filter_response(FilterBank("monomial", 1, np.ones(2)), np.array([0.5, np.nan])),
     r"must lie in \[0, 2\]"),
    (lambda: filter_response(FilterBank("bernstein", 2, np.ones(3)), float("nan")),
     r"must lie in \[0, 2\]"),
], ids=["k 1.5", "k True", "k '2'", "x nan", "x array with nan", "lambda array with nan",
        "lambda nan"])
def test_basis_arguments_outside_their_domain_are_parameter_errors(call, message):
    with pytest.raises(ParameterError, match=message):
        call()


def test_basis_eval_takes_a_numpy_integer_index():
    assert basis_eval("gegenbauer", np.int64(2), 0.3, alpha=1.5) == \
        basis_eval("gegenbauer", 2, 0.3, alpha=1.5)


@pytest.mark.parametrize("make", [
    lambda: FilterBank("gegenbauer", -1, np.ones((0, 1))),
    lambda: FilterBank("gegenbauer", 2.0, np.ones((3, 1))),
    lambda: FilterBank("monomial", True, np.ones((2, 1))),
    lambda: basis_recurrence("gegenbauer", 2.5),
    lambda: basis_recurrence("gegenbauer", -2),
    lambda: basis_recurrence("jacobi", False),
    lambda: basis_recurrence("bernstein", "3"),
], ids=["bank -1", "bank 2.0", "bank True", "2.5", "-2", "False", "'3'"])
def test_basis_degree_must_be_a_nonnegative_integer(make):
    with pytest.raises(ParameterError, match="degree must be a non-negative integer"):
        make()


# ---------------------------------------------------------------------------
# orthogonality quadrature
# ---------------------------------------------------------------------------

def test_orthogonal_families_pass_quadrature():
    for alpha in (0.5, 1.0, 2.0):
        assert orthogonality_residual("gegenbauer", jmax=4, alpha=alpha) < 1e-6
    assert orthogonality_residual("chebyshev2", jmax=4) < 1e-6
    assert orthogonality_residual("jacobi", jmax=4, alpha=1.0) < 1e-6


def test_power_families_fail_quadrature():
    assert orthogonality_residual("monomial", jmax=4) > 1e-2
    assert orthogonality_residual("bernstein", jmax=4) > 1e-2


# ---------------------------------------------------------------------------
# convolution routes
# ---------------------------------------------------------------------------

def test_graph_conv_identity_filter():
    rng = np.random.default_rng(2)
    adj = random_adjacency(rng, 6)
    x = rng.standard_normal((6, 3))
    for basis in ("monomial", "chebyshev2", "gegenbauer", "jacobi"):
        bank = FilterBank(basis=basis, degree=3,
                          coefficients=np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.allclose(graph_conv(bank, adj, x), x, atol=1e-12)


def test_graph_conv_first_order_gegenbauer_is_twice_a_hat():
    rng = np.random.default_rng(3)
    adj = random_adjacency(rng, 5)
    x = rng.standard_normal((5, 2))
    lap = normalized_laplacian(adj)
    a_hat = np.eye(5) - lap
    bank = FilterBank(basis="gegenbauer", degree=1,
                      coefficients=np.array([0.0, 1.0]), alpha=1.0)
    assert np.allclose(graph_conv(bank, adj, x), 2.0 * a_hat @ x, atol=1e-12)


def test_oracle_g_identity_and_eigenvector_scaling():
    spectrum = eigendecompose(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    x = np.array([[1.0], [-1.0]])
    bank = FilterBank(basis="bernstein", degree=0, coefficients=np.array([1.0]))
    assert np.allclose(spectral_oracle_conv(spectrum, bank, x), x, atol=1e-12)
    # g(lambda) = 2 (lambda/2) = lambda on the lambda=2 eigenvector doubles it
    bank = FilterBank(basis="bernstein", degree=1,
                      coefficients=np.array([0.0, 2.0]))
    assert np.allclose(spectral_oracle_conv(spectrum, bank, x), 2.0 * x, atol=1e-12)


@pytest.mark.parametrize("shape", [(9, 3), (9, 5, 3), (9, 4, 2, 3)])
@pytest.mark.parametrize("width", [1, 3])
def test_oracle_equals_the_explicit_eigenvector_product(shape, width):
    rng = np.random.default_rng(len(shape) + width)
    spectrum = eigendecompose(normalized_laplacian(random_adjacency(rng, shape[0])))
    x = rng.standard_normal(shape)
    for basis in BASES:
        bank = FilterBank(basis=basis, degree=4, alpha=1.4,
                          coefficients=rng.standard_normal((5, width)))
        gains = filter_response(bank, spectrum.eigenvalues)
        u = spectrum.eigenvectors
        ref = np.empty_like(x)
        for d in range(shape[-1]):
            h = u @ np.diag(gains[:, d % width]) @ u.T
            ref[..., d] = np.tensordot(h, x[..., d], axes=1)
        got = spectral_oracle_conv(spectrum, bank, x)
        assert got.shape == x.shape
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_both_routes_filter_a_graph_without_nodes():
    spectrum = eigendecompose(np.zeros((0, 0)))
    for basis in BASES:
        bank = FilterBank(basis=basis, degree=3, coefficients=np.ones((4, 2)))
        for shape in ((0, 2), (0, 5, 2)):
            assert graph_conv(bank, np.zeros((0, 0)), np.zeros(shape)).shape == shape
            assert spectral_oracle_conv(spectrum, bank, np.zeros(shape)).shape == shape


def test_graph_conv_matches_oracle_all_bases():
    rng = np.random.default_rng(4)
    for trial in range(20):
        n = int(rng.integers(2, 17))
        k = int(rng.integers(0, 7))
        d = int(rng.integers(1, 4))
        adj = random_adjacency(rng, n)
        x = rng.standard_normal((n, d))
        theta = rng.standard_normal((k + 1, d))
        basis = BASES[trial % len(BASES)]
        alpha = float(rng.uniform(0.6, 2.0))
        bank = FilterBank(basis=basis, degree=k, coefficients=theta, alpha=alpha)
        fast = graph_conv(bank, adj, x)
        oracle = spectral_oracle_conv(eigendecompose(normalized_laplacian(adj)),
                                      bank, x)
        denom = max(np.linalg.norm(oracle), 1e-12)
        assert np.linalg.norm(fast - oracle) / denom < 1e-10


@pytest.mark.parametrize("degree", [10, 16, 20])
def test_graph_conv_matches_oracle_at_the_probe_shape(degree):
    """A graph and signal drawn as perfbench's spectral probe draws them:
    N=207, 5% of the node pairs joined, a (207, 12, 2) signal."""
    rng = np.random.default_rng(degree)
    weights = np.triu(rng.uniform(0.0, 1.0, (207, 207))
                      * (rng.uniform(size=(207, 207)) < 0.05), 1)
    lap = normalized_laplacian(Adjacency(weights + weights.T))
    x = rng.standard_normal((207, 12, 2))
    spectrum = eigendecompose(lap)
    for basis in BASES:
        bank = FilterBank(basis, degree, rng.standard_normal((degree + 1, 2)),
                          alpha=float(rng.uniform(0.6, 2.0)))
        oracle = spectral_oracle_conv(spectrum, bank, x)
        err = np.linalg.norm(graph_conv(bank, lap, x) - oracle) / np.linalg.norm(oracle)
        assert err < 1e-10, (basis, err)


@pytest.mark.parametrize("degree", [0, 1, 2, 10])
@pytest.mark.parametrize("shape", [(12, 3), (12, 5, 3)])
@pytest.mark.parametrize("width", [1, 3])
def test_bernstein_graph_conv_equals_the_weighted_stack(degree, shape, width):
    """Horner's rule sums the terms of the Bernstein stack."""
    rng = np.random.default_rng([degree, len(shape), width])
    lap = normalized_laplacian(random_adjacency(rng, 12))
    x = rng.standard_normal(shape)
    bank = FilterBank("bernstein", degree, rng.standard_normal((degree + 1, width)))
    stack = polynomial_stack(bank.recurrence(), x.reshape(12, -1), lambda v: lap @ v)
    ref = sum(term.reshape(shape) * theta for term, theta in zip(stack, bank.coefficients))
    got = graph_conv(bank, lap, x)
    assert got.shape == shape
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


class CountingOperator(np.ndarray):
    """An operator that counts its products with signals; arrays derived
    from it, such as I - L, share its count."""

    def __array_finalize__(self, obj):
        self.applies = getattr(obj, "applies", None)

    def __matmul__(self, other):
        self.applies.append(other.shape)
        return np.asarray(self) @ other


@pytest.mark.parametrize("basis", BASES)
def test_graph_conv_apply_count(basis, monkeypatch):
    """Bernstein applies L 2K times, a recurrence basis I - L K times."""
    rng = np.random.default_rng(7)
    adj = random_adjacency(rng, 6)
    x = rng.standard_normal((6, 4, 2))
    resolve = spectral_graph._resolve_laplacian
    applies = []

    def counting(adj_or_laplacian):
        operator = resolve(adj_or_laplacian).view(CountingOperator)
        operator.applies = applies
        return operator

    monkeypatch.setattr(spectral_graph, "_resolve_laplacian", counting)
    for degree in range(11):
        applies.clear()
        graph_conv(FilterBank(basis, degree, rng.standard_normal((degree + 1, 2))), adj, x)
        expected = 2 * degree if basis == "bernstein" else degree
        assert applies == [(6, 8)] * expected, (degree, len(applies))


def test_graph_conv_permutation_equivariance():
    rng = np.random.default_rng(5)
    n = 7
    adj = random_adjacency(rng, n)
    x = rng.standard_normal((n, 2))
    perm = rng.permutation(n)
    p = np.eye(n)[perm]
    bank = FilterBank(basis="gegenbauer", degree=3,
                      coefficients=rng.standard_normal((4, 2)))
    direct = graph_conv(bank, Adjacency(p @ adj.matrix @ p.T), p @ x)
    assert np.allclose(direct, p @ graph_conv(bank, adj, x), atol=1e-10)


def test_graph_conv_coefficient_mismatch():
    adj = Adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
    spectrum = eigendecompose(normalized_laplacian(adj))
    bank = FilterBank(basis="gegenbauer", degree=1,
                      coefficients=np.ones((2, 3)))
    for signal in (np.ones((2, 2)), np.ones((2, 4, 2))):
        with pytest.raises(ShapeError):
            graph_conv(bank, adj, signal)
        with pytest.raises(ShapeError):
            spectral_oracle_conv(spectrum, bank, signal)


def test_monomial_matrix_argument_flag():
    rng = np.random.default_rng(6)
    adj = random_adjacency(rng, 5)
    lap = normalized_laplacian(adj)
    x = rng.standard_normal((5, 1))
    theta = np.array([0.0, 1.0])
    on_a = FilterBank(basis="monomial", degree=1, coefficients=theta)
    assert np.allclose(graph_conv(on_a, adj, x), (np.eye(5) - lap) @ x, atol=1e-12)


# ---------------------------------------------------------------------------
# filter response
# ---------------------------------------------------------------------------

def test_filter_response_constant():
    bank = FilterBank(basis="gegenbauer", degree=2,
                      coefficients=np.array([1.0, 0.0, 0.0]))
    resp = filter_response(bank, np.array([0.0, 0.7, 2.0]))
    assert np.allclose(resp, 1.0, atol=1e-14)


def test_filter_response_chebyshev_first_order():
    bank = FilterBank(basis="chebyshev2", degree=1,
                      coefficients=np.array([0.0, 1.0]))
    resp = filter_response(bank, np.array([0.0, 1.0, 2.0]))
    assert np.allclose(resp[:, 0], [2.0, 0.0, -2.0], atol=1e-14)


def test_filter_response_gegenbauer_alpha_one_equals_chebyshev():
    theta = np.array([0.3, -0.2, 0.5, 0.1])
    lam = np.linspace(0.0, 2.0, 9)
    a = filter_response(FilterBank(basis="gegenbauer", degree=3,
                                   coefficients=theta, alpha=1.0), lam)
    b = filter_response(FilterBank(basis="chebyshev2", degree=3,
                                   coefficients=theta), lam)
    assert np.abs(a - b).max() < 1e-12


# ---------------------------------------------------------------------------
# signal density and weight fitting
# ---------------------------------------------------------------------------

def test_signal_density_single_eigenvector():
    rng = np.random.default_rng(7)
    spectrum = eigendecompose(normalized_laplacian(random_adjacency(rng, 6)))
    x = spectrum.eigenvectors[:, [0]]
    density = signal_density(spectrum, x)
    assert density.cumulative[-1] == pytest.approx(1.0, abs=1e-10)
    assert density.cumulative[0] == pytest.approx(1.0, abs=1e-10)


def test_signal_density_two_node_constant_signal():
    spectrum = eigendecompose(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    density = signal_density(spectrum, np.array([[1.0], [1.0]]))
    # all energy at lambda = 0, none at lambda = 2
    assert density.cumulative[0] == pytest.approx(2.0, abs=1e-12)
    assert density.cumulative[-1] == pytest.approx(2.0, abs=1e-12)


def test_signal_density_parseval_endpoint():
    rng = np.random.default_rng(8)
    spectrum = eigendecompose(normalized_laplacian(random_adjacency(rng, 9)))
    x = rng.standard_normal((9, 3))
    density = signal_density(spectrum, x)
    total = np.linalg.norm(spectrum.eigenvectors.T @ x) ** 2
    assert density.cumulative[-1] == pytest.approx(total, rel=1e-8)
    assert np.all(np.diff(density.cumulative) >= -1e-12)
    assert np.all(density.density >= 0.0)


def test_signal_density_merges_a_repeated_eigenvalue():
    # K5's normalized Laplacian has eigenvalues 0 and 5/4 (four times)
    spectrum = eigendecompose(normalized_laplacian(Adjacency(np.ones((5, 5)) - np.eye(5))))
    x = np.array([3.0, -1.0, 0.5, 2.0, -4.0])
    density = signal_density(spectrum, x)
    assert density.grid == pytest.approx([0.0, 1.25], abs=1e-12)
    assert density.cumulative[-1] == pytest.approx(x @ x, rel=1e-12)


def test_signal_density_of_an_edgeless_graph_is_one_point():
    spectrum = eigendecompose(normalized_laplacian(Adjacency(np.zeros((4, 4)))))
    x = np.array([1.0, -2.0, 0.5, 3.0])
    density = signal_density(spectrum, x)
    assert np.array_equal(density.grid, [0.0])
    assert density.density == pytest.approx([x @ x], rel=1e-12)
    assert density.cumulative == pytest.approx([x @ x], rel=1e-12)


def _density_from_profile(profile):
    from spectemp.spectral_graph import SignalDensity
    grid = np.linspace(0.05, 1.95, 64)
    d = profile(1.0 - grid)
    return SignalDensity(grid=grid, density=d, cumulative=np.cumsum(d))


def test_fit_weight_alpha_self_fit():
    density = _density_from_profile(lambda x: np.sqrt(1.0 - x ** 2))
    alpha, _ = fit_weight_alpha(density)
    assert abs(alpha - 1.0) <= 0.02


def test_fit_weight_alpha_uniform_profile():
    density = _density_from_profile(lambda x: np.ones_like(x))
    alpha, _ = fit_weight_alpha(density)
    assert abs(alpha - 0.5) <= 0.02


def test_fit_weight_alpha_rejects_empty_density():
    density = _density_from_profile(lambda x: np.zeros_like(x))
    with pytest.raises(ParameterError):
        fit_weight_alpha(density)
