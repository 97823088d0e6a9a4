"""Polynomial graph spectral filters on the normalized Laplacian.

A graph signal X (one feature vector per node) is filtered by a polynomial
of the normalized Laplacian L = D^{-1/2} (D - A) D^{-1/2}, whose spectrum
lies in [0, 2]. Filters are expressed in one of five polynomial bases:

========== ============================== ==========================
basis      P_k evaluated on               matrix operand
========== ============================== ==========================
monomial   x^k, x = 1 - lambda            I - L   (L via a flag)
bernstein  binom(K,k) (1-l/2)^(K-k)(l/2)^k  L (lambda in [0, 2])
chebyshev2 Gegenbauer with alpha = 1      I - L
gegenbauer C_k^alpha(x), x = 1 - lambda   I - L
jacobi     P_k^(a,b)(x),  x = 1 - lambda  I - L
========== ============================== ==========================

Each basis is written once. `basis_recurrence` resolves its parameters
(chebyshev2 -> alpha = 1, the default Jacobi pair a = b = alpha - 1/2, the
domain check a, b > -1) and tabulates the coefficients of

    P_0 = 1,  P_k = (A_k M P_{k-1} + B_k P_{k-1} - C_k P_{k-2}) / D_k.

Gegenbauer, for one, has A_1 = 2 alpha, A_k = 2 (k + alpha - 1),
C_k = k + 2 alpha - 2, D_k = k, and is orthogonal on [-1, 1] under the
weight (1 - x^2)^(alpha - 1/2). `polynomial_stack` runs the table (or the
Bernstein construction) with the "apply M" step and the arithmetic passed
in, so one driver serves the scalar evaluators, the numpy `graph_conv`
(matrix-vector products, never a dense P_k(L)) and the model's autodiff
tape. A recurrence basis applies M K times. Bernstein carries (L/2)^k p0
from one term to the next and applies (I - L/2) K - k times to term k:
K(K+3)/2 applies in all (65 at K = 10). `spectral_oracle_conv` is the
independent eigendecomposition route U g(Lambda) U^T X that cross-checks
it, run as two BLAS products on the (N, rest) flattening of X.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from math import comb, prod

import numpy as np

from .errors import NumericalError, ParameterError, ShapeError

__all__ = [
    "BASES",
    "Adjacency",
    "GraphSpectrum",
    "FilterBank",
    "Recurrence",
    "SignalDensity",
    "normalized_laplacian",
    "eigendecompose",
    "basis_recurrence",
    "polynomial_stack",
    "basis_eval",
    "filter_response",
    "graph_conv",
    "spectral_oracle_conv",
    "signal_density",
    "fit_weight_alpha",
    "orthogonality_residual",
]

BASES = ("monomial", "bernstein", "chebyshev2", "gegenbauer", "jacobi")

_EIGEN_GAP = 1e-8  # eigenvalues closer than this count as repeated
_SIGN_EPS = 1e-12
_ALPHA_GRID = np.arange(0.05, 3.0 + 1e-9, 0.01)  # ascending: ties go to the smaller alpha


@dataclass(frozen=True)
class Adjacency:
    """Symmetric nonnegative adjacency with zero diagonal."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError(f"adjacency must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ParameterError("adjacency contains non-finite entries")
        if np.any(m < 0):
            raise ParameterError("adjacency entries must be nonnegative")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-12):
            raise ParameterError("adjacency must be symmetric")
        if np.any(np.abs(np.diag(m)) > 0):
            raise ParameterError("adjacency diagonal must be zero")
        object.__setattr__(self, "matrix", m)

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class GraphSpectrum:
    """Eigendecomposition of a normalized Laplacian.

    eigenvalues are ascending; each eigenvector column has its first
    entry of magnitude > 1e-12 made positive so decompositions are
    reproducible across runs.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class FilterBank:
    """A degree-K polynomial filter with per-dimension coefficients.

    coefficients has shape (K+1, D); column d holds the polynomial
    coefficients of the filter applied to feature dimension d. A single
    column is broadcast across all dimensions.
    """

    basis: str
    degree: int
    coefficients: np.ndarray
    alpha: float = 1.0
    jacobi_a: float | None = None
    jacobi_b: float | None = None
    monomial_on_laplacian: bool = False

    def __post_init__(self):
        self.recurrence()  # rejects bad degrees, unknown bases and out-of-domain weights
        coeff = np.asarray(self.coefficients, dtype=np.float64)
        if coeff.ndim == 1:
            coeff = coeff[:, None]
        if coeff.ndim != 2:
            raise ShapeError("coefficients must be (K+1,) or (K+1, D)")
        if coeff.shape[0] != self.degree + 1:
            raise ShapeError(
                f"coefficient rows ({coeff.shape[0]}) must equal degree+1 ({self.degree + 1})")
        object.__setattr__(self, "coefficients", coeff)

    def recurrence(self) -> Recurrence:
        return basis_recurrence(self.basis, self.degree, self.alpha, self.jacobi_a,
                                self.jacobi_b, self.monomial_on_laplacian)


@dataclass(frozen=True)
class SignalDensity:
    """Spectral energy density of a graph signal on the eigenvalue grid.

    cumulative[i] is the total energy at eigenvalues <= grid[i]; density
    is its finite-difference derivative (the leading cell reuses the first
    positive spacing so a point mass at lambda_min still shows up).
    """

    grid: np.ndarray
    density: np.ndarray
    cumulative: np.ndarray


# ---------------------------------------------------------------------------
# Laplacian and eigendecomposition
# ---------------------------------------------------------------------------

def normalized_laplacian(adj: Adjacency | np.ndarray) -> np.ndarray:
    """L = D^{-1/2} (D - A) D^{-1/2}, with zero rows/columns for isolated nodes."""
    if not isinstance(adj, Adjacency):
        adj = Adjacency(np.asarray(adj))
    a = adj.matrix
    deg = a.sum(axis=1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    lap = -inv_sqrt[:, None] * a * inv_sqrt[None, :]
    lap[np.diag_indices_from(lap)] += (deg > 0).astype(np.float64)
    return (lap + lap.T) / 2.0


def eigendecompose(laplacian: np.ndarray) -> GraphSpectrum:
    """Eigenpairs of a symmetric Laplacian in the ascending order
    ``np.linalg.eigh`` returns them, signs fixed as ``GraphSpectrum`` says."""
    lap = np.asarray(laplacian, dtype=np.float64)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ShapeError(f"laplacian must be square, got {lap.shape}")
    # eigh reads only the lower triangle, so an asymmetric input would be
    # decomposed as another matrix. The tolerance is absolute; a non-finite
    # entry makes the difference NaN or inf, which fails it too.
    with np.errstate(invalid="ignore"):
        asymmetry = np.abs(lap - lap.T)
    if lap.size and not asymmetry.max() <= 1e-10:
        if not np.isfinite(lap).all():
            raise ParameterError("laplacian contains non-finite entries")
        raise ShapeError(f"laplacian must be symmetric to 1e-10, but |L - L^T| "
                         f"reaches {asymmetry.max():.3g}")
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed to converge: {exc}") from exc
    # A column with no entry above _SIGN_EPS keeps its sign; argmax over an
    # empty axis raises, hence N = 0 apart. U is returned column-major
    # because products with U round differently in another layout.
    first = np.argmax(np.abs(eigenvectors) > _SIGN_EPS, axis=0) if len(lap) else []
    signs = np.where(eigenvectors[first, np.arange(len(lap))] < -_SIGN_EPS, -1.0, 1.0)
    eigenvectors = np.multiply(eigenvectors, signs, order="F")
    return GraphSpectrum(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


# ---------------------------------------------------------------------------
# basis recurrences: one table, one driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Recurrence:
    """A basis with resolved parameters: rows[k-1] = (A_k, B_k, C_k, 1/D_k).

    M is I - L (x = 1 - lambda) unless ``on_laplacian``; ``weight`` is the
    Jacobi pair (a, b) of the orthogonality weight (1-x)^a (1+x)^b, uniform
    for the power bases. Bernstein has no rows.
    """

    basis: str
    degree: int
    rows: tuple
    on_laplacian: bool
    weight: tuple[float, float]


def basis_recurrence(basis: str, degree: int, alpha: float = 1.0,
                     jacobi_a: float | None = None, jacobi_b: float | None = None,
                     monomial_on_laplacian: bool = False) -> Recurrence:
    """Resolve a basis's parameters once and tabulate its recurrence.

    chebyshev2 is Gegenbauer at alpha = 1; the Jacobi exponents default to
    a = b = alpha - 1/2 (the Gegenbauer weight). Every orthogonal family
    needs a, b > -1, which for Gegenbauer is alpha > -1/2. The degree must
    be a non-negative integer, not a bool.
    """
    if isinstance(degree, bool) or not isinstance(degree, numbers.Integral) or degree < 0:
        raise ParameterError(f"degree must be a non-negative integer, got {degree!r}")
    if basis not in BASES:
        raise ParameterError(f"unknown basis {basis!r}, expected one of {BASES}")
    if basis == "chebyshev2":
        alpha = 1.0
    a = b = 0.0
    if basis in ("gegenbauer", "chebyshev2"):
        a = b = alpha - 0.5
    elif basis == "jacobi":
        a = alpha - 0.5 if jacobi_a is None else float(jacobi_a)
        b = alpha - 0.5 if jacobi_b is None else float(jacobi_b)
    if not (a > -1.0 and b > -1.0):
        raise ParameterError(
            f"{basis} weight exponents must exceed -1 (alpha > -1/2), got a={a}, b={b}")

    rows = []
    for k in range(1, degree + 1):
        if basis == "monomial":
            rows.append((1.0, 0.0, 0.0, 1.0))
        elif basis in ("gegenbauer", "chebyshev2"):
            rows.append((2.0 * alpha, 0.0, 0.0, 1.0) if k == 1 else
                        (2.0 * (k + alpha - 1.0), 0.0, k + 2.0 * alpha - 2.0, 1.0 / k))
        elif basis == "jacobi" and k == 1:
            rows.append((0.5 * (a + b + 2.0), 0.5 * (a - b), 0.0, 1.0))
        elif basis == "jacobi":
            c1 = 2.0 * k * (k + a + b) * (2.0 * k + a + b - 2.0)
            c2 = (2.0 * k + a + b - 1.0) * (a * a - b * b)
            c3 = (2.0 * k + a + b - 1.0) * (2.0 * k + a + b) * (2.0 * k + a + b - 2.0)
            c4 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + a + b)
            rows.append((c3, c2, c4, 1.0 / c1))
    on_laplacian = basis == "bernstein" or (basis == "monomial" and monomial_on_laplacian)
    return Recurrence(basis=basis, degree=degree, rows=tuple(rows),
                      on_laplacian=on_laplacian, weight=(float(a), float(b)))


def polynomial_stack(rec: Recurrence, p0, apply, mul=operator.mul, add=operator.add,
                     sub=operator.sub) -> list:
    """[P_0(M) p0, ..., P_K(M) p0] for a resolved basis.

    ``apply(v)`` computes M v; ``mul(v, c)`` scales by a float and
    ``add``/``sub`` combine two values, so the same driver runs on scalars,
    on numpy matrices and on the autodiff tape. Zero terms and unit
    scalings are skipped, which keeps P_0 and P_1 free of extra rounding.
    """
    degree = rec.degree
    if rec.basis == "bernstein":
        # binom(K, k) (I - L/2)^(K-k) (L/2)^k p0; the power (L/2)^k p0 is
        # carried from one term to the next, so each term's operations are
        # those of building it alone, in the same order.
        stack, power = [], p0
        for k in range(degree + 1):
            if k:
                power = mul(apply(power), 0.5)
            term = power
            for _ in range(degree - k):
                term = sub(term, mul(apply(term), 0.5))
            stack.append(mul(term, float(comb(degree, k))))
        return stack
    stack = [p0]
    for a, b, c, inv_d in rec.rows:
        prev = stack[-1]
        term = apply(prev)
        if a != 1.0:
            term = mul(term, a)
        if b:
            term = add(mul(prev, b), term)
        if c:
            term = sub(term, mul(stack[-2], c))
        if inv_d != 1.0:
            term = mul(term, inv_d)
        stack.append(term)
    return stack


def _values(rec: Recurrence, x: np.ndarray) -> np.ndarray:
    """P_0..P_K stacked, evaluated at x in [-1, 1] (x = 1 - lambda)."""
    x = np.asarray(x, dtype=np.float64)
    operand = 1.0 - x if rec.on_laplacian else x
    return np.stack(polynomial_stack(rec, np.ones_like(x), lambda v: operand * v))


def basis_eval(basis: str, k: int, x, alpha: float = 1.0, degree: int | None = None,
               jacobi_a: float | None = None, jacobi_b: float | None = None):
    """Evaluate the k-th basis polynomial at x in [-1, 1] (x = 1 - lambda).

    Bernstein needs the family degree K (its members depend on it); for the
    other bases ``degree`` defaults to k.
    """
    if k < 0:
        raise ParameterError("polynomial index k must be nonnegative")
    if degree is None and basis == "bernstein":
        raise ParameterError("bernstein basis requires the family degree")
    deg = k if degree is None else degree
    if k > deg:
        raise ParameterError(f"polynomial index k={k} exceeds the family degree {deg}")
    rec = basis_recurrence(basis, deg, alpha, jacobi_a, jacobi_b)
    x_arr = np.asarray(x, dtype=np.float64)
    if np.any(np.abs(x_arr) > 1.0 + 1e-9):
        raise ParameterError("basis argument x must lie in [-1, 1]")
    values = _values(rec, x_arr)[k]
    return float(values) if np.isscalar(x) or x_arr.ndim == 0 else values


def filter_response(bank: FilterBank, lambdas: np.ndarray) -> np.ndarray:
    """g(lambda) for each feature dimension; shape (len(lambdas), D)."""
    lam = np.atleast_1d(np.asarray(lambdas, dtype=np.float64))
    if np.any(lam < -1e-9) or np.any(lam > 2.0 + 1e-9):
        raise ParameterError("eigenvalue arguments must lie in [0, 2]")
    values = _values(bank.recurrence(), 1.0 - lam)
    return np.einsum("kl,kd->ld", values, bank.coefficients)


# ---------------------------------------------------------------------------
# convolution: recurrence route and eigendecomposition oracle
# ---------------------------------------------------------------------------

def _resolve_laplacian(adj_or_laplacian) -> np.ndarray:
    """Adjacency objects are converted; raw arrays are taken as L itself."""
    if isinstance(adj_or_laplacian, Adjacency):
        return normalized_laplacian(adj_or_laplacian)
    lap = np.asarray(adj_or_laplacian, dtype=np.float64)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ShapeError(f"operator must be square, got {lap.shape}")
    return lap


def _check_width(coefficients: np.ndarray, d: int) -> None:
    width = coefficients.shape[1]
    if width not in (1, d):
        raise ShapeError(
            f"coefficient columns ({width}) must be 1 or match the signal's "
            f"feature dimension ({d})")


def graph_conv(bank: FilterBank, adj_or_laplacian, x_t: np.ndarray) -> np.ndarray:
    """Filter the node-axis signal x_t (N, ..., D) through the bank.

    Runs the basis recurrence on vectors, so only matrix-vector products
    against the operator are needed (never a dense P_k(L)).
    """
    lap = _resolve_laplacian(adj_or_laplacian)
    x = np.asarray(x_t, dtype=np.float64)
    if x.ndim < 2 or x.shape[0] != lap.shape[0]:
        raise ShapeError(
            f"signal must be (N, ..., D) with N={lap.shape[0]}, got {x.shape}")
    _check_width(bank.coefficients, x.shape[-1])
    n = lap.shape[0]
    rec = bank.recurrence()
    mat = lap if rec.on_laplacian else np.eye(n) - lap
    stack = polynomial_stack(rec, x.reshape(n, prod(x.shape[1:])), lambda flat: mat @ flat)
    out = np.zeros_like(x)
    for term, theta in zip(stack, bank.coefficients):
        out += term.reshape(x.shape) * theta  # (D,) or (1,) broadcasts on last axis
    return out


def spectral_oracle_conv(spectrum: GraphSpectrum, bank: FilterBank,
                         x_t: np.ndarray) -> np.ndarray:
    """Reference route: U g(Lambda) U^T x, per feature dimension, as two
    BLAS products on the (N, rest) flattening of x."""
    u = spectrum.eigenvectors
    x = np.asarray(x_t, dtype=np.float64)
    n = u.shape[0]
    if x.ndim < 2 or x.shape[0] != n:
        raise ShapeError(f"signal must be (N, ..., D) with N={n}, got {x.shape}")
    _check_width(bank.coefficients, x.shape[-1])
    responses = filter_response(bank, spectrum.eigenvalues)  # (N, D) or (N, 1)
    gains = responses.reshape((n,) + (1,) * (x.ndim - 2) + responses.shape[1:])
    rest = prod(x.shape[1:])
    hat = (u.T @ x.reshape(n, rest)).reshape(x.shape)
    return (u @ (hat * gains).reshape(n, rest)).reshape(x.shape)


# ---------------------------------------------------------------------------
# spectral energy density and weight fitting
# ---------------------------------------------------------------------------

def signal_density(spectrum: GraphSpectrum, x_t: np.ndarray) -> SignalDensity:
    """Energy of U^T x per eigenvalue, merged over repeated eigenvalues."""
    x = np.asarray(x_t, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    hat = spectrum.eigenvectors.T @ x
    energy = (hat ** 2).sum(axis=1)
    lam = spectrum.eigenvalues

    grid, grouped = [], []
    for value, e in zip(lam, energy):
        if grid and value - grid[-1] < _EIGEN_GAP:
            grouped[-1] += e
        else:
            grid.append(float(value))
            grouped.append(float(e))
    grid = np.asarray(grid)
    grouped = np.asarray(grouped)
    cumulative = np.cumsum(grouped)

    density = np.zeros_like(grouped)
    if grid.size > 1:
        spacings = np.diff(grid)
        density[0] = grouped[0] / spacings[0]
        density[1:] = grouped[1:] / spacings
    else:
        density[0] = grouped[0]
    return SignalDensity(grid=grid, density=density, cumulative=cumulative)


def gegenbauer_weight(x: np.ndarray, alpha: float) -> np.ndarray:
    return (1.0 - np.asarray(x) ** 2) ** (alpha - 0.5)


def fit_weight_alpha(density: SignalDensity) -> tuple[float, float]:
    """Grid-search the Gegenbauer weight exponent matching a signal density.

    Both the density and each candidate weight (1-x^2)^(alpha-1/2) are
    normalized to unit trapezoid mass over the interior of the x = 1 - lambda
    grid before the squared distance is taken. The candidates are
    ``_ALPHA_GRID`` (0.05 to 3.0 by 0.01); ties resolve to the smaller alpha.
    """
    x = 1.0 - density.grid
    interior = np.abs(x) < 1.0 - 1e-9
    if interior.sum() < 2:
        raise ParameterError("density grid has fewer than two interior points")
    xi = x[interior]
    di = density.density[interior]
    order = np.argsort(xi)
    xi, di = xi[order], di[order]
    mass = np.trapezoid(di, xi)
    if not mass > 0:
        raise ParameterError("signal density carries no interior energy")
    di = di / mass

    best_alpha, best_residual = float(_ALPHA_GRID[0]), np.inf
    for alpha in _ALPHA_GRID:
        w = gegenbauer_weight(xi, float(alpha))
        residual = float(((di - w / np.trapezoid(w, xi)) ** 2).sum())
        if residual < best_residual - 1e-15:
            best_alpha, best_residual = float(alpha), residual
    return best_alpha, best_residual


# ---------------------------------------------------------------------------
# orthogonality diagnostics
# ---------------------------------------------------------------------------

def orthogonality_residual(basis: str, jmax: int = 4, alpha: float = 1.0,
                           jacobi_a: float | None = None,
                           jacobi_b: float | None = None) -> float:
    """Max |integral of P_j P_k w| over j != k <= jmax, by Gauss-Jacobi quadrature.

    The weight w is the basis's own orthogonality weight for the orthogonal
    families and the uniform weight for monomial/bernstein (their residual
    is far from zero). jmax + 1 nodes integrate every P_j P_k exactly.
    """
    from scipy.special import roots_jacobi

    if jmax < 0:
        raise ParameterError(f"jmax must be a nonnegative degree, got {jmax}")
    rec = basis_recurrence(basis, jmax, alpha, jacobi_a, jacobi_b)
    xq, wq = roots_jacobi(jmax + 1, *rec.weight)
    values = _values(rec, xq)
    gram = np.einsum("q,iq,jq->ij", wq, values, values)
    off = gram - np.diag(np.diag(gram))
    return float(np.abs(off).max())
