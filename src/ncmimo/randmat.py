"""Samplers and densities for the random-matrix ensembles.

Complex Gaussian matrices, the Bartlett factor of the complex Wishart
and the Wishart drawn through it (including the rank-deficient
pseudo-Wishart), the complex matrix-variate Beta built from the Bartlett
factors of two independent Wisharts, and isotropically distributed
truncated unitaries (Haar on the Stiefel manifold).  Every sampler
takes an RngHandle and is deterministic given its seed; an optional
count stacks independent draws along a leading axis so Monte Carlo loops
stay in compiled code.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .params import DomainError, check_decreasing
from .specfun import LOG_PI, log_multivariate_gamma, log_vandermonde

# Generator recorded in output metadata; PCG64 has a documented,
# collision-resistant stream-split rule via SeedSequence.spawn.
RNG_ALGORITHM = "pcg64"

# Eigenvalues of a singular Beta draw this close to 1 belong to the
# deterministic unit block; eigensolver backward error at these sizes is
# orders of magnitude below this threshold.
UNIT_EIG_TOL = 1e-8


class RngHandle:
    """Seeded random stream with deterministic child-stream splitting."""

    def __init__(self, seed: int, _ss: np.random.SeedSequence | None = None):
        self.seed = int(seed)
        if self.seed < 0:
            raise DomainError(f"seed must be a non-negative integer, got seed={self.seed}")
        self._ss = np.random.SeedSequence(self.seed) if _ss is None else _ss
        self.generator = np.random.Generator(np.random.PCG64(self._ss))

    def spawn(self, k: int) -> list["RngHandle"]:
        """k independent child streams, reproducible from the parent seed."""
        return [RngHandle(self.seed, _ss=child) for child in self._ss.spawn(k)]


def _shape(m: int, n: int, count: int | None) -> tuple[int, ...]:
    return (m, n) if count is None else (count, m, n)


def sample_gaussian(m: int, n: int, variance: float, rng: RngHandle,
                    count: int | None = None) -> np.ndarray:
    """m x n matrix of iid circularly-symmetric CN(0, variance) entries."""
    if m < 1 or n < 1:
        raise DomainError(f"sample_gaussian requires m, n >= 1, got m={m}, n={n}")
    if not 0 < variance < np.inf:
        raise DomainError(f"sample_gaussian requires finite variance > 0, got {variance}")
    gen = rng.generator
    shape = _shape(m, n, count)
    scale = np.sqrt(variance / 2.0)
    return scale * (gen.standard_normal(shape) + 1j * gen.standard_normal(shape))


@lru_cache(maxsize=None)
def _below_diagonal(m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    # (rows, cols) of the entries strictly below the diagonal of an m x k matrix
    rows, cols = np.tril_indices(m, -1, k)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def sample_bartlett_factor(m: int, n: int, scale: float, rng: RngHandle,
                           count: int | None = None) -> np.ndarray:
    """Lower-trapezoidal m x min(m, n) factor L with L L^H ~ W_m(n, scale I).

    Bartlett (1933): L has a real positive diagonal with
    |L_ii|^2 ~ scale Gamma(n - i), i = 0 .. min(m, n) - 1, and iid
    CN(0, scale) entries strictly below it.  It is the lower factor of
    B = L Q (Q with orthonormal rows) for B an m x n matrix of iid
    CN(0, scale) entries, so D L and D B share their singular values for
    any D; n < m gives the rank-n pseudo-Wishart.  One draw costs
    min(m, n) Gamma variates and fewer than m^2 / 2 Gaussian entries,
    however large n is.
    """
    if m < 1 or n < 1:
        raise DomainError(f"sample_bartlett_factor requires m, n >= 1, got m={m}, n={n}")
    if not 0 < scale < np.inf:
        raise DomainError(f"sample_bartlett_factor requires finite scale > 0, got {scale}")
    k = min(m, n)
    stack = () if count is None else (count,)
    ell = np.zeros(stack + (m, k), dtype=complex)
    diag = np.arange(k)
    ell[..., diag, diag] = np.sqrt(scale * rng.generator.standard_gamma(n - diag, stack + (k,)))
    rows, cols = _below_diagonal(m, k)
    if rows.size:  # m = 1 has no entry below the diagonal
        ell[..., rows, cols] = sample_gaussian(1, rows.size, scale, rng, count=count)[..., 0, :]
    return ell


def _gram(x: np.ndarray) -> np.ndarray:
    """x x^H over the last two axes, symmetrized to be exactly Hermitian."""
    g = x @ np.conj(np.swapaxes(x, -1, -2))
    return 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))


def sample_wishart(m: int, n: int, scale: float, rng: RngHandle,
                   count: int | None = None) -> np.ndarray:
    """Complex Wishart W_m(n, scale I), the law of B B^H with B an m x n
    matrix of iid CN(0, scale) entries, drawn as L L^H from its Bartlett
    factor.  n < m is allowed and gives the singular (pseudo-) Wishart of
    rank n.
    """
    return _gram(sample_bartlett_factor(m, n, scale, rng, count=count))


def sample_matrix_beta(m: int, p: int, n: int, rng: RngHandle,
                       count: int | None = None) -> np.ndarray:
    """Complex matrix-variate Beta_m(p, n) draw.

    C = (T^H)^{-1} A T^{-1} with A ~ Wishart(m, p, I), B ~ Wishart(m, n, I)
    independent and A + B = T^H T, T upper-triangular with positive
    diagonal.  With the standard lower Cholesky A + B = L L^H this is
    T = L^H, so C = L^{-1} A L^{-H}.  A and B enter only through their
    Bartlett factors L_A, L_B: A + B = F F^H with F = [L_A L_B], and
    C = X X^H with X = L^{-1} L_A, one linear solve.
    Eigenvalues lie in [0, 1]; when n < m exactly m - n of them equal 1
    (the singular Beta).
    """
    if not p >= m >= 1:
        raise DomainError(f"sample_matrix_beta requires p >= m >= 1, got m={m}, p={p}")
    if n < 1:
        raise DomainError(f"sample_matrix_beta requires n >= 1, got n={n}")
    ell_a = sample_bartlett_factor(m, p, 1.0, rng, count=count)
    ell_b = sample_bartlett_factor(m, n, 1.0, rng, count=count)
    try:
        ell = np.linalg.cholesky(_gram(np.concatenate([ell_a, ell_b], axis=-1)))
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"A + B numerically singular in Beta construction: {exc}")
    return _gram(np.linalg.solve(ell, ell_a))


def sample_isotropic_unitary(T: int, M: int, rng: RngHandle,
                             count: int | None = None) -> np.ndarray:
    """T x M isotropically distributed matrix with orthonormal columns.

    QR of a complex Gaussian matrix with the phases fixed so that the
    triangular factor has real positive diagonal; without that correction
    the factor is not Haar-uniform on the Stiefel manifold.
    """
    if not T >= M >= 1:
        raise DomainError(f"sample_isotropic_unitary requires T >= M >= 1, got T={T}, M={M}")
    z = sample_gaussian(T, M, 1.0, rng, count=count)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def beta_eig_pdf_log(m: int, p: int, n: int, a) -> float:
    """ln of the joint pdf of the ordered eigenvalues of a Beta_m(p, n) matrix.

    For n >= m this is the density of all m eigenvalues,

        pi^{m(m-1)}/Gamma_m(m) * Gamma_m(p+n)/(Gamma_m(p) Gamma_m(n))
        * prod a_i^{p-m} (1-a_i)^{n-m} * prod_{i<j} (a_i - a_j)^2.

    For 0 < n < m the top m-n eigenvalues equal 1 almost surely and `a`
    holds only the n free ones; the density follows the same pattern with
    the index set reduced to dimension n:

        pi^{n(n-1)}/Gamma_n(n) * Gamma_n(p+n)/(Gamma_n(m) Gamma_n(p+n-m))
        * prod a_i^{p-m} (1-a_i)^{m-n} * prod_{i<j} (a_i - a_j)^2.

    The eigenvalues must decrease strictly inside (0, 1).
    """
    if not p >= m >= 1:
        raise DomainError(f"beta_eig_pdf_log requires p >= m >= 1, got m={m}, p={p}")
    if n < 1:
        raise DomainError(f"beta_eig_pdf_log requires n >= 1, got n={n}")
    k = min(m, n)
    a = check_decreasing(a, k, "beta_eig_pdf_log eigenvalues")
    if a[0] >= 1:
        raise DomainError("beta_eig_pdf_log: eigenvalues must lie strictly in (0, 1)")
    # dimension k; Gamma_k(p) Gamma_k(n) in the full case, Gamma_k(m) Gamma_k(p+n-m) if singular
    b, c = (p, n) if n >= m else (m, p + n - m)
    log_c = (k * (k - 1) * LOG_PI - log_multivariate_gamma(k, k) + log_multivariate_gamma(k, p + n)
             - log_multivariate_gamma(k, b) - log_multivariate_gamma(k, c))
    return float(log_c + (p - m) * np.log(a).sum() + abs(n - m) * np.log1p(-a).sum()
                 + 2.0 * log_vandermonde(a))
