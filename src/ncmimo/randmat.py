"""Samplers and densities for the random-matrix ensembles.

Complex Gaussian matrices, the Bartlett factor of the complex Wishart
and the Wishart drawn through it (including the rank-deficient
pseudo-Wishart), the complex matrix-variate Beta built from the Bartlett
factors of two independent Wisharts, and isotropically distributed
truncated unitaries (Haar on the Stiefel manifold).  Every sampler
draws from a numpy Generator, such as RngHandle(seed), and is
deterministic given its seed.  Its count (a non-negative integer) and
its dimensions (positive integers) follow params.check_int and are
checked (DomainError) before anything is drawn.  It returns count
independent draws stacked along a leading axis, so Monte Carlo loops
stay in compiled code.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .params import DomainError, check_decreasing, check_int
from .specfun import LOG_PI, log_multivariate_gamma, log_vandermonde

# Generator recorded in output metadata; PCG64 has a documented,
# collision-resistant stream-split rule via SeedSequence.spawn.
RNG_ALGORITHM = "pcg64"

# Array entries per chunk of every stacked loop (the gain draw, the power
# suite, the CLI's rows), so peak memory stays flat in the count.
CHUNK_ENTRIES = 1 << 14


def chunks(count: int, width: int):
    """(start, stop) bounds splitting count items of `width` array entries
    each into chunks of CHUNK_ENTRIES // width items, one at least."""
    step = max(1, CHUNK_ENTRIES // width)
    for start in range(0, count, step):
        yield start, min(start + step, count)


def RngHandle(seed: int) -> np.random.Generator:
    """numpy's PCG64 Generator seeded through SeedSequence, the stream of
    np.random.default_rng(seed); DomainError for a seed that is not a
    non-negative Python or numpy integer (bool, float and str included)."""
    return np.random.Generator(np.random.PCG64(check_int(seed, "seed")))


def sample_gaussian(m: int, n: int, variance: float, rng: np.random.Generator,
                    count: int) -> np.ndarray:
    """count x m x n stack of iid circularly-symmetric CN(0, variance) entries."""
    count, m, n = check_int(count, "count"), check_int(m, "m", 1), check_int(n, "n", 1)
    if not 0 < variance < np.inf:
        raise DomainError(f"sample_gaussian requires finite variance > 0, got {variance}")
    shape = (count, m, n)
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@lru_cache(maxsize=None)
def _below_diagonal(m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    # (rows, cols) of the entries strictly below the diagonal of an m x k matrix
    rows, cols = np.tril_indices(m, -1, k)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def sample_bartlett_factor(m: int, n: int, scale: float, rng: np.random.Generator,
                           count: int) -> np.ndarray:
    """count lower-trapezoidal m x min(m, n) factors L with L L^H ~ W_m(n, scale I).

    Bartlett (1933): L has a real positive diagonal with
    |L_ii|^2 ~ scale Gamma(n - i), i = 0 .. min(m, n) - 1, and iid
    CN(0, scale) entries strictly below it.  It is the lower factor of
    B = L Q (Q with orthonormal rows) for B an m x n matrix of iid
    CN(0, scale) entries, so D L and D B share their singular values for
    any D; n < m gives the rank-n pseudo-Wishart.  One draw costs
    min(m, n) Gamma variates and fewer than m^2 / 2 Gaussian entries,
    however large n is.  The diagonals of the whole stack are drawn
    first, then the entries below them in np.tril_indices order.
    """
    count, m, n = check_int(count, "count"), check_int(m, "m", 1), check_int(n, "n", 1)
    if not 0 < scale < np.inf:
        raise DomainError(f"sample_bartlett_factor requires finite scale > 0, got {scale}")
    k = min(m, n)
    ell = np.zeros((count, m, k), dtype=complex)
    diag = np.arange(k)
    ell[:, diag, diag] = np.sqrt(scale * rng.standard_gamma(n - diag, (count, k)))
    rows, cols = _below_diagonal(m, k)
    if rows.size:  # m = 1 has no entry below the diagonal
        ell[:, rows, cols] = sample_gaussian(1, rows.size, scale, rng, count)[:, 0, :]
    return ell


def _gram(x: np.ndarray) -> np.ndarray:
    """x x^H over the last two axes, symmetrized to be exactly Hermitian."""
    g = x @ np.conj(np.swapaxes(x, -1, -2))
    return 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))


def sample_wishart(m: int, n: int, scale: float, rng: np.random.Generator,
                   count: int) -> np.ndarray:
    """count draws of the complex Wishart W_m(n, scale I), the law of B B^H
    with B an m x n matrix of iid CN(0, scale) entries, drawn as L L^H from
    its Bartlett factor.  n < m is allowed and gives the singular (pseudo-)
    Wishart of rank n.
    """
    return _gram(sample_bartlett_factor(m, n, scale, rng, count))


def sample_matrix_beta(m: int, p: int, n: int, rng: np.random.Generator,
                       count: int) -> np.ndarray:
    """count complex matrix-variate Beta_m(p, n) draws.

    C = (T^H)^{-1} A T^{-1} with A ~ Wishart(m, p, I), B ~ Wishart(m, n, I)
    independent and A + B = T^H T, T upper-triangular with positive
    diagonal.  With the standard lower Cholesky A + B = L L^H this is
    T = L^H, so C = L^{-1} A L^{-H}.  A and B enter only through their
    Bartlett factors L_A, L_B: A + B = F F^H with F = [L_A L_B], and
    C = X X^H with X = L^{-1} L_A, one linear solve.
    Eigenvalues lie in [0, 1]; when n < m exactly m - n of them equal 1
    (the singular Beta).
    """
    m, n = check_int(m, "m", 1), check_int(n, "n", 1)
    p = check_int(p, "p", m)
    ell_a = sample_bartlett_factor(m, p, 1.0, rng, count)
    ell_b = sample_bartlett_factor(m, n, 1.0, rng, count)
    try:
        ell = np.linalg.cholesky(_gram(np.concatenate([ell_a, ell_b], axis=-1)))
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"A + B numerically singular in Beta construction: {exc}")
    return _gram(np.linalg.solve(ell, ell_a))


def sample_isotropic_unitary(T: int, M: int, rng: np.random.Generator,
                             count: int) -> np.ndarray:
    """count isotropically distributed T x M matrices with orthonormal columns.

    QR of a complex Gaussian matrix with the phases fixed so that the
    triangular factor has real positive diagonal; without that correction
    the factor is not Haar-uniform on the Stiefel manifold.
    """
    M = check_int(M, "M", 1)
    T = check_int(T, "T", M)
    z = sample_gaussian(T, M, 1.0, rng, count)
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
    m, n = check_int(m, "m", 1), check_int(n, "n", 1)
    p = check_int(p, "p", m)
    k = min(m, n)
    a = check_decreasing(a, k, "beta_eig_pdf_log eigenvalues")
    if a[0] >= 1:
        raise DomainError("beta_eig_pdf_log: eigenvalues must lie strictly in (0, 1)")
    # dimension k; Gamma_k(p) Gamma_k(n) in the full case, Gamma_k(m) Gamma_k(p+n-m) if singular
    b, c = (p, n) if n >= m else (m, p + n - m)
    log_c = (k * (k - 1) * LOG_PI - log_multivariate_gamma(k, k) + log_multivariate_gamma(k, p + n)
             - log_multivariate_gamma(k, b) - log_multivariate_gamma(k, c))
    return float(log_c + (p - m) * np.log(a).sum() + abs(n - m) * np.log1p(-a).sum()
                 + 2.0 * log_vandermonde(a.tolist()))
