"""Closed-form output densities of the block-fading channel.

Everything here is evaluated in the natural-log domain, with the gain
D given as the vector of its strictly decreasing diagonal.  f(Y | D) and
the finite-SNR spectrum density hold only for T <= N and raise
DomainError otherwise (ROADMAP item 10 plans the confluent limits T > N
needs); the high-SNR limit holds at any T.  Determinants of matrices with
exponentially large or small entries are computed by factoring the
largest exponent out of every row before a pivoted factorization, which
keeps every intermediate bounded at any SNR.

Every matrix density here is a Gaussian or one determinant core,
_kernel_log: the Haar-averaged complex Wishart kernel
det[exp(-mu_i s2_j)] / (Delta(s2) Delta(-mu)) over the nodes mu.  f(Y | D)
takes the nodes mu = 1/(1 + rho~ d^2) and T - M unit nodes; the leading
block of the high-SNR limit takes mu = 1/d^2 at T = M.  Every spectrum
density is a matrix density times one SVD change of variables, _sv_log.

Raw singular values are called sv; svn denotes the normalized vector
whose first M entries are scaled by sqrt(M/rho).  The scaling is always
applied by the caller.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .params import (
    ConfluenceError,
    DerivedParams,
    DomainError,
    check_decreasing,
    rho_from_db,
)
from .specfun import LOG_2, LOG_PI, log_gamma_range, log_stiefel_volume, log_vandermonde


# The cached power arrays are shared by every caller: read-only.
@lru_cache(maxsize=None)
def _row_powers(T: int, M: int) -> np.ndarray:
    # exponents T - i of the polynomial rows i = M+1..T, as a column
    p = T - np.arange(M + 1, T + 1, dtype=float)[:, None]
    p.flags.writeable = False
    return p


@lru_cache(maxsize=None)
def _spectrum_volumes(m: int, n: int) -> float:
    # ln of the U(m)/phase and S(n, m) volumes the SVD integrates out; the
    # quotient by the m phases divides |U(m)| = |S(m, m)| by (2 pi)^m
    return log_stiefel_volume(m, m) - m * (LOG_2 + LOG_PI) + log_stiefel_volume(n, m)


def _scaled_logdet(logmag: np.ndarray) -> float:
    """ln det of the matrix with entrywise log-magnitudes logmag.

    Row maxima are factored out first so that exp never overflows; entries
    that underflow relative to their row maximum become exact zeros, which
    is their correct limit.  The determinant must be positive: a sign the
    pivoted factorization cannot keep raises ConfluenceError.
    """
    c = logmag.max(axis=1)
    c[c == -np.inf] = 0.0  # a row of zeros stays zero
    sign, ld = np.linalg.slogdet(np.exp(logmag - c[:, None]))
    if sign <= 0:
        raise ConfluenceError(
            "determinant lost its sign; inputs are too close to confluent "
            "for a stable evaluation")
    return float(ld + c.sum())


def _gain2(D, M: int) -> np.ndarray:
    # check_decreasing keeps a last square that underflows to 0; no density takes it
    d = check_decreasing(D, M, "gain diagonal")
    d2 = d * d
    if d2[-1] == 0.0:
        raise DomainError("gain diagonal: squared entries must be positive")
    return d2


def _kernel_log(s2: np.ndarray, mu: np.ndarray, N: int) -> float:
    """ln of the Haar-averaged complex Wishart kernel at the decreasing
    squared singular values s2 of a T x N matrix, over the increasing nodes
    mu (M = mu.size <= T) and T - M unit nodes:

        pi^{-NT} prod_{i=T-M+1}^{T} Gamma(i) prod mu_i^N
        det(K) / [prod_{i<j}(s2_i - s2_j) prod_{i<j}(mu_j - mu_i)]

    with K_{ij} = exp(-mu_i s2_j) on the first M rows and, the confluent
    limit of the unit nodes, s2_j^{T-i} exp(-s2_j) below.  At T = M this is
    the density of U diag(mu)^{-1/2} G with U Haar and G an M x N standard
    Gaussian; for T > M the unit nodes leave a factor prod (1 - mu_i)^{M-T}
    to the caller.
    """
    T, M = s2.size, mu.size
    logmag = np.empty((T, T))
    logmag[:M] = -mu[:, None] * s2
    if T > M:
        rows = logmag[M:]
        if s2[-1] > 0:
            np.multiply(_row_powers(T, M), np.log(s2), out=rows)
        else:  # s2 decreases, so only its last entry can have underflowed to 0
            with np.errstate(divide="ignore", invalid="ignore"):
                np.multiply(_row_powers(T, M), np.log(s2), out=rows)
            rows[-1] = 0.0  # the power-0 row: 0 ln 0 = 0
        rows -= s2
    return float(
        -N * T * LOG_PI
        + log_gamma_range(T - M + 1, T)
        + N * np.log(mu).sum()
        + _scaled_logdet(logmag)
        - log_vandermonde(s2)
        - log_vandermonde(-mu)
    )


def _cond_log(s2: np.ndarray, d2: np.ndarray, rt: float, N: int) -> float:
    """ln f(Y | D) from the decreasing squared singular values s2 of Y.

    The kernel at mu_i = 1/(1 + rt d2_i) times prod (1 - mu_i)^{M-T}.  mu
    and 1 - mu = rt d2 mu are both formed directly: mu as 1 - lambda would
    lose its digits at high SNR, 1 - mu by subtraction at low SNR.
    """
    mu = 1.0 / (1.0 + rt * d2)
    return _kernel_log(s2, mu, N) - (s2.size - d2.size) * float(np.log(rt * d2 * mu).sum())


def _jacobian_log(sv: np.ndarray, n: int) -> float:
    # the SVD volume Jacobian of an n x sv.size spectrum
    return float((2 * (n - sv.size) + 1) * np.log(sv).sum()
                 + 2.0 * log_vandermonde(sv * sv))


def _sv_log(matrix_log: float, sv: np.ndarray, n: int) -> float:
    """ln of the joint density of the decreasing singular values sv of an
    m x n matrix (m = sv.size <= n) whose unitarily invariant density is
    exp(matrix_log) at them: the SVD Jacobian and the volumes of the
    singular-vector manifolds the change of variables integrates out."""
    return float(matrix_log + _jacobian_log(sv, n) + _spectrum_volumes(sv.size, n))


def cond_pdf_y_given_d_log(Y: np.ndarray, D, dp: DerivedParams,
                           snr_db: float) -> float:
    """ln f(Y | D) for the block-fading channel output, T <= N only.

    Uses the determinant closed form of _cond_log with the Gaussian factor
    exp(-tr(Y^H Y)) absorbed column-wise into the determinant, so the
    evaluation stays finite at any SNR.
    """
    T, M, N = dp.T, dp.M, dp.N
    if T > N:
        raise DomainError(
            f"closed-form conditional pdf requires T <= N, got T={T}, N={N}")
    Y = np.asarray(Y)
    if Y.shape != (T, N):
        raise DomainError(f"Y must be T x N = {T} x {N}, got {Y.shape}")
    d2 = _gain2(D, M)
    try:
        sv = np.linalg.svd(Y, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # a NaN in Y; an inf fails the check below
        raise DomainError(f"singular values of Y: {exc}") from None
    sv = check_decreasing(sv, T, "singular values of Y")
    return _cond_log(sv * sv, d2, rho_from_db(snr_db) / M, N)


def _gaussian_sv_log(sv: np.ndarray, n: int, var: float) -> float:
    """ln of the joint density of the singular values sv of an m x n complex
    Gaussian matrix with iid CN(0, var) entries, m = sv.size <= n."""
    return _sv_log(-sv.size * n * (LOG_PI + np.log(var)) - (sv * sv).sum() / var, sv, n)


def first_sv_pdf_log(sv, dp: DerivedParams, snr_db: float) -> float:
    """ln of the joint density of the M leading output singular values.

    This is the singular-value law of an M x Q complex Gaussian matrix
    with per-entry variance lambda_bar = N T rho / (M Q).
    """
    sv = check_decreasing(sv, dp.M, "first_sv_pdf_log sv")
    return _gaussian_sv_log(sv, dp.Q, dp.N * dp.T * rho_from_db(snr_db) / (dp.M * dp.Q))


def tail_sv_pdf_log(sv, dp: DerivedParams) -> float:
    """ln of the joint density of the trailing rmin - M output singular values.

    Equals the singular-value law of an (N-M) x (T-M) standard complex
    Gaussian.  An empty vector (rmin = M) returns 0.
    """
    R = dp.rmin - dp.M
    sv = check_decreasing(sv, R, "tail_sv_pdf_log sv")
    return _gaussian_sv_log(sv, dp.rmax - dp.M, 1.0) if R else 0.0


def cond_sv_pdf_finite_log(svn, D, dp: DerivedParams,
                           snr_db: float) -> float:
    """ln of the finite-SNR conditional density of the normalized spectrum.

    svn holds the T normalized singular values: the leading M carry the
    sqrt(M/rho) scaling, the rest are raw.  The support is the set where
    the raw values (leading block times sqrt(rho/M)) decrease strictly,
    which is wider than svn decreasing and is what the normalization
    integral runs over.  The density is the spectrum density of ln f(Y | D)
    times (rho/M)^{M/2} for the scaling of the leading block.
    """
    T, M, N = dp.T, dp.M, dp.N
    if T > N:
        raise DomainError(
            f"closed-form conditional sv pdf requires T <= N, got T={T}, N={N}")
    d2 = _gain2(D, M)
    rt = rho_from_db(snr_db) / M
    raw = np.array(svn, dtype=float, ndmin=1)
    raw[:M] *= np.sqrt(rt)
    raw = check_decreasing(raw, T, "raw spectrum (leading block times sqrt(rho/M))")
    return _sv_log(_cond_log(raw * raw, d2, rt, N) + 0.5 * M * np.log(rt), raw, N)


def cond_sv_pdf_limit_log(svn, D, dp: DerivedParams) -> float:
    """ln of the high-SNR limit of the conditional density of the spectrum.

    svn holds the rmin = min(T, N) normalized singular values.  The density
    factorizes over the two blocks: the leading M follow the law of the
    singular values of D H (H an M x N Gaussian), the spectrum density of
    the kernel at T = M with nodes 1/d^2; the trailing rmin - M follow the
    pure-noise law of tail_sv_pdf_log.  No cross-block ordering constraint
    remains in the limit, and neither block needs T <= N.
    """
    M, N = dp.M, dp.N
    svn = np.atleast_1d(np.asarray(svn, dtype=float))
    if svn.size != dp.rmin:
        raise DomainError(f"normalized spectrum must have {dp.rmin} entries, got {svn.size}")
    head = check_decreasing(svn[:M], M, "svn leading block")
    head_log = _sv_log(_kernel_log(head * head, 1.0 / _gain2(D, M), N), head, N)
    return float(head_log + tail_sv_pdf_log(svn[M:], dp))
