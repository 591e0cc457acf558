"""Closed-form output densities of the block-fading channel.

Everything here is evaluated in the natural-log domain.  The closed
forms hold only for T <= N; T > N is rejected with a RegimeError (the
confluent limits those dimensions would need are deliberately out of
scope, Monte Carlo covers them).  Determinants of matrices with
exponentially large or small entries are computed by factoring the
largest exponent out of every row before a pivoted factorization, which
keeps every intermediate bounded at any SNR.

The conditional output density f(Y | D) has one determinant core,
_cond_log, from which the finite-SNR spectrum density follows through
the SVD Jacobian; the high-SNR limit keeps its own determinant.

Raw singular values are called sv; svn denotes the normalized vector
whose first M entries are scaled by sqrt(M/rho).  The scaling is always
applied by the caller.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import xlogy

from .params import (
    ConfluenceError,
    DerivedParams,
    DomainError,
    RegimeError,
    check_decreasing,
    rho_from_db,
)
from .specfun import (
    LOG_2,
    LOG_PI,
    log_gamma_range,
    log_multivariate_gamma,
    log_stiefel_volume,
)
from .bstm import GainDiagonal


# The cached index and power arrays are shared by every caller: read-only.
@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    i, j = np.triu_indices(n, k=1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


@lru_cache(maxsize=None)
def _row_powers(T: int, M: int) -> np.ndarray:
    # exponents T - i of the polynomial rows i = M+1..T
    p = T - np.arange(M + 1, T + 1, dtype=float)
    p.flags.writeable = False
    return p


@lru_cache(maxsize=None)
def _spectrum_volumes(T: int, N: int) -> float:
    # ln of the U(T)/phase and S(N, T) volumes the SVD integrates out
    return log_stiefel_volume(T, T, reduced=True) + log_stiefel_volume(N, T)


def _log_vandermonde(x2: np.ndarray) -> float:
    """sum_{i<j} ln(x2_i - x2_j) for a strictly decreasing vector."""
    if x2.size < 2:
        return 0.0
    i, j = _pairs(x2.size)
    return float(np.log(x2[i] - x2[j]).sum())


def _scaled_slogdet(logmag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed log-determinant from entrywise log-magnitudes (all entries >= 0).

    Row maxima are factored out first so that exp never overflows; entries
    that underflow relative to their row maximum become exact zeros, which
    is their correct limit.  Works on stacked matrices.
    """
    c = logmag.max(axis=-1)
    dead = np.isneginf(c)
    c_safe = np.where(dead, 0.0, c)
    scaled = np.exp(logmag - c_safe[..., None])
    if np.any(dead):
        scaled = np.where(dead[..., None], 0.0, scaled)
    sign, ld = np.linalg.slogdet(scaled)
    return ld + c_safe.sum(axis=-1), sign


def _check_sign(sign: float, label: str) -> None:
    if sign <= 0:
        raise ConfluenceError(
            f"{label} determinant lost its sign; inputs are too close to "
            "confluent for a stable evaluation")


def _gain2(D: GainDiagonal, M: int) -> np.ndarray:
    d = check_decreasing(D.d, M, "gain diagonal")
    return d * d


def _cond_log(s2: np.ndarray, d2: np.ndarray, rt: float, N: int) -> tuple[float, float]:
    """ln f(Y | D) from the decreasing squared singular values s2 of Y.

    With mu_i = 1/(1 + rt d2_i) the closed form is

        pi^{-NT} prod_{i=T-M+1}^{T} Gamma(i) prod mu_i^{N-T+M} (rt d2_i)^{M-T}
        det(K) / [prod_{i<j}(s2_i - s2_j) prod_{i<j}(mu_j - mu_i)]

    with K_{ij} = exp(-mu_i s2_j) on the first M rows and
    s2_j^{T-i} exp(-s2_j) below.  mu is formed directly rather than as
    1 - lambda, which would lose its digits as lambda -> 1 at high SNR.
    Returns the log density and ln prod_{i<j}(s2_i - s2_j), which the
    spectrum density reuses.
    """
    T, M = s2.size, d2.size
    mu = 1.0 / (1.0 + rt * d2)
    logmag = np.empty((T, T))
    logmag[:M] = -mu[:, None] * s2
    # xlogy keeps the power-0 row at 0 * ln 0 = 0 where a tiny s2 underflows
    logmag[M:] = xlogy(_row_powers(T, M)[:, None], s2) - s2
    ld, sign = _scaled_slogdet(logmag)
    _check_sign(sign, "conditional pdf")
    lv = _log_vandermonde(s2)
    log_f = (
        -N * T * LOG_PI
        + log_gamma_range(T - M + 1, T)
        + (N - T + M) * np.log(mu).sum()
        - (T - M) * np.log(rt * d2).sum()
        + float(ld)
        - lv
        - _log_vandermonde(-mu)
    )
    return float(log_f), lv


def svd_jacobian_log(sv, rmax: int, rmin: int) -> float:
    """ln of the SVD volume Jacobian for an rmax x rmin spectrum.

    ln J = sum_i (2(rmax-rmin)+1) ln(sv_i) + 2 sum_{i<j} ln(sv_i^2 - sv_j^2).
    """
    if rmax < rmin:
        raise DomainError(f"svd_jacobian_log requires rmax >= rmin, got {rmax} < {rmin}")
    sv = check_decreasing(sv, rmin, "svd_jacobian_log sv")
    return float((2 * (rmax - rmin) + 1) * np.log(sv).sum()
                 + 2.0 * _log_vandermonde(sv * sv))


def cond_pdf_y_given_d_log(Y: np.ndarray, D: GainDiagonal, dp: DerivedParams,
                           snr_db: float) -> float:
    """ln f(Y | D) for the block-fading channel output, T <= N only.

    Uses the determinant closed form of _cond_log with the Gaussian factor
    exp(-tr(Y^H Y)) absorbed column-wise into the determinant, so the
    evaluation stays finite at any SNR.
    """
    T, M, N = dp.T, dp.M, dp.N
    if T > N:
        raise RegimeError(
            f"closed-form conditional pdf requires T <= N, got T={T}, N={N}")
    Y = np.asarray(Y)
    if Y.shape != (T, N):
        raise DomainError(f"Y must be T x N = {T} x {N}, got {Y.shape}")
    d2 = _gain2(D, M)
    sv = check_decreasing(np.linalg.svd(Y, compute_uv=False), T, "singular values of Y")
    return _cond_log(sv * sv, d2, rho_from_db(snr_db) / M, N)[0]


def _gaussian_sv_log(sv: np.ndarray, n: int, var: float) -> float:
    """ln of the joint density of the singular values sv of an m x n complex
    Gaussian matrix with iid CN(0, var) entries, m = sv.size <= n."""
    m = sv.size
    s2 = sv * sv
    return float(
        m * LOG_2 + m * (m - 1) * LOG_PI
        - log_multivariate_gamma(m, n) - log_multivariate_gamma(m, m)
        - s2.sum() / var
        - m * n * np.log(var)
        + (2 * (n - m) + 1) * np.log(sv).sum()
        + 2.0 * _log_vandermonde(s2)
    )


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


def cond_sv_pdf_finite_log(svn, D: GainDiagonal, dp: DerivedParams,
                           snr_db: float) -> float:
    """ln of the finite-SNR conditional density of the normalized spectrum.

    svn holds the T normalized singular values: the leading M carry the
    sqrt(M/rho) scaling, the rest are raw.  The support is the set where
    the raw values (leading block times sqrt(rho/M)) decrease strictly,
    which is wider than svn decreasing and is what the normalization
    integral runs over.  The density is ln f(Y | D) of _cond_log times the
    SVD Jacobian (svd_jacobian_log), the volumes of the singular-vector
    manifolds, and (rho/M)^{M/2} for the scaling of the leading block.
    """
    T, M, N = dp.T, dp.M, dp.N
    if T > N:
        raise RegimeError(
            f"closed-form conditional sv pdf requires T <= N, got T={T}, N={N}")
    d2 = _gain2(D, M)
    rt = rho_from_db(snr_db) / M
    raw = np.array(svn, dtype=float, ndmin=1)
    raw[:M] *= np.sqrt(rt)
    raw = check_decreasing(raw, T, "raw spectrum (leading block times sqrt(rho/M))")
    log_f, lv = _cond_log(raw * raw, d2, rt, N)
    return float(
        log_f
        + (2 * (N - T) + 1) * np.log(raw).sum()
        + 2.0 * lv
        + _spectrum_volumes(T, N)
        + 0.5 * M * np.log(rt)
    )


def cond_sv_pdf_limit_log(svn, D: GainDiagonal, dp: DerivedParams) -> float:
    """ln of the high-SNR limit of the conditional density of the spectrum.

    Factorizes over the two blocks: the leading M normalized values follow
    the law of the singular values of D H (H an M x N Gaussian), the
    trailing block follows the pure-noise law of tail_sv_pdf_log.  No
    cross-block ordering constraint remains in the limit.
    """
    T, M, N = dp.T, dp.M, dp.N
    if T > N:
        raise RegimeError(
            f"limit conditional sv pdf requires T <= N, got T={T}, N={N}")
    svn = np.atleast_1d(np.asarray(svn, dtype=float))
    if svn.size != T:
        raise DomainError(f"normalized spectrum must have T={T} entries, got {svn.size}")
    head = check_decreasing(svn[:M], M, "svn leading block")
    tail = check_decreasing(svn[M:], T - M, "svn trailing block")
    d2 = _gain2(D, M)
    h2 = head * head

    # The M x M kernel exp(-h2_j / d2_i) of the limit law lives on the
    # leading block alone; it is no finite-SNR f(Y | D), so it keeps its
    # own determinant.
    ld, sign = _scaled_slogdet(-(1.0 / d2)[:, None] * h2)
    _check_sign(sign, "limit sv pdf")
    log_g1 = (
        M * LOG_2
        + float(ld)
        + (2 * (N - M) + 1) * np.log(head).sum()
        - (N - M + 1) * np.log(d2).sum()
        - log_gamma_range(N - M + 1, N)
        + _log_vandermonde(h2) - _log_vandermonde(d2)
    )
    return float(log_g1 + _gaussian_sv_log(tail, N - M, 1.0))
