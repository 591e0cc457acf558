"""Closed-form output densities of the block-fading channel.

Everything here is evaluated in the natural-log domain, with the gain
D given as the vector of its strictly decreasing diagonal.  f(Y | D) and
the finite-SNR spectrum density hold only for T <= N and raise
DomainError otherwise (ROADMAP item 10 plans the confluent limits T > N
needs); the high-SNR limit holds at any T.  Determinants of matrices with
exponentially large or small entries are computed by factoring the
largest exponent out of every row before a pivoted factorization, which
keeps every intermediate bounded at any SNR.

Every matrix density here is a Gaussian or one determinant core, the
Haar-averaged complex Wishart kernel det[exp(-mu_i s2_j)] / (Delta(s2)
Delta(-mu)) over the nodes mu.  f(Y | D) takes the nodes
mu = 1/(1 + rho~ d^2) and T - M unit nodes; the leading block of the
high-SNR limit takes mu = 1/d^2 at T = M.  The core's node side, _nodes,
is all that depends on the gain, SNR and dimensions only, cached on the
checked gain's floats: each density checks all its inputs, in the order its
docstring states, before the lookup.  Its Y side, _y_log, is
det[exp(-mu_i s2_j)] and ln Delta(s2).  Every spectrum density is a matrix density times one SVD
change of variables, _sv_log, which shares s2 and ln Delta(s2).

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
    _real,
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
    # ufunc reduces skip ndarray.max/.sum's Python wrappers, with the same bits
    c = np.maximum.reduce(logmag, axis=1)
    c[c == -np.inf] = 0.0  # a row of zeros stays zero
    sign, ld = np.linalg.slogdet(np.exp(logmag - c[:, None]))
    if sign <= 0:
        raise ConfluenceError(
            "determinant lost its sign; inputs are too close to confluent "
            "for a stable evaluation")
    return float(ld + np.add.reduce(c))


_TINY_SQUARE = 1.0 / np.finfo(float).max


def _gain(D, M: int) -> tuple:
    # the checked gain as Python floats, the node key; no density takes a last
    # square whose reciprocal overflows, which check_decreasing keeps
    d = check_decreasing(D, M, "gain diagonal").tolist()
    if d[-1] * d[-1] < _TINY_SQUARE:
        raise DomainError(f"gain diagonal: squared entries must be at least "
                          f"{_TINY_SQUARE:.3g}, got {d[-1] * d[-1]:.3g}")
    return tuple(d)


# Node records kept, least recently used out first, about 0.5 kB each.  A
# log-mean-exp over K gain draws held across Ys hits on every draw after the
# first Y while K fits; cycled past the bound it never hits.  This bound
# holds K = 10^4, the largest mixture the roadmap plans.
_NODE_CACHE = 16384


@lru_cache(maxsize=_NODE_CACHE)
def _nodes(d: tuple, T: int, M: int, N: int, rt: float | None) -> tuple:
    """The node side of the kernel for the checked gain d = _gain(D, M):
    (-mu as a read-only column, head, ln Delta(-mu), tail), head =
    -NT ln pi + ln prod Gamma + N sum ln mu.  At an SNR, mu = 1/(1 + rt d^2)
    at rt = rho/M and tail = (T - M) sum ln(1 - mu); mu and 1 - mu =
    rt d^2 mu are both formed directly: mu as 1 - lambda would lose its
    digits at high SNR, 1 - mu by subtraction at low SNR.  At rt None (the
    high-SNR limit's leading block, T = M), mu = 1/d^2 and tail = 0.  The
    callers check d and rt before the lookup, so no invalid input is a key."""
    d2 = np.square(d)
    if rt is None:
        mu, tail = 1.0 / d2, 0.0
    else:
        mu = 1.0 / (1.0 + rt * d2)
        tail = (T - M) * float(np.log(rt * d2 * mu).sum())
    head = -N * T * LOG_PI + log_gamma_range(T - M + 1, T) + N * np.log(mu).sum()
    nmu = -mu[:, None]
    nmu.flags.writeable = False
    return nmu, head, log_vandermonde(-mu), tail


def _y_log(s2: np.ndarray, lv: float, nodes: tuple) -> float:
    """The Y side: ln of the Haar-averaged complex Wishart kernel at the
    decreasing squared singular values s2 of a T x N matrix, lv = ln
    Delta(s2), over the increasing nodes mu of the node record (M <= T) and
    T - M unit nodes, times prod (1 - mu_i)^{M-T}:

        pi^{-NT} prod_{i=T-M+1}^{T} Gamma(i) prod mu_i^N
        det(K) / [prod_{i<j}(s2_i - s2_j) prod_{i<j}(mu_j - mu_i)]

    with K_{ij} = exp(-mu_i s2_j) on the first M rows and, the confluent
    limit of the unit nodes, s2_j^{T-i} exp(-s2_j) below.  At T = M this is
    the density of U diag(mu)^{-1/2} G with U Haar and G an M x N standard
    Gaussian.  Only det(K) and lv depend on s2.
    """
    nmu, head, lvmu, tail = nodes
    T, M = s2.size, nmu.size
    logmag = np.empty((T, T))
    np.multiply(nmu, s2, out=logmag[:M])
    if T > M:
        rows = logmag[M:]
        if s2[-1] > 0:
            np.multiply(_row_powers(T, M), np.log(s2), out=rows)
        else:  # s2 decreases, so only its last entry can have underflowed to 0
            with np.errstate(divide="ignore", invalid="ignore"):
                np.multiply(_row_powers(T, M), np.log(s2), out=rows)
            rows[-1] = 0.0  # the power-0 row: 0 ln 0 = 0
        rows -= s2
    return float(head + _scaled_logdet(logmag) - lv - lvmu) - tail


def _jacobian_log(sv: np.ndarray, n: int, lv: float) -> float:
    # the SVD volume Jacobian of an n x sv.size spectrum; lv = ln Delta(sv^2)
    return float((2 * (n - sv.size) + 1) * np.log(sv).sum() + 2.0 * lv)


def _sv_log(matrix_log: float, sv: np.ndarray, n: int, lv: float) -> float:
    """ln of the joint density of the decreasing singular values sv of an
    m x n matrix (m = sv.size <= n) whose unitarily invariant density is
    exp(matrix_log) at them: the SVD Jacobian, given lv = ln Delta(sv^2),
    and the volumes of the singular-vector manifolds the change of
    variables integrates out."""
    return float(matrix_log + _jacobian_log(sv, n, lv) + _spectrum_volumes(sv.size, n))


def cond_pdf_y_given_d_log(Y: np.ndarray, D, dp: DerivedParams,
                           snr_db: float) -> float:
    """ln f(Y | D) for the block-fading channel output, T <= N only.

    Uses the determinant closed form of _y_log with the Gaussian factor
    exp(-tr(Y^H Y)) absorbed column-wise into the determinant, so the
    evaluation stays finite at any SNR.  Checked in order: Y's shape, the
    gain, Y's singular values, the SNR.
    """
    T, M, N = dp.T, dp.M, dp.N
    if T > N:
        raise DomainError(
            f"closed-form conditional pdf requires T <= N, got T={T}, N={N}")
    Y = np.asarray(Y)
    if Y.shape != (T, N):
        raise DomainError(f"Y must be T x N = {T} x {N}, got {Y.shape}")
    d = _gain(D, M)
    try:
        sv = np.linalg.svd(Y, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # a NaN in Y; an inf fails the check below
        raise DomainError(f"singular values of Y: {exc}") from None
    sv = check_decreasing(sv, T, "singular values of Y")
    nodes = _nodes(d, T, M, N, rho_from_db(snr_db) / M)
    s2 = sv * sv
    return _y_log(s2, log_vandermonde(s2), nodes)


def _gaussian_sv_log(sv: np.ndarray, n: int, var: float) -> float:
    """ln of the joint density of the singular values sv of an m x n complex
    Gaussian matrix with iid CN(0, var) entries, m = sv.size <= n."""
    s2 = sv * sv
    return _sv_log(-sv.size * n * (LOG_PI + np.log(var)) - s2.sum() / var, sv, n,
                   log_vandermonde(s2))


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
    times (rho/M)^{M/2} for the scaling of the leading block.  Checked in
    order: the gain, the SNR, the spectrum.
    """
    T, M, N = dp.T, dp.M, dp.N
    if T > N:
        raise DomainError(
            f"closed-form conditional sv pdf requires T <= N, got T={T}, N={N}")
    d = _gain(D, M)
    rt = rho_from_db(snr_db) / M
    raw = np.array(_real(svn, "svn"), ndmin=1)
    raw[:M] *= np.sqrt(rt)
    raw = check_decreasing(raw, T, "raw spectrum (leading block times sqrt(rho/M))")
    nodes = _nodes(d, T, M, N, rt)
    s2 = raw * raw
    lv = log_vandermonde(s2)
    return _sv_log(_y_log(s2, lv, nodes) + 0.5 * M * np.log(rt), raw, N, lv)


def cond_sv_pdf_limit_log(svn, D, dp: DerivedParams) -> float:
    """ln of the high-SNR limit of the conditional density of the spectrum.

    svn holds the rmin = min(T, N) normalized singular values.  The density
    factorizes over the two blocks: the leading M follow the law of the
    singular values of D H (H an M x N Gaussian), the spectrum density of
    the kernel at T = M with nodes 1/d^2; the trailing rmin - M follow the
    pure-noise law of tail_sv_pdf_log.  No cross-block ordering constraint
    remains in the limit, and neither block needs T <= N.  Checked in order:
    the spectrum's size, its leading block, the gain, its trailing block.
    """
    M, N = dp.M, dp.N
    svn = np.atleast_1d(_real(svn, "svn"))
    if svn.size != dp.rmin:
        raise DomainError(f"normalized spectrum must have {dp.rmin} entries, got {svn.size}")
    head = check_decreasing(svn[:M], M, "svn leading block")
    nodes = _nodes(_gain(D, M), M, M, N, None)
    s2 = head * head
    lv = log_vandermonde(s2)
    head_log = _sv_log(_y_log(s2, lv, nodes), head, N, lv)
    return float(head_log + tail_sv_pdf_log(svn[M:], dp))
