"""Closed-form output densities of the block-fading channel.

Everything here is evaluated in the natural-log domain, with the gain
D given as the vector of its strictly decreasing diagonal.  f(Y | D) and
the finite-SNR spectrum density hold only for T <= N and raise
DomainError otherwise (ROADMAP item 10 plans the confluent limits T > N
needs); the high-SNR limit holds at any T.  Determinants of matrices with
exponentially large or small entries are computed by factoring the
largest exponent out of every row before a pivoted factorization, which
keeps every intermediate bounded at any SNR; one or two nodes need none.

Every matrix density here is a Gaussian or one determinant core, the
Haar-averaged complex Wishart kernel det[exp(-mu_i s2_j)] / (Delta(s2)
Delta(-mu)) over the nodes mu.  f(Y | D) takes the nodes
mu = 1/(1 + rho~ d^2) and T - M unit nodes; the leading block of the
high-SNR limit takes mu = 1/d^2 at T = M.  The core's node side, _nodes,
is all that depends on the gain, SNR and dimensions only, cached on the
checked gain's floats: each density checks all its inputs, in the order its
docstring states, before the lookup.  Its Y side, _y_log, takes the
checked singular values, squares them, guards the largest exponent against
overflow and, at T >= 3, broadcasts the record's two coefficient columns
over s2 into one row-scaled determinant; at T <= 2 (the (2, 1, N) channel,
the limit at M <= 2) the kernel is one entry or a first divided difference
of exp over the record's node gap, in closed form.  Every spectrum
density is a matrix density times one SVD change of variables, _sv_log,
which shares the Y side's ln Delta(s2); such per-spectrum sums run with
math on Python floats.

Raw singular values are called sv; svn denotes the normalized vector
whose first M entries are scaled by sqrt(M/rho).  The scaling is always
applied by the caller.
"""

from __future__ import annotations

import math
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


@lru_cache(maxsize=None)
def _spectrum_volumes(m: int, n: int) -> float:
    # ln of the U(m)/phase and S(n, m) volumes the SVD integrates out; the
    # quotient by the m phases divides |U(m)| = |S(m, m)| by (2 pi)^m
    return log_stiefel_volume(m, m) - m * (LOG_2 + LOG_PI) + log_stiefel_volume(n, m)


_TINY_SQUARE = 1.0 / np.finfo(float).max


def _gain(D, M: int) -> tuple:
    # the checked gain as Python floats, the node key; no density takes a last
    # square whose reciprocal overflows, which check_decreasing keeps
    d = check_decreasing(D, M, "gain diagonal").tolist()
    if d[-1] * d[-1] < _TINY_SQUARE:
        raise DomainError(f"gain diagonal: squared entries must be at least "
                          f"{_TINY_SQUARE:.3g}, got {d[-1] * d[-1]:.3g}")
    return tuple(d)


# Node records kept, least recently used out first, about 0.6 kB each.  A
# log-mean-exp over K gain draws held across Ys hits on every draw after the
# first Y while K fits; cycled past the bound it never hits.  This bound
# holds K = 10^4, the largest mixture the roadmap plans.
_NODE_CACHE = 16384


@lru_cache(maxsize=_NODE_CACHE)
def _nodes(d: tuple, T: int, M: int, N: int, rt: float | None) -> tuple:
    """The node side of the kernel for the checked gain d = _gain(D, M):
    read-only T x 1 columns a, b with ln K_ij = a_i s2_j + b_i ln s2_j (a is
    -mu, then -1 on the T - M unit-node rows i = M+1..T; b is 0, then T - i),
    const = head - ln Delta(-mu) - tail, head = -NT ln pi + ln prod Gamma +
    N sum ln mu, the largest node mu_M, and gap.  At an SNR, mu =
    1/(1 + rt d^2) at rt = rho/M and tail = (T - M) sum ln(1 - mu); mu and
    1 - mu = rt d^2 mu are both formed directly: mu as 1 - lambda would lose
    its digits at high SNR, 1 - mu by subtraction at low SNR.  At rt None
    (the high-SNR limit's leading block, T = M), mu = 1/d^2 and tail = 0;
    only there can mu_M exceed 1.  At T = 2 the nodes nu_0 < nu_1 are
    (mu_0, 1) at an SNR or (mu_0, mu_1) in the limit, and gap = nu_1 - nu_0
    is formed without subtraction too, as rt d_0^2 mu_0 or (d_0 - d_1) mu_0
    (d_0 + d_1) mu_1; the Y side's divided difference cancels ln Delta(-mu)
    + tail = ln(gap), so const = head there, and gap is None at other T.
    The callers check d and rt before the lookup, so no invalid input is a
    key; nodes that round to 0 or together, or at T >= 3 an rt d^2 that
    underflows to 0 (the tail's ln 0), raise ConfluenceError; at T = 2 that
    d^2 gives gap 0, the zero-SNR kernel.  A node that rounds to 1 keeps its
    gap: at T >= 3 the Y side raises, its row being a unit-node row's."""
    try:  # math.log(0) raises ValueError
        if rt is None:
            mu, c = [1.0 / (x * x) for x in d], []
        else:
            g = [rt * (x * x) for x in d]
            mu = [1.0 / (1.0 + x) for x in g]
            c = [x * m for x, m in zip(g, mu)]  # 1 - mu
        head = (-N * T * LOG_PI + log_gamma_range(T - M + 1, T)
                + N * math.fsum(map(math.log, mu)))
        if T == 2:
            gap = (d[0] - d[1]) * mu[0] * (d[0] + d[1]) * mu[1] if rt is None else c[0]
            const = head
        else:
            tail = (T - M) * math.fsum(map(math.log, c))
            gap, const = None, head - log_vandermonde([-x for x in mu]) - tail
    except ValueError:
        raise ConfluenceError("kernel nodes mu round to 0, to 1 or together") from None
    # T x 1 columns, copied so that the record keeps no 1-D base array
    a = np.array([-x for x in mu] + [-1.0] * (T - M))[:, None].copy()
    b = np.array([0.0] * M + [float(T - i) for i in range(M + 1, T + 1)])[:, None].copy()
    a.flags.writeable = b.flags.writeable = False
    return a, b, const, mu[-1], gap


# ln 0 in the kernel's powers: finite, so that 0 ln 0 = 0, and small enough
# that any power p >= 1 (p < 10^8) gives an entry exp takes to exactly 0
_LN_ZERO = -1e300


def _y_log(sv: np.ndarray, nodes: tuple) -> tuple:
    """The Y side: (ln of the Haar-averaged complex Wishart kernel, lv =
    ln Delta(s2)) at the squares s2 of the checked decreasing singular
    values sv of a T x N matrix, over the increasing nodes mu of the node
    record (M <= T) and T - M unit nodes, times prod (1 - mu_i)^{M-T}:

        pi^{-NT} prod_{i=T-M+1}^{T} Gamma(i) prod mu_i^N
        det(K) / [prod_{i<j}(s2_i - s2_j) prod_{i<j}(mu_j - mu_i)]

    with K_{ij} = exp(-mu_i s2_j) on the first M rows and, the confluent
    limit of the unit nodes, s2_j^{T-i} exp(-s2_j) below.  At T = M this is
    the density of U diag(mu)^{-1/2} G with U Haar and G an M x N standard
    Gaussian.  A largest exponent mu_M s2_1 that overflows raises
    ConfluenceError, decided on Python floats before any product that
    could overflow.  At T <= 2 the kernel is closed-form on Python floats:
    const + a_0 s2_0 for one node; for two, the first divided difference of
    exp (McCurdy, Ng & Parlett 1984), const + a_0 s2_0 + a_1 s2_1 + ln h(x)
    with h(x) = -expm1(-x)/x at x = gap (s2_0 - s2_1) and h(0) = 1, so an x
    that underflows to 0 gives the confluent value.  At T >= 3 it is one
    row-scaled determinant: only the last s2 can have underflowed to 0 (s2
    decreases), and its ln reads _LN_ZERO; an entry that underflows
    relative to its row maximum is an exact zero, its correct limit.  A
    determinant that is not positive, or a value that is not finite, raises
    ConfluenceError.
    """
    a, b, const, top, gap = nodes
    s2 = sv * sv
    v = s2.tolist()
    if top * v[0] == math.inf:
        raise ConfluenceError(f"kernel exponent mu s^2 overflows at mu = {top:.3g}, "
                              f"s^2 = {v[0]:.3g}")
    lv = log_vandermonde(v)
    if len(v) == 1:
        return const + a.item(0) * v[0], lv
    if len(v) == 2:
        x = gap * (v[0] - v[1])
        # ln h(x) as -ln(1/h(x)): an x that overflows gives -inf, not ln 0
        value = (const + a.item(0) * v[0] + a.item(1) * v[1]
                 - (math.log(x / -math.expm1(-x)) if x else 0.0))
    else:
        ls = np.log(s2) if v[-1] else np.append(np.log(s2[:-1]), _LN_ZERO)
        logmag = a * s2 + b * ls
        c = np.maximum.reduce(logmag, axis=1)
        sign, ld = np.linalg.slogdet(np.exp(logmag - c[:, None]))
        value = const + float(ld) + sum(c.tolist()) - lv if sign > 0 else math.nan
    if not math.isfinite(value):
        raise ConfluenceError(
            "determinant lost its sign; inputs are too close to confluent "
            "for a stable evaluation")
    return value, lv


def _jacobian_log(sv, n: int, lv: float) -> float:
    # the SVD volume Jacobian of an n x len(sv) spectrum; lv = ln Delta(sv^2)
    return (2 * (n - len(sv)) + 1) * math.fsum(map(math.log, sv)) + 2.0 * lv


def _sv_log(matrix_log: float, sv, n: int, lv: float) -> float:
    """ln of the joint density of the decreasing singular values sv (Python
    floats) of an m x n matrix (m = len(sv) <= n) whose unitarily invariant
    density is exp(matrix_log) at them: the SVD Jacobian, given
    lv = ln Delta(sv^2), and the volumes of the singular-vector manifolds
    the change of variables integrates out."""
    return matrix_log + _jacobian_log(sv, n, lv) + _spectrum_volumes(len(sv), n)


def cond_pdf_y_given_d_log(Y: np.ndarray, D, dp: DerivedParams,
                           snr_db: float) -> float:
    """ln f(Y | D) for the block-fading channel output, T <= N only.

    Uses the determinant closed form of _y_log with the Gaussian factor
    exp(-tr(Y^H Y)) absorbed column-wise into the determinant, so the
    evaluation stays finite at any SNR.  Checked in order: Y's shape, the
    gain, Y's singular values, the SNR; a finite Y whose SVD overflows
    (NaN singular values) is a DomainError that says so.
    """
    T, M, N = dp.T, dp.M, dp.N
    if T > N:
        raise DomainError(
            f"closed-form conditional pdf requires T <= N, got T={T}, N={N}")
    Y = np.asarray(Y)
    if Y.shape != (T, N):
        raise DomainError(f"Y must be T x N = {T} x {N}, got {Y.shape}")
    d = _gain(D, M)
    # LAPACK prints to stdout on a non-finite entry; only a float dtype holds one
    if Y.dtype.kind in "fc" and not np.isfinite(Y).all():
        raise DomainError("singular values of Y: Y has a non-finite entry")
    sv = np.linalg.svd(Y, compute_uv=False)
    try:
        sv = check_decreasing(sv, T, "singular values of Y")
    except DomainError as exc:  # LAPACK returns NaNs, unwarned, when its scaling overflows
        raise DomainError("singular values of Y: the SVD of a finite Y overflowed"
                          if np.isnan(sv).any() else str(exc)) from None
    return _y_log(sv, _nodes(d, T, M, N, rho_from_db(snr_db) / M))[0]


def _gaussian_sv_log(sv, n: int, var: float) -> float:
    """ln of the joint density of the singular values sv (Python floats) of
    an m x n complex Gaussian matrix with iid CN(0, var) entries,
    m = len(sv) <= n."""
    s2 = [x * x for x in sv]
    return _sv_log(-len(sv) * n * (LOG_PI + math.log(var)) - math.fsum(s2) / var, sv, n,
                   log_vandermonde(s2))


def first_sv_pdf_log(sv, dp: DerivedParams, snr_db: float) -> float:
    """ln of the joint density of the M leading output singular values.

    This is the singular-value law of an M x Q complex Gaussian matrix
    with per-entry variance lambda_bar = N T rho / (M Q).
    """
    sv = check_decreasing(sv, dp.M, "first_sv_pdf_log sv").tolist()
    return _gaussian_sv_log(sv, dp.Q, dp.N * dp.T * rho_from_db(snr_db) / (dp.M * dp.Q))


def tail_sv_pdf_log(sv, dp: DerivedParams) -> float:
    """ln of the joint density of the trailing rmin - M output singular values.

    Equals the singular-value law of an (N-M) x (T-M) standard complex
    Gaussian.  An empty vector (rmin = M) returns 0.
    """
    R = dp.rmin - dp.M
    sv = check_decreasing(sv, R, "tail_sv_pdf_log sv").tolist()
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
    raw[:M] *= math.sqrt(rt)
    raw = check_decreasing(raw, T, "raw spectrum (leading block times sqrt(rho/M))")
    value, lv = _y_log(raw, _nodes(d, T, M, N, rt))
    return _sv_log(value + 0.5 * M * math.log(rt), raw.tolist(), N, lv)


def cond_sv_pdf_limit_log(svn, D, dp: DerivedParams) -> float:
    """ln of the high-SNR limit of the conditional density of the spectrum.

    svn holds the rmin = min(T, N) normalized singular values.  The density
    factorizes over the two blocks: the leading M follow the law of the
    singular values of D H (H an M x N Gaussian), the spectrum density of
    the kernel at T = M with nodes 1/d^2; the trailing rmin - M follow the
    pure-noise law of tail_sv_pdf_log.  No cross-block ordering constraint
    remains in the limit, and neither block needs T <= N.  Checked in order:
    the spectrum's size, its leading block, the gain, its trailing block.
    A leading block whose largest exponent mu s^2 = (s/d)^2 overflows (a
    gain near 0) raises ConfluenceError before the trailing block's check.
    """
    M, N = dp.M, dp.N
    svn = np.atleast_1d(_real(svn, "svn"))
    if svn.size != dp.rmin:
        raise DomainError(f"normalized spectrum must have {dp.rmin} entries, got {svn.size}")
    head = check_decreasing(svn[:M], M, "svn leading block")
    value, lv = _y_log(head, _nodes(_gain(D, M), M, M, N, None))
    return _sv_log(value, head.tolist(), N, lv) + tail_sv_pdf_log(svn[M:], dp)
