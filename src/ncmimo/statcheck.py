"""Validation reports, the KS test and gate, and every validation suite.

Every suite has the signature (n=None, seed=0) -> list[TestReport] and
is registered by name in SUITES; the CLI `validate` subcommand renders
the rows as a table, with the seed in a last column, and fails the run
when any row fails.  Every check, statistical or numerical, reports
through `report`.  The KS suites draw from two constructions that
should share a law and compare them index by index with a
Kolmogorov-Smirnov test; a suite's indices form one family, tested by
one `ks_columns` call and gated by `holm` at family-wise level
P_THRESHOLD.  A KS test needs two observations per sample, so a KS
suite, like `power`, rejects n < 2 before it draws anything.  Every
integral goes through _integrate, one fixed Gauss-Legendre rule on numpy
at QUAD_NODES; Monte Carlo checks are chunked so memory stays flat at
large dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ChannelDims, DomainError, check_int, derive, rho_from_db
from .capacity import asymptotic_gain_constant, gain_limit_sequence
from .randmat import (
    RngHandle,
    beta_eig_pdf_log,
    chunks,
    sample_bartlett_factor,
    sample_gaussian,
    sample_isotropic_unitary,
    sample_matrix_beta,
    sample_wishart,
)
from .bstm import noiseless_sv_sample, sample_input
from .outpdf import (
    cond_pdf_y_given_d_log,
    cond_sv_pdf_finite_log,
    cond_sv_pdf_limit_log,
    first_sv_pdf_log,
    tail_sv_pdf_log,
)

P_THRESHOLD = 0.01
KS_DEFAULT_N = 10_000

LEMMA5_DEFAULT_DIMS = ((8, 2, 4), (10, 5, 100), (4, 2, 3))
LEMMA4_DEFAULT_CASES = ((2, 3, 2), (2, 2, 1), (3, 4, 2))
UNITARY_DEFAULT_DIMS = ((2, 1), (4, 2), (10, 5))


@dataclass(frozen=True)
class TestReport:
    """Outcome of one statistical or numerical check."""

    name: str
    statistic: float
    threshold: float
    p_value: float | None
    passed: bool
    n_samples: int


def report(name: str, statistic: float, threshold: float, n: int,
           p_value: float | None = None, passed: bool | None = None) -> TestReport:
    """Build a TestReport; the verdict defaults to p_value > threshold when a
    p-value is given and to statistic < threshold otherwise."""
    statistic = float(statistic)
    if passed is None:
        passed = p_value > threshold if p_value is not None else statistic < threshold
    return TestReport(name=name, statistic=statistic, threshold=threshold,
                      p_value=p_value, passed=bool(passed), n_samples=n)


def suite_size(n: int | None, default: int | None) -> int | None:
    """A suite's sample or case count: n, or `default` when n is None.
    DomainError unless n is a positive integer, and for any n given to a
    fixed-size suite."""
    if n is None:
        return default
    if default is None:
        raise DomainError(f"this suite has a fixed size and takes no n, got n={n}")
    return check_int(n, "n", 1)


def ks_columns(a, b, names) -> list[TestReport]:
    """Two-sided two-sample KS test of each column of the (draws, k) samples
    a and b, one report per name in `names`; a row passes when p > 0.01.

    A column's statistic d is the largest gap between its two empirical
    CDFs, taken over the pooled points.  Its p-value is the finite-n
    Kolmogorov tail `kstwo.sf(d, n)` at the rounded effective size
    n = round(n1 n2 / (n1 + n2)) (Simard & L'Ecuyer 2011); one vectorized
    call evaluates every column's.  Both equal, bit for bit, what
    `scipy.stats.ks_2samp(a[:, i], b[:, i], method="asymp")` returns.  A
    column that contains NaN gives d = p = NaN, and its row fails.  Each
    report's n_samples is min(n1, n2), the size of the smaller sample.
    """
    from scipy import stats  # local: only validate's KS suites pay for scipy.stats
    a = np.sort(np.asarray(a, dtype=float).T)  # one sorted row per column
    b = np.sort(np.asarray(b, dtype=float).T)
    n1, n2 = a.shape[1], b.shape[1]
    if n1 < 2 or n2 < 2:
        raise DomainError("a KS test needs at least two observations per sample")
    d = np.full(len(a), np.nan)
    for i, (x, y) in enumerate(zip(a, b, strict=True)):
        if np.isnan(x[-1]) or np.isnan(y[-1]):  # np.sort puts NaN last; d and p stay NaN
            continue
        pooled = np.concatenate([x, y])
        gap = (np.searchsorted(x, pooled, side="right") / n1
               - np.searchsorted(y, pooled, side="right") / n2)
        d[i] = max(gap.max(), np.clip(-gap.min(), 0, 1))  # a tie keeps +0.0, not clip's -0.0
    p = np.clip(stats.kstwo.sf(d, np.round(float(n1) * n2 / (n1 + n2))), 0, 1)
    return [report(name, di, P_THRESHOLD, min(n1, n2), p_value=float(pi))
            for name, di, pi in zip(names, d, p, strict=True)]


def ks_two_sample(a, b, name: str = "ks_two_sample") -> TestReport:
    """The KS report of the raveled samples a and b: `ks_columns` on one column."""
    return ks_columns(np.ravel(a)[:, None], np.ravel(b)[:, None], [name])[0]


def holm(reports: list[TestReport]) -> list[TestReport]:
    """The reports gated as one family at level P_THRESHOLD by Holm's
    step-down rule (Holm 1979): the k-th smallest of m p-values fails while
    it and every smaller one are <= P_THRESHOLD / (m - k + 1).  A row's
    threshold is the level it was held to, its own up to the first pass and
    that pass's level after it, so every verdict reads p > threshold."""
    p = np.array([r.p_value for r in reports])
    order = np.argsort(p, kind="stable")
    levels = P_THRESHOLD / np.arange(p.size, 0, -1)
    failed = int(np.cumprod(p[order] <= levels).sum())
    held = np.empty(p.size)
    held[order] = levels[np.minimum(np.arange(p.size), failed)]
    return [report(r.name, r.statistic, float(t), r.n_samples, p_value=r.p_value)
            for r, t in zip(reports, held)]


def lemma5_suite(n: int | None = None, seed: int = 0) -> list[TestReport]:
    """Noiseless output spectrum vs the M x Q Gaussian spectrum, per index.

    For each (T, M, N) the singular values of D Phi^H H (sampled through
    the input pipeline) are compared against the singular values of an
    M x Q Gaussian matrix with per-entry variance T N / Q.
    """
    n = check_int(suite_size(n, KS_DEFAULT_N), "n", 2)
    rng = RngHandle(seed)
    sv_a, sv_b, names = [], [], []
    for (T, M, N) in LEMMA5_DEFAULT_DIMS:
        dp = derive(ChannelDims(T=T, M=M, N=N))
        rng_a, rng_b = rng.spawn(2)
        sv_a.append(noiseless_sv_sample(dp, rng_a, count=n))
        g = sample_gaussian(M, dp.Q, T * N / dp.Q, rng_b, count=n)
        sv_b.append(np.linalg.svd(g, compute_uv=False))
        names += [f"noiseless-sv T={T} M={M} N={N} sv{i + 1}" for i in range(M)]
    return holm(ks_columns(np.column_stack(sv_a), np.column_stack(sv_b), names))


def lemma4_suite(n: int | None = None, seed: int = 0) -> list[TestReport]:
    """Whitened matrix-Beta eigenvalues vs direct Wishart eigenvalues.

    For each (m, p, n): draw the Bartlett factor L of an independent scale
    S = L L^H ~ W_m(p+n), so S = U^H U with U = L^H, and compare the
    eigenvalues of U^H C U (C a matrix-Beta variate) with those of a
    W_m(p) draw, index by index.
    """
    draws = check_int(suite_size(n, KS_DEFAULT_N), "n", 2)
    rng = RngHandle(seed)
    eig_a, eig_b, names = [], [], []
    for (m, p, n) in LEMMA4_DEFAULT_CASES:
        rng_s, rng_c, rng_w = rng.spawn(3)
        ell = sample_bartlett_factor(m, p + n, 1.0, rng_s, count=draws)
        c = sample_matrix_beta(m, p, n, rng_c, count=draws)
        recon = ell @ c @ np.conj(np.swapaxes(ell, -1, -2))
        eig_a.append(np.linalg.eigvalsh(recon)[..., ::-1])
        w = sample_wishart(m, p, 1.0, rng_w, count=draws)
        eig_b.append(np.linalg.eigvalsh(w)[..., ::-1])
        names += [f"beta-whitening m={m} p={p} n={n} eig{i + 1}" for i in range(m)]
    return holm(ks_columns(np.column_stack(eig_a), np.column_stack(eig_b), names))


def run_unitary(n: int | None = None, seed: int = 0) -> list[TestReport]:
    """First entry of the isotropic unitary vs its Haar law.

    For each (T, M), arg Phi_11 is compared with uniform(-pi, pi) draws and
    |Phi_11|^2 with Beta(1, T - 1) draws, both from a sibling stream.  The
    phase row is the one that sees QR without the phase fix; the modulus
    is the same with or without it.
    """
    n = check_int(suite_size(n, KS_DEFAULT_N), "n", 2)
    rng = RngHandle(seed)
    drawn, reference, names = [], [], []
    for (T, M) in UNITARY_DEFAULT_DIMS:
        rng_q, rng_ref = rng.spawn(2)
        phi11 = sample_isotropic_unitary(T, M, rng_q, count=n)[:, 0, 0]
        drawn += [np.angle(phi11), np.abs(phi11) ** 2]
        reference += [rng_ref.uniform(-np.pi, np.pi, n), rng_ref.beta(1, T - 1, n)]
        names += [f"unitary T={T} M={M} arg phi11", f"unitary T={T} M={M} |phi11|^2"]
    return holm(ks_columns(np.column_stack(drawn), np.column_stack(reference), names))


# The power gate, stated before the run: with a normal mean, a row
# false-alarms with probability 2 (1 - Phi(POWER_Z)) = 5.7e-7.
POWER_Z = 5.0
POWER_ROUNDOFF = 1e-12


def run_power(n: int | None = None, seed: int = 0) -> list[TestReport]:
    """Mean input power must match the budget T*M.

    The statistic is |mean / (T M) - 1| over n draws.  The threshold is
    POWER_Z times its standard error (the sample SD of the per-draw power
    over T M, divided by sqrt n) plus POWER_ROUNDOFF, which lets a
    deterministic power (the USTM row) pass on round-off.  One draw has
    no sample SD, so n must be at least 2.  The inputs are drawn in chunks
    of randmat.CHUNK_ENTRIES // (T M) draws, each its unitaries then its
    gains, so the statistics at n above one chunk depend on that budget.
    """
    n = check_int(suite_size(n, 100_000), "n", 2)
    rng = RngHandle(seed)
    reports = []
    for (T, M, N), child in zip(LEMMA5_DEFAULT_DIMS, rng.spawn(len(LEMMA5_DEFAULT_DIMS))):
        dp = derive(ChannelDims(T=T, M=M, N=N))
        total = 0.0
        per_draw = []
        for start, stop in chunks(n, T * M):
            sq = np.abs(sample_input(dp, child, count=stop - start)) ** 2
            total += float(np.sum(sq))
            per_draw.append(sq.sum(axis=(1, 2)))
            del sq  # before the next draw, so one chunk is held at a time
        se = float(np.std(np.concatenate(per_draw), ddof=1)) / (T * M * math.sqrt(n))
        reports.append(report(f"power T={T} M={M} N={N}", abs(total / (n * T * M) - 1.0),
                              POWER_Z * se + POWER_ROUNDOFF, n))
    return reports


# One Gauss-Legendre node count for every integral a suite takes, and one
# tolerance on |mass - 1| + error estimate for every normalization row.
QUAD_NODES = 48
NORMALIZATION_TOL = 1e-9


def _integrate(fun, a, b, lo=None, hi=None) -> tuple[float, float]:
    """(value, error estimate) of the integral of fun(x) over (a, b) or, given
    callables lo and hi, of fun(y, x) over a < x < b, lo(x) < y < hi(x): the
    Gauss-Legendre rule at 2 QUAD_NODES nodes per axis, and its change from the
    rule at QUAD_NODES.  The estimate cannot see a feature narrower than both
    rules' node spacing: a Gaussian bump of width 1e-3 at 0.5 on (0, 1)
    reads value 5.4e-14 and estimate 5.4e-14.  An exception the integrand
    raises fails the suite."""
    from numpy.polynomial.legendre import leggauss  # local: only quadrature suites load it

    def rule(nodes):
        x, w = (v.tolist() for v in leggauss(nodes))

        def on(f, a, b):
            half, mid = (b - a) / 2, (a + b) / 2
            return half * math.fsum(wi * f(mid + half * xi) for xi, wi in zip(x, w))
        return on(fun, a, b) if lo is None else on(
            lambda t: on(lambda y: fun(y, t), lo(t), hi(t)), a, b)

    value = rule(2 * QUAD_NODES)
    return value, abs(value - rule(QUAD_NODES))


def stiefel_pdf_oracle(Y: np.ndarray, d: float, snr_db: float) -> float:
    """Brute-force ln f(Y | D) for T=2, M=1 by quadrature over the input.

    Conditioned on D = diag(d), averaging the Gaussian conditional law
    over the isotropic direction reduces (by unitary invariance) to a
    one-dimensional integral over the squared projection u in (0, 1).
    """
    Y = np.asarray(Y)
    T, N = Y.shape
    if T != 2:
        raise DomainError("stiefel_pdf_oracle is specialized to T=2, M=1")
    s2 = np.linalg.svd(Y, compute_uv=False) ** 2  # descending
    rt = rho_from_db(snr_db)  # rho/M with M=1
    lam = (rt * d * d) / (1.0 + rt * d * d)
    val, _ = _integrate(lambda u: math.exp(lam * (s2[0] * u + s2[1] * (1.0 - u))), 0.0, 1.0)
    return (-N * T * math.log(math.pi) - N * math.log1p(rt * d * d)
            - float(s2.sum()) + math.log(val))


def run_pdf_oracle(n: int | None = None, seed: int = 0) -> list[TestReport]:
    """Closed-form conditional pdf vs quadrature on random (Y, D, snr) triples."""
    n = suite_size(n, 20)
    gen = RngHandle(seed)
    dp = derive(ChannelDims(T=2, M=1, N=2))
    errors = []
    for _ in range(n):
        snr_db = float(gen.uniform(5.0, 20.0))
        d = float(gen.uniform(0.5, 1.9))
        scale = float(gen.uniform(0.4, 1.2))
        y = scale * (gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2)))
        lf = cond_pdf_y_given_d_log(y, np.array([d]), dp, snr_db)
        lo = stiefel_pdf_oracle(y, d, snr_db)
        errors.append(abs(math.expm1(lf - lo)))
    # np.max, unlike the builtin max, propagates a NaN error, which fails the row
    return [report("cond-pdf vs quadrature T=2 M=1 N=2", np.max(errors), 1e-5, n)]


def run_density_normalization(n: int | None = None, seed: int = 0) -> list[TestReport]:
    """Integrate each closed-form density over its support; mass must be 1.

    Every row's statistic is |mass - 1| plus the quadrature's own error
    estimate, gated at NORMALIZATION_TOL.
    """
    suite_size(n, None)
    dp = derive(ChannelDims(T=2, M=1, N=2))
    dp_first = derive(ChannelDims(T=4, M=1, N=2))
    snr_db = 10.0
    rt = rho_from_db(snr_db)
    dgain = np.array([1.3])
    masses = {  # name: (value, error estimate)
        # matrix-Beta eigenvalue density, m = 1
        "normalization beta m=1 p=2 n=3": _integrate(
            lambda a: math.exp(beta_eig_pdf_log(1, 2, 3, np.array([a]))), 0.0, 1.0),
        # singular matrix-Beta: m = 2, n = 1 leaves one free eigenvalue
        "normalization beta m=2 p=3 n=1 (singular)": _integrate(
            lambda a: math.exp(beta_eig_pdf_log(2, 3, 1, np.array([a]))), 0.0, 1.0),
        # full 2-D ordered eigenvalue density, m = 2, over a2 < a1
        "normalization beta m=2 p=2 n=2": _integrate(
            lambda a2, a1: math.exp(beta_eig_pdf_log(2, 2, 2, np.array([a1, a2]))),
            0.0, 1.0, lambda a1: 0.0, lambda a1: a1),
        # leading-block spectrum density, one value (M = 1); the tail beyond 60 is about e^-85
        "normalization first-sv T=4 M=1 N=2 @10dB": _integrate(
            lambda s: math.exp(first_sv_pdf_log(np.array([s]), dp_first, snr_db)),
            0.0, 60.0),
        # trailing-block spectrum density, one value; the tail beyond 10 is about e^-100
        "normalization tail-sv T=2 M=1 N=2": _integrate(
            lambda s: math.exp(tail_sv_pdf_log(np.array([s]), dp)), 0.0, 10.0),
        # finite-SNR conditional spectrum density over its full support (T = 2)
        "normalization cond-sv T=2 M=1 N=2 @10dB": _integrate(
            lambda s1, s2: math.exp(
                cond_sv_pdf_finite_log(np.array([s1, s2]), dgain, dp, snr_db)),
            0.0, 10.0, lambda s2: s2 / math.sqrt(rt), lambda s2: 14.0),
    }
    return [report(name, abs(mass - 1.0) + err, NORMALIZATION_TOL, 1)
            for name, (mass, err) in masses.items()]


def _converging(name: str, gaps: list[float]) -> TestReport:
    """Passes when the gaps decrease strictly and the last is below 1e-2."""
    monotone = all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    return report(name, gaps[-1], 1e-2, len(gaps), passed=monotone and gaps[-1] < 1e-2)


def run_convergence(n: int | None = None, seed: int = 0) -> list[TestReport]:
    """Large-N gain-constant limit and the high-SNR density limit."""
    suite_size(n, None)

    T, M = 4, 2
    n_list = [100, 1_000, 10_000]
    seq = gain_limit_sequence(T, M, n_list)
    c_inf = asymptotic_gain_constant(T, M)
    gain_gaps = [abs(v - c_inf) for v in seq]

    dp = derive(ChannelDims(T=2, M=1, N=2))
    dgain = np.array([1.3])
    svn = np.array([1.1, 0.6])
    limit = cond_sv_pdf_limit_log(svn, dgain, dp)
    pdf_gaps = [abs(cond_sv_pdf_finite_log(svn, dgain, dp, s) - limit)
                for s in (40.0, 50.0, 60.0)]
    return [_converging(f"gain-limit T={T} M={M} N->{n_list[-1]}", gain_gaps),
            _converging("finite-vs-limit spectrum pdf T=2 M=1 N=2", pdf_gaps)]


# in sorted name order: the CLI lists the live keys as `validate --suite` choices
SUITES = {
    "convergence": run_convergence,
    "density-normalization": run_density_normalization,
    "lemma4": lemma4_suite,
    "lemma5": lemma5_suite,
    "pdf-oracle": run_pdf_oracle,
    "power": run_power,
    "unitary": run_unitary,
}
