"""Validation reports, the two-sample KS check and the KS suites.

Every check, statistical or numerical, reports through `report`.  The
KS suites draw from two constructions that should share a law and
compare them index by index with a Kolmogorov-Smirnov test; a suite's
indices form one family, gated by `holm` at family-wise level
P_THRESHOLD.  Reports carry the statistic and the asymptotic p-value;
the seed that replays a run is the caller's, and the CLI `validate`
subcommand writes it on every row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ChannelDims, DomainError, derive
from .randmat import (
    RngHandle,
    sample_bartlett_factor,
    sample_gaussian,
    sample_matrix_beta,
    sample_wishart,
)
from .bstm import noiseless_sv_sample

P_THRESHOLD = 0.01
KS_DEFAULT_N = 10_000

LEMMA5_DEFAULT_DIMS = ((8, 2, 4), (10, 5, 100), (4, 2, 3))
LEMMA4_DEFAULT_CASES = ((2, 3, 2), (2, 2, 1), (3, 4, 2))


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
    DomainError for n < 1 and for any n given to a fixed-size suite."""
    if n is None:
        return default
    if default is None:
        raise DomainError(f"this suite has a fixed size and takes no n, got n={n}")
    if n < 1:
        raise DomainError(f"n must be a positive integer, got n={n}")
    return n


def ks_two_sample(a, b, name: str = "ks_two_sample") -> TestReport:
    """Two-sided two-sample KS test of the raveled samples; passes when p > 0.01.

    The statistic d is the largest gap between the two empirical CDFs,
    taken over the pooled points.  The p-value is the finite-n Kolmogorov
    tail `kstwo.sf(d, n)` at the rounded effective size
    n = round(n1 n2 / (n1 + n2)) (Simard & L'Ecuyer 2011).  Both equal, bit
    for bit, what `scipy.stats.ks_2samp(a, b, method="asymp")` returns.  A
    sample that contains NaN gives d = p = NaN, and the row fails.  The
    report's n_samples is min(n1, n2), the size of the smaller sample.
    """
    from scipy import stats  # local: only validate's KS suites pay for scipy.stats
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size < 2 or b.size < 2:
        raise DomainError("ks_two_sample needs at least two observations per sample")
    n = min(a.size, b.size)
    if np.isnan(a[-1]) or np.isnan(b[-1]):  # np.sort puts NaN last
        return report(name, np.nan, P_THRESHOLD, n, p_value=np.nan)
    pooled = np.concatenate([a, b])
    gap = (np.searchsorted(a, pooled, side="right") / a.size
           - np.searchsorted(b, pooled, side="right") / b.size)
    d = max(gap.max(), np.clip(-gap.min(), 0, 1))  # a tie keeps +0.0, not clip's -0.0
    size = np.round(float(a.size) * b.size / (a.size + b.size))
    p = np.clip(stats.kstwo.sf(d, size), 0, 1)
    return report(name, d, P_THRESHOLD, n, p_value=float(p))


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


def _ks_per_index(a: np.ndarray, b: np.ndarray, label: str) -> list[TestReport]:
    """One KS report per column of the (draws, index) samples a and b."""
    return [ks_two_sample(a[:, i], b[:, i], name=f"{label}{i + 1}") for i in range(a.shape[1])]


def lemma5_suite(n: int | None = None, seed: int = 0) -> list[TestReport]:
    """Noiseless output spectrum vs the M x Q Gaussian spectrum, per index.

    For each (T, M, N) the singular values of D Phi^H H (sampled through
    the input pipeline) are compared against the singular values of an
    M x Q Gaussian matrix with per-entry variance T N / Q.
    """
    n = suite_size(n, KS_DEFAULT_N)
    rng = RngHandle(seed)
    reports: list[TestReport] = []
    for (T, M, N) in LEMMA5_DEFAULT_DIMS:
        dp = derive(ChannelDims(T=T, M=M, N=N))
        rng_a, rng_b = rng.spawn(2)
        sv_a = noiseless_sv_sample(dp, rng_a, count=n)
        g = sample_gaussian(M, dp.Q, T * N / dp.Q, rng_b, count=n)
        sv_b = np.linalg.svd(g, compute_uv=False)
        reports += _ks_per_index(sv_a, sv_b, f"noiseless-sv T={T} M={M} N={N} sv")
    return holm(reports)


def lemma4_suite(n: int | None = None, seed: int = 0) -> list[TestReport]:
    """Whitened matrix-Beta eigenvalues vs direct Wishart eigenvalues.

    For each (m, p, n): draw the Bartlett factor L of an independent scale
    S = L L^H ~ W_m(p+n), so S = U^H U with U = L^H, and compare the
    eigenvalues of U^H C U (C a matrix-Beta variate) with those of a
    W_m(p) draw, index by index.
    """
    draws = suite_size(n, KS_DEFAULT_N)
    rng = RngHandle(seed)
    reports: list[TestReport] = []
    for (m, p, n) in LEMMA4_DEFAULT_CASES:
        rng_s, rng_c, rng_w = rng.spawn(3)
        ell = sample_bartlett_factor(m, p + n, 1.0, rng_s, count=draws)
        c = sample_matrix_beta(m, p, n, rng_c, count=draws)
        recon = ell @ c @ np.conj(np.swapaxes(ell, -1, -2))
        eig_a = np.linalg.eigvalsh(recon)[..., ::-1]
        w = sample_wishart(m, p, 1.0, rng_w, count=draws)
        eig_b = np.linalg.eigvalsh(w)[..., ::-1]
        reports += _ks_per_index(eig_a, eig_b, f"beta-whitening m={m} p={p} n={n} eig")
    return holm(reports)
