"""Validation suite drivers.

Each driver returns a list of TestReport rows; the CLI `validate`
subcommand renders them as a table and fails the run when any row
fails.  Quadrature checks integrate the closed-form densities over
their support; Monte Carlo checks are chunked so memory stays flat
at large dimensions.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from .params import ChannelDims, ConfluenceError, DomainError, derive, rho_from_db
from .capacity import asymptotic_gain_constant, gain_limit_sequence
from .randmat import RngHandle, beta_eig_pdf_log
from .bstm import GainDiagonal, sample_input
from .outpdf import (
    cond_pdf_y_given_d_log,
    cond_sv_pdf_finite_log,
    cond_sv_pdf_limit_log,
    first_sv_pdf_log,
    tail_sv_pdf_log,
)
from .statcheck import TestReport, lemma4_suite, lemma5_suite

POWER_DIMS = ((8, 2, 4), (10, 5, 100), (4, 2, 3))
_CHUNK = 10_000


def run_lemma4(n: int | None = None, seed: int = 0) -> list[TestReport]:
    return lemma4_suite(n_draws=10_000 if n is None else n, rng=RngHandle(seed))


def run_lemma5(n: int | None = None, seed: int = 0) -> list[TestReport]:
    return lemma5_suite(n=10_000 if n is None else n, rng=RngHandle(seed))


def run_power(n: int | None = None, seed: int = 0) -> list[TestReport]:
    """Mean input power must match the budget T*M to within 1%."""
    n = 100_000 if n is None else n
    rng = RngHandle(seed)
    reports = []
    for (T, M, N), child in zip(POWER_DIMS, rng.spawn(len(POWER_DIMS))):
        dp = derive(ChannelDims(T=T, M=M, N=N))
        total = 0.0
        done = 0
        while done < n:
            k = min(_CHUNK, n - done)
            x = sample_input(dp, child, count=k)
            total += float(np.sum(np.abs(x) ** 2))
            done += k
        stat = abs(total / (n * T * M) - 1.0)
        reports.append(TestReport(
            name=f"power T={T} M={M} N={N}", statistic=stat, threshold=0.01,
            p_value=None, passed=stat < 0.01, n_samples=n, seed=seed))
    return reports


def _report(name: str, stat: float, threshold: float, n: int = 1,
            seed: int = 0, passed: bool | None = None) -> TestReport:
    if passed is None:
        passed = stat < threshold
    return TestReport(name=name, statistic=float(stat), threshold=threshold,
                      p_value=None, passed=passed, n_samples=n, seed=seed)


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
    s2 = np.sort(np.linalg.svd(Y, compute_uv=False))[::-1] ** 2
    rt = rho_from_db(snr_db)  # rho/M with M=1
    lam = (rt * d * d) / (1.0 + rt * d * d)
    val, _err = integrate.quad(
        lambda u: math.exp(lam * (s2[0] * u + s2[1] * (1.0 - u))),
        0.0, 1.0, epsabs=1e-13, epsrel=1e-11)
    return (-N * T * math.log(math.pi) - N * math.log1p(rt * d * d)
            - float(s2.sum()) + math.log(val))


def run_pdf_oracle(n: int | None = None, seed: int = 0) -> list[TestReport]:
    """Closed-form conditional pdf vs quadrature on random (Y, D, snr) triples."""
    n = 20 if n is None else n
    gen = RngHandle(seed).generator
    dp = derive(ChannelDims(T=2, M=1, N=2))
    worst = 0.0
    for _ in range(n):
        snr_db = float(gen.uniform(5.0, 20.0))
        d = float(gen.uniform(0.5, 1.9))
        scale = float(gen.uniform(0.4, 1.2))
        y = scale * (gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2)))
        lf = cond_pdf_y_given_d_log(y, GainDiagonal(np.array([d])), dp, snr_db)
        lo = stiefel_pdf_oracle(y, d, snr_db)
        worst = max(worst, abs(math.expm1(lf - lo)))
    return [_report("cond-pdf vs quadrature T=2 M=1 N=2", worst, 1e-5, n=n, seed=seed)]


def _quad_mass(fun, lo, hi, **kw) -> float:
    val, _ = integrate.quad(fun, lo, hi, limit=200, **kw)
    return val


def run_density_normalization(n: int | None = None, seed: int = 0) -> list[TestReport]:
    """Integrate each closed-form density over its support; mass must be 1.

    1-D Gaussian-type spectra are held to 1e-8, 1-D beta densities to
    1e-6, and the 2-D quadratures to 1e-3.
    """
    del n  # quadrature-based, no sample-size knob
    reports = []

    # matrix-Beta eigenvalue density, m = 1
    mass = _quad_mass(lambda a: math.exp(beta_eig_pdf_log(1, 2, 3, np.array([a]))),
                      0.0, 1.0)
    reports.append(_report("normalization beta m=1 p=2 n=3", abs(mass - 1.0), 1e-6, seed=seed))

    # singular matrix-Beta: m = 2, n = 1 leaves one free eigenvalue
    mass = _quad_mass(lambda a: math.exp(beta_eig_pdf_log(2, 3, 1, np.array([a]))),
                      0.0, 1.0)
    reports.append(_report("normalization beta m=2 p=3 n=1 (singular)",
                           abs(mass - 1.0), 1e-6, seed=seed))

    # full 2-D ordered eigenvalue density, m = 2
    def beta2(a2, a1):
        if a2 >= a1:
            return 0.0
        try:
            return math.exp(beta_eig_pdf_log(2, 2, 2, np.array([a1, a2])))
        except (DomainError, ConfluenceError):
            return 0.0

    mass, _ = integrate.dblquad(beta2, 0.0, 1.0, 0.0, lambda a1: a1)
    reports.append(_report("normalization beta m=2 p=2 n=2", abs(mass - 1.0), 1e-3, seed=seed))

    # leading-block spectrum density with a single value (M = 1)
    dp = derive(ChannelDims(T=4, M=1, N=2))
    mass = _quad_mass(lambda s: math.exp(first_sv_pdf_log(np.array([s]), dp, 10.0)),
                      0.0, np.inf)
    reports.append(_report("normalization first-sv T=4 M=1 N=2 @10dB",
                           abs(mass - 1.0), 1e-8, seed=seed))

    # trailing-block spectrum density with a single value
    dp = derive(ChannelDims(T=2, M=1, N=2))
    mass = _quad_mass(lambda s: math.exp(tail_sv_pdf_log(np.array([s]), dp)),
                      0.0, np.inf)
    reports.append(_report("normalization tail-sv T=2 M=1 N=2", abs(mass - 1.0),
                           1e-8, seed=seed))

    # finite-SNR conditional spectrum density over its full support (T = 2)
    snr_db = 10.0
    rt = rho_from_db(snr_db)
    dgain = GainDiagonal(np.array([1.3]))

    def cond2(s1, s2):
        try:
            return math.exp(cond_sv_pdf_finite_log(np.array([s1, s2]), dgain, dp, snr_db))
        except (DomainError, ConfluenceError):
            return 0.0

    mass, _ = integrate.dblquad(cond2, 0.0, 10.0,
                                lambda s2: s2 / math.sqrt(rt), 14.0,
                                epsabs=1e-10, epsrel=1e-8)
    reports.append(_report("normalization cond-sv T=2 M=1 N=2 @10dB",
                           abs(mass - 1.0), 1e-3, seed=seed))
    return reports


def run_convergence(n: int | None = None, seed: int = 0) -> list[TestReport]:
    """Large-N gain-constant limit and the high-SNR density limit."""
    del n
    reports = []

    T, M = 4, 2
    n_list = [100, 1_000, 10_000]
    seq = gain_limit_sequence(T, M, n_list)
    c_inf = asymptotic_gain_constant(T, M)
    gaps = [abs(v - c_inf) for v in seq]
    monotone = all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    reports.append(_report(f"gain-limit T={T} M={M} N->{n_list[-1]}", gaps[-1], 1e-2,
                           n=len(n_list), seed=seed,
                           passed=monotone and gaps[-1] < 1e-2))

    dp = derive(ChannelDims(T=2, M=1, N=2))
    dgain = GainDiagonal(np.array([1.3]))
    svn = np.array([1.1, 0.6])
    limit = cond_sv_pdf_limit_log(svn, dgain, dp)
    gaps = [abs(cond_sv_pdf_finite_log(svn, dgain, dp, s) - limit)
            for s in (40.0, 50.0, 60.0)]
    monotone = all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    reports.append(_report("finite-vs-limit spectrum pdf T=2 M=1 N=2", gaps[-1], 1e-2,
                           n=3, seed=seed, passed=monotone and gaps[-1] < 1e-2))
    return reports


SUITES = {
    "lemma4": run_lemma4,
    "lemma5": run_lemma5,
    "power": run_power,
    "density-normalization": run_density_normalization,
    "pdf-oracle": run_pdf_oracle,
    "convergence": run_convergence,
}
