"""Numeric validation suites and the registry of all suites.

Every suite has the signature (n=None, seed=0) -> list[TestReport]; the
CLI `validate` subcommand renders the rows as a table, with the seed in a
last column, and fails the run when any row fails.  Every quadrature
goes through _integrate at one accuracy; Monte Carlo checks are chunked
so memory stays flat at large dimensions.
"""

from __future__ import annotations

import math

import numpy as np

from .params import ChannelDims, DomainError, derive, rho_from_db
from .capacity import asymptotic_gain_constant, gain_limit_sequence
from .randmat import RngHandle, beta_eig_pdf_log
from .bstm import DRAW_CHUNK, sample_input
from .outpdf import (
    cond_pdf_y_given_d_log,
    cond_sv_pdf_finite_log,
    cond_sv_pdf_limit_log,
    first_sv_pdf_log,
    tail_sv_pdf_log,
)
from .statcheck import (
    LEMMA5_DEFAULT_DIMS,
    TestReport,
    lemma4_suite,
    lemma5_suite,
    report,
    suite_size,
)


def run_power(n: int | None = None, seed: int = 0) -> list[TestReport]:
    """Mean input power must match the budget T*M to within 1%."""
    n = suite_size(n, 100_000)
    rng = RngHandle(seed)
    reports = []
    for (T, M, N), child in zip(LEMMA5_DEFAULT_DIMS, rng.spawn(len(LEMMA5_DEFAULT_DIMS))):
        dp = derive(ChannelDims(T=T, M=M, N=N))
        total = 0.0
        for done in range(0, n, DRAW_CHUNK):
            x = sample_input(dp, child, count=min(DRAW_CHUNK, n - done))
            total += float(np.sum(np.abs(x) ** 2))
        reports.append(report(f"power T={T} M={M} N={N}",
                              abs(total / (n * T * M) - 1.0), 0.01, n))
    return reports


# One accuracy for every quadrature a suite takes, and one tolerance on
# |mass - 1| + error estimate for every normalization row.
QUAD_ACCURACY = {"epsabs": 1e-12, "epsrel": 1e-10}
NORMALIZATION_TOL = 1e-9


def _integrate(fun, a, b, lo=None, hi=None) -> tuple[float, float]:
    """(value, error estimate) of the integral of fun(x) over (a, b) or,
    given lo and hi, of fun(y, x) over a < x < b, lo(x) < y < hi(x).  An
    exception the integrand raises propagates and fails the suite."""
    from scipy import integrate  # local: only quadrature suites pay for it
    if lo is None:
        return integrate.quad(fun, a, b, limit=200, **QUAD_ACCURACY)
    return integrate.dblquad(fun, a, b, lo, hi, **QUAD_ACCURACY)


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
    val, _ = _integrate(lambda u: math.exp(lam * (s2[0] * u + s2[1] * (1.0 - u))), 0.0, 1.0)
    return (-N * T * math.log(math.pi) - N * math.log1p(rt * d * d)
            - float(s2.sum()) + math.log(val))


def run_pdf_oracle(n: int | None = None, seed: int = 0) -> list[TestReport]:
    """Closed-form conditional pdf vs quadrature on random (Y, D, snr) triples."""
    n = suite_size(n, 20)
    gen = RngHandle(seed)
    dp = derive(ChannelDims(T=2, M=1, N=2))
    worst = 0.0
    for _ in range(n):
        snr_db = float(gen.uniform(5.0, 20.0))
        d = float(gen.uniform(0.5, 1.9))
        scale = float(gen.uniform(0.4, 1.2))
        y = scale * (gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2)))
        lf = cond_pdf_y_given_d_log(y, np.array([d]), dp, snr_db)
        lo = stiefel_pdf_oracle(y, d, snr_db)
        worst = max(worst, abs(math.expm1(lf - lo)))
    return [report("cond-pdf vs quadrature T=2 M=1 N=2", worst, 1e-5, n)]


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
            0.0, 1.0, 0.0, lambda a1: a1),
        # leading-block spectrum density with a single value (M = 1)
        "normalization first-sv T=4 M=1 N=2 @10dB": _integrate(
            lambda s: math.exp(first_sv_pdf_log(np.array([s]), dp_first, snr_db)),
            0.0, np.inf),
        # trailing-block spectrum density with a single value
        "normalization tail-sv T=2 M=1 N=2": _integrate(
            lambda s: math.exp(tail_sv_pdf_log(np.array([s]), dp)), 0.0, np.inf),
        # finite-SNR conditional spectrum density over its full support (T = 2)
        "normalization cond-sv T=2 M=1 N=2 @10dB": _integrate(
            lambda s1, s2: math.exp(
                cond_sv_pdf_finite_log(np.array([s1, s2]), dgain, dp, snr_db)),
            0.0, 10.0, lambda s2: s2 / math.sqrt(rt), 14.0),
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


SUITES = {
    "lemma4": lemma4_suite,
    "lemma5": lemma5_suite,
    "power": run_power,
    "density-normalization": run_density_normalization,
    "pdf-oracle": run_pdf_oracle,
    "convergence": run_convergence,
}
