"""Numeric validation suites and the registry of all suites.

Every suite has the signature (n=None, seed=0) -> list[TestReport]; the
CLI `validate` subcommand renders the rows as a table and fails the run
when any row fails.  Quadrature checks integrate the closed-form
densities over their support; Monte Carlo checks are chunked so memory
stays flat at large dimensions.
"""

from __future__ import annotations

import math

import numpy as np

from .params import ChannelDims, ConfluenceError, DomainError, derive, rho_from_db
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
                              abs(total / (n * T * M) - 1.0), 0.01, n, seed))
    return reports


def stiefel_pdf_oracle(Y: np.ndarray, d: float, snr_db: float) -> float:
    """Brute-force ln f(Y | D) for T=2, M=1 by quadrature over the input.

    Conditioned on D = diag(d), averaging the Gaussian conditional law
    over the isotropic direction reduces (by unitary invariance) to a
    one-dimensional integral over the squared projection u in (0, 1).
    """
    from scipy import integrate  # local: only quadrature suites pay for it
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
    return [report("cond-pdf vs quadrature T=2 M=1 N=2", worst, 1e-5, n, seed)]


def _quad_mass(fun, lo, hi) -> float:
    from scipy import integrate  # local: only quadrature suites pay for it
    val, _ = integrate.quad(fun, lo, hi, limit=200)
    return val


def _zero_on_error(logpdf):
    """exp(logpdf(*x)), read as 0 where the closed form raises
    DomainError/ConfluenceError (off its support or confluent)."""
    def pdf(*x):
        try:
            return math.exp(logpdf(*x))
        except (DomainError, ConfluenceError):
            return 0.0
    return pdf


def run_density_normalization(n: int | None = None, seed: int = 0) -> list[TestReport]:
    """Integrate each closed-form density over its support; mass must be 1.

    1-D Gaussian-type spectra are held to 1e-8, 1-D beta densities to
    1e-6, and the 2-D quadratures to 1e-3.
    """
    from scipy import integrate  # local: only quadrature suites pay for it
    suite_size(n, None)
    masses = []  # (name, integrated mass, tolerance)

    # matrix-Beta eigenvalue density, m = 1
    mass = _quad_mass(lambda a: math.exp(beta_eig_pdf_log(1, 2, 3, np.array([a]))),
                      0.0, 1.0)
    masses.append(("normalization beta m=1 p=2 n=3", mass, 1e-6))

    # singular matrix-Beta: m = 2, n = 1 leaves one free eigenvalue
    mass = _quad_mass(lambda a: math.exp(beta_eig_pdf_log(2, 3, 1, np.array([a]))),
                      0.0, 1.0)
    masses.append(("normalization beta m=2 p=3 n=1 (singular)", mass, 1e-6))

    # full 2-D ordered eigenvalue density, m = 2
    beta2 = _zero_on_error(lambda a2, a1: beta_eig_pdf_log(2, 2, 2, np.array([a1, a2])))
    mass, _ = integrate.dblquad(beta2, 0.0, 1.0, 0.0, lambda a1: a1)
    masses.append(("normalization beta m=2 p=2 n=2", mass, 1e-3))

    # leading-block spectrum density with a single value (M = 1)
    dp = derive(ChannelDims(T=4, M=1, N=2))
    mass = _quad_mass(lambda s: math.exp(first_sv_pdf_log(np.array([s]), dp, 10.0)),
                      0.0, np.inf)
    masses.append(("normalization first-sv T=4 M=1 N=2 @10dB", mass, 1e-8))

    # trailing-block spectrum density with a single value
    dp = derive(ChannelDims(T=2, M=1, N=2))
    mass = _quad_mass(lambda s: math.exp(tail_sv_pdf_log(np.array([s]), dp)),
                      0.0, np.inf)
    masses.append(("normalization tail-sv T=2 M=1 N=2", mass, 1e-8))

    # finite-SNR conditional spectrum density over its full support (T = 2)
    snr_db = 10.0
    rt = rho_from_db(snr_db)
    dgain = np.array([1.3])
    cond2 = _zero_on_error(
        lambda s1, s2: cond_sv_pdf_finite_log(np.array([s1, s2]), dgain, dp, snr_db))
    mass, _ = integrate.dblquad(cond2, 0.0, 10.0,
                                lambda s2: s2 / math.sqrt(rt), 14.0,
                                epsabs=1e-10, epsrel=1e-8)
    masses.append(("normalization cond-sv T=2 M=1 N=2 @10dB", mass, 1e-3))
    return [report(name, abs(mass - 1.0), tol, 1, seed) for name, mass, tol in masses]


def _converging(name: str, gaps: list[float], seed: int) -> TestReport:
    """Passes when the gaps decrease strictly and the last is below 1e-2."""
    monotone = all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    return report(name, gaps[-1], 1e-2, len(gaps), seed,
                  passed=monotone and gaps[-1] < 1e-2)


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
    return [_converging(f"gain-limit T={T} M={M} N->{n_list[-1]}", gain_gaps, seed),
            _converging("finite-vs-limit spectrum pdf T=2 M=1 N=2", pdf_gaps, seed)]


SUITES = {
    "lemma4": lemma4_suite,
    "lemma5": lemma5_suite,
    "power": run_power,
    "density-normalization": run_density_normalization,
    "pdf-oracle": run_pdf_oracle,
    "convergence": run_convergence,
}
