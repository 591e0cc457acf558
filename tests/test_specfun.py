import math
import time

import mpmath
import numpy as np
import pytest
from scipy.special import digamma, gammaln

from ncmimo.params import DomainError
from ncmimo.specfun import (
    expected_logdet_wishart,
    log_multivariate_gamma,
    log_stiefel_volume,
)

# Reference values computed independently at 50-digit precision.
LOG_MVGAMMA_2_2 = 1.1447298858494002
LOG_MVGAMMA_3_45 = 7.3735827012106361
ELOGDET_2_3 = 1.3455686701969343
LOG_STIEFEL_2_1 = 2.9826069522587457


def test_log_multivariate_gamma_values():
    # Gamma_2(2) = pi * Gamma(2) * Gamma(1) = pi
    assert log_multivariate_gamma(2, 2) == pytest.approx(LOG_MVGAMMA_2_2, abs=1e-13)
    assert log_multivariate_gamma(3, 4.5) == pytest.approx(LOG_MVGAMMA_3_45, abs=1e-13)
    # m = 1 reduces to the ordinary log-gamma
    assert log_multivariate_gamma(1, 3.25) == pytest.approx(gammaln(3.25), abs=1e-14)


def test_log_multivariate_gamma_domain():
    # needs a > m - 1 so every Gamma argument is positive
    with pytest.raises(DomainError):
        log_multivariate_gamma(3, 2.0)
    with pytest.raises(DomainError):
        log_multivariate_gamma(0, 1.0)
    with pytest.raises(DomainError):
        log_multivariate_gamma(2, math.nan)


def test_log_multivariate_gamma_recursion():
    # Gamma_m(a) = pi^{m-1} Gamma(a - m + 1) Gamma_{m-1}(a)
    for m in range(2, 6):
        for a in (m, m + 0.5, m + 3, m + 7.25):
            lhs = log_multivariate_gamma(m, a)
            rhs = ((m - 1) * math.log(math.pi) + gammaln(a - m + 1)
                   + log_multivariate_gamma(m - 1, a))
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_expected_logdet_wishart_values():
    assert expected_logdet_wishart(2, 3) == pytest.approx(ELOGDET_2_3, abs=1e-13)
    assert expected_logdet_wishart(1, 1) == pytest.approx(-np.euler_gamma, abs=1e-14)


def test_expected_logdet_two_forms_agree():
    # digamma sum vs the harmonic-number closed form at integer arguments:
    # psi(k) = -gamma + H_{k-1}
    for M in range(1, 6):
        for N in range(M, 41):
            a = expected_logdet_wishart(M, N)
            b = sum(-np.euler_gamma + sum(1.0 / j for j in range(1, N - i + 1))
                    for i in range(1, M + 1))
            assert a == pytest.approx(b, abs=1e-12)


def test_expected_logdet_domain():
    with pytest.raises(DomainError):
        expected_logdet_wishart(3, 2)
    with pytest.raises(DomainError):
        expected_logdet_wishart(0, 2)


def test_stiefel_volume():
    # |S(2,1)| is the area of the unit sphere in C^2: 2 pi^2
    assert log_stiefel_volume(2, 1) == pytest.approx(LOG_STIEFEL_2_1, abs=1e-13)
    # square case: volume of U(2) = 2^2 pi^{4} / Gamma_2(2)
    assert log_stiefel_volume(2, 2) == pytest.approx(
        2 * math.log(2.0) + 4 * math.log(math.pi) - LOG_MVGAMMA_2_2, abs=1e-13)


def test_stiefel_volume_domain():
    with pytest.raises(DomainError):
        log_stiefel_volume(1, 2)


@pytest.mark.parametrize("f, good, bad", [
    (log_multivariate_gamma, (2, 3), (2.0, 3)),
    (log_multivariate_gamma, (1, 3), (True, 3)),
    (expected_logdet_wishart, (2, 3), (np.float64(2.0), 3)),
])
def test_a_cache_hit_does_not_answer_for_a_non_integer(f, good, bad):
    # 2.0 and True hash like the ints a hit was cached under
    f(*good)
    with pytest.raises(DomainError, match="must be a positive integer"):
        f(*bad)


def _close(got, want):
    # within 1e-15 relative, about 4.5 ulp, of the 50-digit value (absolute near 0)
    return abs(got - want) <= 1e-15 * max(1.0, abs(want))


def _mp(expr):
    with mpmath.workdps(50):
        return expr()


def test_memoized_values_match_mpmath():
    # accurate on a cache miss, and the hit after it returns the same bits
    for f in (log_multivariate_gamma, expected_logdet_wishart):
        f.cache_clear()
    for m in range(1, 7):
        for a in (m, m + 0.5, m + 3, 40):
            want = _mp(lambda: m * (m - 1) / 2 * mpmath.log(mpmath.pi) + mpmath.fsum(
                mpmath.loggamma(mpmath.mpf(a) - k) for k in range(m)))
            got = log_multivariate_gamma(m, a)
            assert _close(got, want) and log_multivariate_gamma(m, a) == got
        # psi(N - m + 1) is a harmonic sum up to 63 and an asymptotic series from 64
        for N in (m, m + 1, m + 62, m + 63, 100, 10**6):
            want = _mp(lambda: mpmath.fsum(mpmath.digamma(N - i) for i in range(m)))
            got = expected_logdet_wishart(m, N)
            assert _close(got, want) and expected_logdet_wishart(m, N) == got


def test_expected_logdet_at_large_n_is_accurate_and_fast():
    # psi at N - 49 .. N: the cost must not grow with M N (a harmonic sum
    # per psi takes seconds here); within 1e-15 relative of the 50-digit sum
    expected_logdet_wishart.cache_clear()
    t0 = time.perf_counter()
    got = expected_logdet_wishart(50, 10**6)
    elapsed = time.perf_counter() - t0
    want = _mp(lambda: mpmath.fsum(mpmath.digamma(10**6 - i) for i in range(50)))
    assert abs(got - want) <= 1e-15 * abs(want)
    assert elapsed < 0.02

