"""Real special functions behind every capacity constant.

All values are natural logs (nats).  The multivariate gamma here is the
complex one: Gamma_m(a) = pi^{m(m-1)/2} prod_{k=1}^m Gamma(a-k+1).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, starmap
from operator import sub

import numpy as np

from .params import DomainError, check_int

LOG_PI = math.log(math.pi)
LOG_2 = math.log(2.0)


def log_vandermonde(x) -> float:
    """sum_{i<j} ln(x_i - x_j) for a strictly decreasing sequence x, 0 for
    fewer than two entries.  The entries are few: pass Python floats (a
    list from tolist()), which math takes without numpy's per-call cost."""
    return math.fsum(map(math.log, starmap(sub, combinations(x, 2))))


# the integer-taking caches are typed: a hit on 2 must not answer for 2.0 or True
@lru_cache(maxsize=None, typed=True)
def log_multivariate_gamma(m: int, a: float) -> float:
    """ln Gamma_m(a), complex multivariate gamma of dimension m.

    Requires a > m - 1 so every factor Gamma(a-k+1) is in-domain.
    """
    m = check_int(m, "m", 1)
    if not a > m - 1:
        raise DomainError(
            f"log_multivariate_gamma requires a > m-1: a={a}, m={m}")
    return math.fsum([m * (m - 1) / 2 * LOG_PI, *(math.lgamma(a - k) for k in range(m))])


@lru_cache(maxsize=None, typed=True)
def expected_logdet_wishart(M: int, N: int) -> float:
    """E[ln det(H H^H)] for an M x N matrix H of iid CN(0,1) entries, 1 <= M <= N.

    Equals sum_{i=1}^{M} psi(N-i+1) = M psi(n) + sum_{k=n}^{N-1} (N-k)/k at
    n = N-M+1, an O(M) sum at any N.  psi(n) is H_{n-1} - gamma below 64 and
    its asymptotic series, truncated below 1e-17 relative, from 64 on.
    """
    M = check_int(M, "M", 1)
    N = check_int(N, "N", M)
    n = N - M + 1
    if n < 64:
        psi = math.fsum([-np.euler_gamma, *(1.0 / k for k in range(1, n))])
    else:
        x2 = 1.0 / (n * n)
        psi = math.log(n) - 0.5 / n - x2 * (1 / 12 - x2 * (1 / 120 - x2 / 252))
    return math.fsum([M * psi, *((N - k) / k for k in range(n, N))])


def log_stiefel_volume(n: int, m: int) -> float:
    """ln of the volume of the Stiefel manifold S(n, m) of n x m matrices
    with orthonormal columns: |S(n,m)| = 2^m pi^{mn} / Gamma_m(n)."""
    m = check_int(m, "m", 1)
    n = check_int(n, "n", m)
    return m * LOG_2 + m * n * LOG_PI - log_multivariate_gamma(m, n)
