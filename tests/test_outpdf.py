import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, stats

from ncmimo import outpdf
from ncmimo.bstm import GainDiagonal, sample_gain, sample_input, simulate_channel
from ncmimo.capacity import USTM, capacity_approx
from ncmimo.outpdf import (
    _jacobian_log,
    cond_pdf_y_given_d_log,
    cond_sv_pdf_finite_log,
    cond_sv_pdf_limit_log,
    first_sv_pdf_log,
    tail_sv_pdf_log,
)
from ncmimo.params import (
    ChannelDims,
    ConfluenceError,
    DomainError,
    check_decreasing,
    derive,
    rho_from_db,
)
from ncmimo.randmat import RngHandle, sample_isotropic_unitary
from ncmimo.specfun import LOG_PI, log_gamma_range, log_stiefel_volume, log_vandermonde
from ncmimo.statcheck import stiefel_pdf_oracle

# Reference values computed independently at 50-digit precision.
JAC_SINGLE = 3.4657359027997265      # sv=[2], rmax=3, rmin=1: 5 ln 2
JAC_PAIR = 2.8903717578961647        # sv=[2,1], rmax=2, rmin=2: ln 18
FIRST_SV_4_1_2_10DB = -4.0919895320454621   # ln f(2.5)
TAIL_2_1_2 = -0.15352776337878707           # ln f(0.7)
LIMIT_2_1_2 = -0.96403411246403644          # d=1.3, svn=(1.1, 0.6)


def _dp(T, M, N):
    return derive(ChannelDims(T=T, M=M, N=N))


def _jac(sv, n):
    return _jacobian_log(sv, n, log_vandermonde(sv * sv))


# ---------------------------------------------------------------- jacobian

def test_svd_jacobian_values():
    assert _jac(np.array([2.0]), 3) == pytest.approx(JAC_SINGLE, abs=1e-13)
    assert _jac(np.array([2.0, 1.0]), 2) == pytest.approx(JAC_PAIR, abs=1e-13)


def test_svd_jacobian_confluence():
    # the spectrum a density hands to the Jacobian is validated first
    with pytest.raises(ConfluenceError):
        tail_sv_pdf_log(np.array([1.0, 1.0 - 1e-14]), _dp(4, 2, 4))


def test_svd_jacobian_domain():
    with pytest.raises(DomainError):
        tail_sv_pdf_log(np.array([1.0, 2.0]), _dp(4, 2, 4))   # increasing
    with pytest.raises(DomainError):
        tail_sv_pdf_log(np.array([2.0]), _dp(4, 2, 4))        # wrong length


# ---------------------------------------------- Stiefel integral identities

def _stiefel_integral_log(s2, lam, N):
    """ln of the integral of exp(tr(diag(s2) Phi diag(lam) Phi^H)) over the
    Stiefel manifold S(T, M), through the conditional-density core.

    At Y = [diag(sqrt(s2)) 0] and rho~ d^2 = lam / (1 - lam) the integral is
    ln f(Y | D) + N T ln pi + N sum ln(1 + rho~ d^2) + sum s2 + ln|S(T, M)|.
    """
    s2, lam = np.asarray(s2, dtype=float), np.asarray(lam, dtype=float)
    T, M = s2.size, lam.size
    g = lam / (1.0 - lam)   # rho~ d^2; at 0 dB rho~ = 1/M
    y = np.zeros((T, N), dtype=complex)
    y[:, :T] = np.diag(np.sqrt(s2))
    lf = cond_pdf_y_given_d_log(y, GainDiagonal(np.sqrt(M * g)), _dp(T, M, N), 0.0)
    return (lf + N * T * math.log(math.pi) + N * np.log1p(g).sum() + s2.sum()
            + log_stiefel_volume(T, M))


def test_cond_pdf_matches_stiefel_rank_one_closed_form():
    # (0.5, 800, 1) is Y = diag(sqrt(800), 1) at 0 dB, d = 1: ln f = -412.955
    for (lam, s1, s2) in ((0.4, 2.0, 0.7), (0.93, 5.0, 0.1), (0.05, 1.3, 1.0),
                          (0.5, 800.0, 1.0)):
        exact = (math.log((math.exp(lam * s1) - math.exp(lam * s2))
                          / (lam * (s1 - s2)))
                 + log_stiefel_volume(2, 1))
        assert _stiefel_integral_log([s1, s2], [lam], 2) == pytest.approx(exact, abs=1e-12)


def test_cond_pdf_low_snr_tail_matches_the_rank_one_closed_form():
    # Y = diag(sqrt(3000), 1) at 0 dB, d = 1: both rows of the row-scaled
    # 2 x 2 kernel read (0, 1) to double precision, so its LU cancels to zero;
    # the two-node closed form keeps the value
    y = np.diag([math.sqrt(3000.0), 1.0]).astype(complex)
    got = cond_pdf_y_given_d_log(y, np.array([1.0]), _dp(2, 1, 2), 0.0)
    assert got == pytest.approx(-1514.2781009, abs=1e-7)
    sv = np.linalg.svd(y, compute_uv=False)
    assert got == pytest.approx(_mp_rank_one_log(sv ** 2, 1.0, 0.0, 2), abs=1e-12)


def test_cond_pdf_matches_stiefel_quadrature_t2m1():
    # direction average over the unit sphere in C^2 reduces to a 1-D integral
    for (lam, s1, s2) in ((0.6, 3.0, 0.5), (1e-4, 2.0, 1.0)):
        val, _ = integrate.quad(
            lambda u: math.exp(lam * (s1 * u + s2 * (1 - u))), 0.0, 1.0,
            epsabs=1e-14, epsrel=1e-12)
        assert _stiefel_integral_log([s1, s2], [lam], 2) == pytest.approx(
            math.log(val) + log_stiefel_volume(2, 1), rel=1e-8)


def test_cond_pdf_matches_stiefel_quadrature_t3m1():
    # C^3 sphere: squared projections are Dirichlet(1,1,1), a 2-D integral
    lam, s2 = 0.8, np.array([3.0, 1.7, 0.4])

    def f(u2, u1):
        u3 = 1.0 - u1 - u2
        return math.exp(lam * (s2[0] * u1 + s2[1] * u2 + s2[2] * u3))

    val, _ = integrate.dblquad(f, 0.0, 1.0, 0.0, lambda u1: 1.0 - u1,
                               epsabs=1e-12, epsrel=1e-10)
    want = math.log(2.0 * val) + log_stiefel_volume(3, 1)
    assert _stiefel_integral_log(s2, [lam], 3) == pytest.approx(want, rel=1e-8)


def test_cond_pdf_finite_over_random_inputs():
    gen = RngHandle(23)
    for _ in range(200):
        T = int(gen.integers(2, 6))
        M = int(gen.integers(1, T // 2 + 1))
        N = int(gen.integers(T, T + 3))
        s2 = np.sort(gen.uniform(0.1, 9.0, size=T))[::-1]
        d = np.sort(gen.uniform(0.2, 3.0, size=M))[::-1]
        y = np.zeros((T, N), dtype=complex)
        y[:, :T] = np.diag(np.sqrt(s2))
        v = cond_pdf_y_given_d_log(y, GainDiagonal(d), _dp(T, M, N),
                                   float(gen.uniform(0.0, 30.0)))
        assert np.isfinite(v)


# -------------------------------------------------- conditional output pdf

def test_stiefel_oracle_is_specialized_to_t2():
    with pytest.raises(DomainError, match="specialized to T=2"):
        stiefel_pdf_oracle(np.eye(3, dtype=complex), 1.0, 10.0)


def test_cond_pdf_matches_quadrature():
    gen = RngHandle(31)
    dp = _dp(2, 1, 2)
    for _ in range(6):
        snr_db = float(gen.uniform(5.0, 20.0))
        d = float(gen.uniform(0.5, 1.9))
        y = 0.8 * (gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2)))
        lf = cond_pdf_y_given_d_log(y, GainDiagonal(np.array([d])), dp, snr_db)
        lo = stiefel_pdf_oracle(y, d, snr_db)
        assert abs(math.expm1(lf - lo)) < 1e-9


def test_cond_pdf_unitary_invariance():
    dp = _dp(3, 1, 4)
    gen = RngHandle(33)
    y = gen.standard_normal((3, 4)) + 1j * gen.standard_normal((3, 4))
    u = sample_isotropic_unitary(3, 3, RngHandle(34), count=1)[0]
    dgain = GainDiagonal(np.array([1.2]))
    a = cond_pdf_y_given_d_log(y, dgain, dp, 12.0)
    b = cond_pdf_y_given_d_log(u @ y, dgain, dp, 12.0)
    assert a == pytest.approx(b, abs=1e-8)


def test_cond_pdf_finite_at_high_snr():
    # the row-scaled determinant keeps 80 dB finite where naive exp overflows
    dp = _dp(2, 1, 2)
    y = np.array([[1.1 + 0.3j, -0.2j], [0.4, -0.9 + 0.1j]])
    with np.errstate(over="raise", invalid="raise"):
        v = cond_pdf_y_given_d_log(y, GainDiagonal(np.array([1.4])), dp, 80.0)
    assert np.isfinite(v)


def _mp_cond_pdf_log(s2, d, snr_db, N):
    """ln f(Y | D) from the same determinant formula at 60 digits."""
    with mp.workdps(60):
        T, M = len(s2), len(d)
        rt = mp.mpf(10) ** (mp.mpf(snr_db) / 10) / M
        s2 = [mp.mpf(float(x)) for x in s2]
        g = [rt * mp.mpf(float(x)) ** 2 for x in d]
        lam = [x / (1 + x) for x in g]
        K = mp.matrix(T, T)
        for j in range(T):
            for i in range(M):
                K[i, j] = mp.exp((lam[i] - 1) * s2[j])
            for i in range(M, T):
                K[i, j] = s2[j] ** (T - 1 - i) * mp.exp(-s2[j])
        v = (-N * T * mp.log(mp.pi) + sum(mp.loggamma(i) for i in range(T - M + 1, T + 1))
             - N * sum(mp.log(1 + x) for x in g) + mp.log(mp.det(K))
             + (M - T) * sum(mp.log(x) for x in lam))
        v -= sum(mp.log(s2[i] - s2[j]) for i in range(T) for j in range(i + 1, T))
        v -= sum(mp.log(lam[i] - lam[j]) for i in range(M) for j in range(i + 1, M))
        return float(v)


def _mp_sv_change_log(sv, snr_db, M, N):
    """The finite-SNR spectrum density's terms beyond the matrix value at 60
    digits: the SVD Jacobian at the raw spectrum sv, the singular-vector
    volumes and the leading block's scaling (rho/M)^{M/2}, which snr_db None
    (the high-SNR limit) leaves out."""
    with mp.workdps(60):
        T = len(sv)
        s = [mp.mpf(float(x)) for x in sv]

        def stiefel(n, m):  # |S(n, m)| = 2^m pi^{mn - m(m-1)/2} / prod Gamma(n - k + 1)
            return (m * mp.log(2) + (m * n - m * (m - 1) // 2) * mp.log(mp.pi)
                    - sum(mp.loggamma(n - k + 1) for k in range(1, m + 1)))

        v = ((2 * (N - T) + 1) * sum(mp.log(x) for x in s)
             + 2 * sum(mp.log(s[i] ** 2 - s[j] ** 2) for i in range(T) for j in range(i + 1, T))
             + stiefel(T, T) - T * mp.log(2 * mp.pi) + stiefel(N, T)
             + (0 if snr_db is None
                else mp.mpf(M) / 2 * mp.log(mp.mpf(10) ** (mp.mpf(snr_db) / 10) / M)))
        return float(v)


# the error bound in nats per geometry, 1e-10 unless listed: the paper's
# (10, 5, 100) has five crowded unit-node rows (3e-11 measured)
_MPMATH_BOUND = {(10, 5, 100): 1e-9}


@pytest.mark.parametrize("dims,d", [((2, 1, 2), (1.3,)), ((4, 1, 4), (1.6,)),
                                    ((4, 2, 6), (2.1, 1.3)), ((6, 3, 7), (2.2, 1.6, 0.9)),
                                    ((10, 5, 100), (4.4, 3.3, 2.1, 1.3, 0.8))])
def test_cond_pdf_matches_mpmath_to_160db(dims, d):
    # lambda_i - 1 taken in double precision loses its digits as lambda -> 1;
    # the density must stay accurate, not merely finite, at high SNR.  The
    # finite-SNR spectrum density at the same raw spectrum adds the Jacobian
    # and volumes
    bound = _MPMATH_BOUND.get(dims, 1e-10)
    T, M, N = dims
    dp = _dp(T, M, N)
    dgain = GainDiagonal(np.array(d))
    for snr_db in range(20, 161, 20):
        rng = RngHandle(7)
        phi = sample_isotropic_unitary(T, M, rng, count=1)
        y = simulate_channel(phi * np.array(d), N, float(snr_db), rng)[0]
        sv = np.linalg.svd(y, compute_uv=False)
        want = _mp_cond_pdf_log(sv ** 2, d, snr_db, N)
        got = cond_pdf_y_given_d_log(y, dgain, dp, float(snr_db))
        assert got == pytest.approx(want, abs=bound), snr_db
        # the raw spectrum the density recovers from svn, in its own operations
        scale = math.sqrt(rho_from_db(snr_db) / M)
        svn = sv.copy()
        svn[:M] /= scale
        raw = svn.copy()
        raw[:M] *= scale
        got = cond_sv_pdf_finite_log(svn, dgain, dp, float(snr_db))
        want = _mp_cond_pdf_log(raw ** 2, d, snr_db, N) + _mp_sv_change_log(raw, snr_db, M, N)
        assert got == pytest.approx(want, abs=bound), snr_db


def _mp_rank_one_log(s2, d, snr_db, N):
    """ln f(Y | D) at T = 2, M = 1 from the rank-one closed form at 60 digits:
    pi^{-2N} (1 + g)^{-N} e^{-s2_0 - s2_1} (e^{lam s2_0} - e^{lam s2_1}) /
    (lam (s2_0 - s2_1)), with g = rho d^2 and lam = g / (1 + g)."""
    with mp.workdps(60):
        g = mp.mpf(10) ** (mp.mpf(snr_db) / 10) * mp.mpf(float(d)) ** 2
        lam = g / (1 + g)
        s0, s1 = (mp.mpf(float(x)) for x in s2)
        x = lam * (s0 - s1)
        return float(-2 * N * mp.log(mp.pi) - N * mp.log1p(g) - s0 - s1 + lam * s1
                     + mp.log(mp.expm1(x) / x))


def _subtracted_gap_log(s2, d, snr_db, N):
    """The negative control: the T = 2, M = 1 closed form in double precision
    with nu_1 - nu_0 = 1 - mu formed by subtraction, against the node constant
    whose unit-node factor forms 1 - mu as rho d^2 mu."""
    a, head, lvmu, tail = _ref_nodes(np.array([d]), 2, 1, N, rho_from_db(snr_db))
    mu = -a[0, 0]
    x = (1.0 - mu) * (s2[0] - s2[1])
    return float(head - lvmu - tail - mu * s2[0] - s2[1] + math.log(-math.expm1(-x))
                 - math.log(s2[0] - s2[1]))


# The two-node closed form's bound in nats, stated before the run, from -60 to 160 dB
_TWO_NODE_BOUND = 1e-12


def test_two_node_kernel_matches_mpmath_from_minus_60_to_160db():
    # f(Y | D) and the finite-SNR spectrum density at T = 2 on matched pairs
    # (Y made with D) and cross pairs (Y made with the next gain draw).  The
    # closed form with the subtracted gap misses the bound at -60 dB
    control = []
    for T, M, N in ((2, 1, 2), (2, 1, 3), (2, 1, 8)):
        dp = _dp(T, M, N)
        rng = RngHandle(1000 + N)
        K = 8
        gains = sample_gain(dp, rng, K)
        phi = sample_isotropic_unitary(T, M, rng, count=K) * gains[:, None, :]
        for snr_db in range(-60, 161, 20):
            y = simulate_channel(phi, N, float(snr_db), rng)
            scale = math.sqrt(rho_from_db(snr_db) / M)
            for k in range(K):
                sv = np.linalg.svd(y[k], compute_uv=False)
                svn = sv.copy()
                svn[:M] /= scale
                raw = svn.copy()
                raw[:M] *= scale
                for D in (gains[k], gains[(k + 1) % K]):
                    d = float(D[0])
                    want = _mp_rank_one_log(sv ** 2, d, snr_db, N)
                    got = cond_pdf_y_given_d_log(y[k], D, dp, float(snr_db))
                    assert got == pytest.approx(want, abs=_TWO_NODE_BOUND), (N, snr_db, k)
                    if snr_db == -60:
                        control.append(abs(_subtracted_gap_log(sv ** 2, d, snr_db, N) - want))
                    want = (_mp_rank_one_log(raw ** 2, d, snr_db, N)
                            + _mp_sv_change_log(raw, snr_db, M, N))
                    got = cond_sv_pdf_finite_log(svn, D, dp, float(snr_db))
                    assert got == pytest.approx(want, abs=_TWO_NODE_BOUND), (N, snr_db, k)
    assert max(control) > _TWO_NODE_BOUND


def _mp_limit_two_gains_log(sv, d, N):
    """ln of the high-SNR limit's leading-block spectrum density at M = 2 from
    an 80-digit 2 x 2 determinant over the nodes mu = 1/d^2, plus the 60-digit
    Jacobian and volumes."""
    with mp.workdps(80):
        s0, s1 = (mp.mpf(float(x)) ** 2 for x in sv)
        mu0, mu1 = (1 / mp.mpf(float(x)) ** 2 for x in d)
        det = mp.exp(-mu0 * s0 - mu1 * s1) - mp.exp(-mu0 * s1 - mu1 * s0)
        v = (-2 * N * mp.log(mp.pi) + N * (mp.log(mu0) + mp.log(mu1)) + mp.log(det)
             - mp.log(s0 - s1) - mp.log(mu1 - mu0))
        return float(v) + _mp_sv_change_log(sv, None, 2, N)


def test_limit_leading_block_matches_mpmath_for_near_equal_gains():
    # M = 2, relative gain gaps 1e-1 to 1e-8: mu_1 - mu_0 is formed as
    # (d_0 - d_1)(d_0 + d_1) mu_0 mu_1, not by subtraction.  rmin = M at
    # (4, 2, 2), so the density is the leading block alone
    dp = _dp(4, 2, 2)
    for rel in 10.0 ** -np.arange(1, 9):
        d = np.array([1.3, 1.3 * (1.0 - rel)])
        for svn in ((1.1, 0.6), (2.4, 1.2), (3.5, 0.2), (0.9, 0.85)):
            want = _mp_limit_two_gains_log(svn, d, 2)
            got = cond_sv_pdf_limit_log(np.array(svn), d, dp)
            assert got == pytest.approx(want, abs=_TWO_NODE_BOUND), (rel, svn)


def test_two_node_kernel_whose_exponent_gap_underflows_is_the_confluent_value():
    # at -3233 dB rho d^2 is the smallest subnormal, 5e-324: the node record
    # keeps gap = rho d^2 mu > 0, but x = gap (s2_0 - s2_1) underflows to 0,
    # where h(0) = 1 and not ln 0
    y = np.diag([1.0, 0.8])
    got = cond_pdf_y_given_d_log(y, np.array([1.0]), _dp(2, 1, 2), -3233.0)
    assert got == pytest.approx(_mp_rank_one_log([1.0, 0.64], 1.0, -3233.0, 2),
                                abs=_TWO_NODE_BOUND)
    assert got == pytest.approx(-4 * LOG_PI - 1.64, abs=1e-14)


def test_two_node_kernel_whose_snr_term_underflows_is_the_zero_snr_gaussian():
    # at -3233 dB and d = 0.5, rho d^2 underflows to 0: mu_0 = 1 and gap 0, so
    # f(Y | D) is the zero-SNR Gaussian -2N ln pi - s2_0 - s2_1; a unit-node
    # tail ln(rho d^2 mu) would read ln 0 here, and T = 2 has no such tail
    y = np.diag([1.0, 0.8])
    got = cond_pdf_y_given_d_log(y, np.array([0.5]), _dp(2, 1, 2), -3233.0)
    assert got == pytest.approx(-4 * LOG_PI - 1.64, abs=1e-14)


def test_equal_gains_rejected_for_m_above_one():
    # the equal-gain USTM diagonal is a confluent limit the closed forms exclude
    dp = _dp(4, 2, 4)
    dgain = GainDiagonal(np.full(2, 2.0))
    y = RngHandle(3).standard_normal((4, 4)) + 0j
    svn = np.array([2.0, 1.5, 0.8, 0.3])
    with pytest.raises(DomainError):
        cond_pdf_y_given_d_log(y, dgain, dp, 20.0)
    with pytest.raises(DomainError):
        cond_sv_pdf_finite_log(svn, dgain, dp, 20.0)
    with pytest.raises(DomainError):
        cond_sv_pdf_limit_log(svn, dgain, dp)


def test_cond_pdf_errors():
    dp = _dp(4, 2, 3)  # T > N: no closed form
    y = np.zeros((4, 3), dtype=complex)
    with pytest.raises(DomainError, match="requires T <= N"):
        cond_pdf_y_given_d_log(y, GainDiagonal(np.array([1.5, 1.0])), dp, 10.0)
    dp = _dp(2, 1, 2)
    with pytest.raises(DomainError):
        cond_pdf_y_given_d_log(np.zeros((3, 2), dtype=complex),
                               GainDiagonal(np.array([1.0])), dp, 10.0)
    with pytest.raises(DomainError):
        cond_pdf_y_given_d_log(np.eye(2, 2), GainDiagonal(np.array([1.0, 0.5])),
                               dp, 10.0)


@pytest.mark.parametrize("y", [np.full((2, 2), np.nan), np.array([[np.nan, 1.0], [1.0, 2.0]]),
                               np.full((2, 2), np.inf)])
def test_cond_pdf_rejects_non_finite_output(y):
    # a NaN or an inf is rejected before the SVD: DomainError, not numpy's
    # LinAlgError
    with pytest.raises(DomainError, match="singular values of Y"):
        cond_pdf_y_given_d_log(y, np.array([1.3]), _dp(2, 1, 2), 10.0)


@pytest.mark.parametrize("y,message", [
    # finite, but LAPACK's SVD overflows and returns NaNs without a warning
    (np.full((4, 4), 1.7e308) + 1.7e308j, "the SVD of a finite Y overflowed"),
    # the SVD holds, 4e200, but its square does not
    (np.full((4, 4), 1e200), "squared entries must be finite"),
])
def test_cond_pdf_names_an_overflowing_finite_output(y, message):
    with pytest.raises(DomainError, match=f"^singular values of Y: {message}$"):
        cond_pdf_y_given_d_log(y, np.array([2.0, 1.0]), _dp(4, 2, 4), 10.0)


def test_non_finite_output_leaves_stdout_empty():
    # LAPACK's DLASCL reports a non-finite input on file descriptor 1, and C
    # stdio may flush that only at exit, so the calls run in a child process
    code = """if True:
        import numpy as np
        from ncmimo.outpdf import cond_pdf_y_given_d_log
        from ncmimo.params import ChannelDims, DomainError, derive
        cases = [(np.full((4, 4), np.inf) + 0j, np.array([2.0, 1.0]), (4, 2, 4)),
                 (np.full((2, 2), np.nan), np.array([1.3]), (2, 1, 2)),
                 (np.array([[np.nan, 1.0], [1.0, 2.0]]), np.array([1.3]), (2, 1, 2)),
                 (np.full((2, 2), np.inf), np.array([1.3]), (2, 1, 2))]
        for y, d, (T, M, N) in cases:
            try:
                cond_pdf_y_given_d_log(y, d, derive(ChannelDims(T=T, M=M, N=N)), 10.0)
            except DomainError as exc:
                assert str(exc).startswith("singular values of Y"), exc
            else:
                raise AssertionError("no DomainError")
    """
    root = os.path.dirname(os.path.dirname(outpdf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == ""


@pytest.mark.parametrize("dims,d", [((2, 1, 2), (1e-170,)), ((4, 2, 4), (1.0, 1e-170)),
                                    ((2, 1, 2), (1e-155,)), ((4, 2, 4), (1.0, 1e-155))])
def test_densities_reject_a_gain_whose_square_underflows(dims, d):
    # the spectrum validator keeps a last square that underflows to 0 or is
    # subnormal, but its reciprocal would overflow or lose the determinant's sign
    dp = _dp(*dims)
    d = np.array(d)
    svn = np.linspace(2.0, 0.5, dp.T)
    calls = (
        lambda: cond_pdf_y_given_d_log(np.diag(svn).astype(complex), d, dp, 10.0),
        lambda: cond_sv_pdf_finite_log(svn, d, dp, 10.0),
        lambda: cond_sv_pdf_limit_log(svn, d, dp),
    )
    for call in calls:
        with pytest.raises(DomainError, match="gain diagonal"):
            call()


def test_densities_reject_overflowing_squares():
    dp = _dp(2, 1, 2)
    dgain = GainDiagonal(np.array([1.3]))
    calls = (
        lambda: tail_sv_pdf_log(np.array([np.inf]), dp),
        lambda: first_sv_pdf_log(np.array([np.inf]), dp, 10.0),
        lambda: tail_sv_pdf_log(np.array([1e200, 1.0]), _dp(4, 2, 4)),
        lambda: cond_sv_pdf_limit_log(np.array([1.1, 0.6]), GainDiagonal(np.array([np.inf])), dp),
        lambda: cond_sv_pdf_finite_log(np.array([np.inf, 0.6]), dgain, dp, 10.0),
    )
    for call in calls:
        with pytest.raises(DomainError):
            call()
    # tiny values are in the domain: 2 s e^{-s^2} at s = 1e-170
    assert tail_sv_pdf_log(np.array([1e-170]), dp) == pytest.approx(
        math.log(2.0) - 170 * math.log(10.0), rel=1e-15)


@pytest.mark.parametrize("dims,head", [((2, 1, 2), [1.1]), ((4, 1, 4), [1.1, 0.8, 0.5])])
def test_cond_sv_finite_with_underflowing_trailing_square(dims, head):
    # 1e-170 squares to 0; near 0 the density goes like s^{2(N-T)+1} = s
    dp = _dp(*dims)
    dgain = GainDiagonal(np.array([1.3]))
    tiny = cond_sv_pdf_finite_log(np.array(head + [1e-170]), dgain, dp, 10.0)
    small = cond_sv_pdf_finite_log(np.array(head + [1e-150]), dgain, dp, 10.0)
    assert tiny == pytest.approx(small - 20 * math.log(10.0), abs=1e-9)


def test_two_underflowing_squares_are_confluent():
    # 1e-170 and 1e-171 both square to 0: equal squares, rejected by the
    # validator itself rather than as a NaN gap that passes with a warning
    # (-inf from the Jacobian) or as a later loss of the determinant's sign
    dp = _dp(4, 1, 4)
    calls = (
        lambda: first_sv_pdf_log(np.array([1.0, 1e-170, 1e-171]), _dp(6, 3, 6), 10.0),
        lambda: tail_sv_pdf_log(np.array([1.0, 1e-170, 1e-171]), dp),
        lambda: cond_sv_pdf_finite_log(np.array([1.1, 0.5, 1e-170, 1e-171]),
                                       GainDiagonal(np.array([1.3])), dp, 10.0),
    )
    with np.errstate(all="raise"):
        for call in calls:
            with pytest.raises(ConfluenceError, match="relative gap"):
                call()


_FP_RAISE = dict(over="raise", invalid="raise", divide="raise")


@pytest.mark.parametrize("dims,d,svn", [((2, 1, 2), [1e-154], [2.0, 0.6]),
                                        ((4, 2, 4), [1.0, 1e-154], [3.0, 2.0, 0.6, 0.5])])
def test_limit_raises_where_its_exponent_overflows(dims, d, svn):
    # mu s^2 = (s/d)^2 overflows on the whole row of the smallest gain, whose
    # kernel entries are exact zeros: ConfluenceError, raised before any
    # product overflows, so no floating-point warning is emitted either
    with np.errstate(**_FP_RAISE), pytest.raises(ConfluenceError, match="overflows"):
        cond_sv_pdf_limit_log(np.array(svn), np.array(d), _dp(*dims))


@pytest.mark.parametrize("d,snr_db", [((1e150, 1e-6), 100.0), ((1e-150, 1e-151), -300.0)])
def test_a_density_raises_rather_than_return_a_non_finite_value(d, snr_db):
    # rho d^2 overflows (mu = 0) or underflows (mu = 1): the node constant
    # is not finite, while the determinant keeps its sign
    dp, d = _dp(4, 2, 4), np.array(d)
    svn = np.array([2.0, 1.5, 0.8, 0.3])
    raw = svn * np.where(np.arange(4) < 2, math.sqrt(2.0 / rho_from_db(snr_db)), 1.0)
    with np.errstate(**_FP_RAISE):
        for call in (lambda: cond_pdf_y_given_d_log(np.diag(svn), d, dp, snr_db),
                     lambda: cond_sv_pdf_finite_log(raw, d, dp, snr_db)):
            with pytest.raises(ConfluenceError, match="nodes"):
                call()


def test_nodes_that_round_together_are_confluent():
    # at -170 dB both nodes mu = 1/(1 + rho d^2 / M) round to 1
    y = np.diag([2.0, 1.5, 0.8, 0.3])
    with np.errstate(**_FP_RAISE), pytest.raises(ConfluenceError, match="nodes"):
        cond_pdf_y_given_d_log(y, np.array([2.0, 1.0]), _dp(4, 2, 4), -170.0)


def test_an_underflowing_last_square_is_the_continuous_limit():
    # s = 1e-170 squares to 0; the rows of power 0 read s^0 = 1 there, the
    # others s^p, so each value is the limit of those at small s > 0.  The
    # limit's leading block (T = M) moves only by its Jacobian,
    # s^{2(N-M)+1}: 100 ln 10 from 1e-150 to 1e-170
    dp, d = _dp(4, 2, 4), np.array([1.3, 0.9])
    with np.errstate(**_FP_RAISE):
        tiny = cond_sv_pdf_limit_log(np.array([1.1, 1e-170, 0.5, 0.3]), d, dp)
        small = cond_sv_pdf_limit_log(np.array([1.1, 1e-150, 0.5, 0.3]), d, dp)
    assert small - tiny == pytest.approx(100 * math.log(10.0), rel=1e-13)
    # f(Y | D) at (2, 1, 3): the unit-node row has power 0, and Y's
    # trailing value enters only through s^2 ~ 0
    for s in (1e-170, 1e-150):
        y = np.zeros((2, 3))
        y[0, 0], y[1, 1] = 1.2, s
        with np.errstate(**_FP_RAISE):
            v = cond_pdf_y_given_d_log(y, np.array([1.3]), _dp(2, 1, 3), 10.0)
        assert v == pytest.approx(-16.20714154538045, rel=1e-14)


# -------------------------------------------------------- spectrum factors

def test_first_sv_value_and_gamma_identity():
    dp = _dp(4, 1, 2)
    assert first_sv_pdf_log(np.array([2.5]), dp, 10.0) == pytest.approx(
        FIRST_SV_4_1_2_10DB, abs=1e-12)
    # M = 1: the squared value is Gamma(Q, lambda_bar)
    lam_bar = dp.N * dp.T * rho_from_db(10.0) / (dp.M * dp.Q)
    for a in (0.8, 2.5, 6.0):
        want = math.log(stats.gamma.pdf(a * a, dp.Q, scale=lam_bar) * 2 * a)
        assert first_sv_pdf_log(np.array([a]), dp, 10.0) == pytest.approx(want, rel=1e-10)


def test_first_sv_two_values_normalizes():
    # M = 2 exercises the multivariate constants and the Vandermonde factor
    dp = _dp(10, 2, 5)
    lam_bar = dp.N * dp.T * rho_from_db(0.0) / (dp.M * dp.Q)
    ub = 2.6 * math.sqrt(lam_bar * dp.Q)

    def f(a2, a1):
        if a2 >= a1:
            return 0.0
        try:
            return math.exp(first_sv_pdf_log(np.array([a1, a2]), dp, 0.0))
        except (DomainError, ConfluenceError):
            return 0.0

    mass, _ = integrate.dblquad(f, 0.0, ub, 0.0, lambda a1: a1,
                                epsabs=1e-10, epsrel=1e-8)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_tail_sv_values_and_empty_case():
    dp = _dp(2, 1, 2)
    assert tail_sv_pdf_log(np.array([0.7]), dp) == pytest.approx(TAIL_2_1_2, abs=1e-13)
    dp_empty = _dp(2, 1, 1)   # rmin = M: no tail block
    assert tail_sv_pdf_log(np.array([]), dp_empty) == 0.0
    with pytest.raises(DomainError):
        tail_sv_pdf_log(np.array([0.5]), dp_empty)
    with pytest.raises(DomainError):
        tail_sv_pdf_log(np.array([0.5, 0.2]), dp)  # wrong length


def test_tail_sv_two_values_normalizes():
    dp = _dp(3, 1, 3)  # rmin - M = 2 trailing values

    def f(a2, a1):
        if a2 >= a1:
            return 0.0
        try:
            return math.exp(tail_sv_pdf_log(np.array([a1, a2]), dp))
        except (DomainError, ConfluenceError):
            return 0.0

    mass, _ = integrate.dblquad(f, 0.0, 6.0, 0.0, lambda a1: a1,
                                epsabs=1e-10, epsrel=1e-8)
    assert mass == pytest.approx(1.0, abs=1e-6)


# ------------------------------------------------ conditional spectrum pdf

def test_cond_sv_finite_support_uses_raw_ordering():
    dp = _dp(2, 1, 2)
    dgain = GainDiagonal(np.array([1.3]))
    # normalized leading value below the trailing one is still in-support
    # as long as the raw ordering holds: rho * 0.5^2 > 0.9^2 at 10 dB
    v = cond_sv_pdf_finite_log(np.array([0.5, 0.9]), dgain, dp, 10.0)
    assert np.isfinite(v)
    # genuinely out of support
    with pytest.raises(DomainError):
        cond_sv_pdf_finite_log(np.array([0.1, 0.9]), dgain, dp, 10.0)


def test_cond_sv_finite_consistent_with_matrix_pdf():
    # the spectrum density must equal the matrix density times the SVD
    # Jacobian up to a sigma-independent constant (volumes and SNR scaling)
    dp = _dp(2, 1, 2)
    dgain = GainDiagonal(np.array([1.1]))
    snr_db = 12.0
    rt = rho_from_db(snr_db)
    gen = RngHandle(41)
    consts = []
    for _ in range(10):
        s2 = float(gen.uniform(0.1, 1.2))
        s1 = float(gen.uniform(s2 / math.sqrt(rt) + 0.2, 3.0))
        svn = np.array([s1, s2])
        raw = np.array([math.sqrt(rt) * s1, s2])
        lhs = cond_sv_pdf_finite_log(svn, dgain, dp, snr_db)
        rhs = (cond_pdf_y_given_d_log(np.diag(raw).astype(complex), dgain, dp, snr_db)
               + _jac(raw, dp.rmax))
        consts.append(lhs - rhs)
    assert np.std(consts) < 1e-9


def test_cond_sv_finite_errors():
    dgain = GainDiagonal(np.array([1.5, 1.0]))
    with pytest.raises(DomainError, match="requires T <= N"):
        cond_sv_pdf_finite_log(np.array([2.0, 1.0, 0.5, 0.2]), dgain, _dp(4, 2, 3), 10.0)
    dp = _dp(4, 2, 5)
    with pytest.raises(DomainError):
        cond_sv_pdf_finite_log(np.array([0.5, 1.2, 0.6, 0.4]), dgain, dp, 10.0)
    with pytest.raises(DomainError):
        cond_sv_pdf_finite_log(np.array([2.0, 1.0, 0.5]), dgain, dp, 10.0)


def test_cond_sv_limit_errors():
    with pytest.raises(DomainError, match="must have 2 entries, got 3"):
        cond_sv_pdf_limit_log(np.array([1.1, 0.6, 0.2]), np.array([1.3]), _dp(2, 1, 2))


def test_cond_sv_limit_value_and_factorization():
    dp = _dp(2, 1, 2)
    dgain = GainDiagonal(np.array([1.3]))
    svn = np.array([1.1, 0.6])
    assert cond_sv_pdf_limit_log(svn, dgain, dp) == pytest.approx(
        LIMIT_2_1_2, abs=1e-12)
    # M = 1 head factor: 2 s^{2N-1} e^{-s^2/d^2} / (d^{2N} Gamma(N))
    head = (cond_sv_pdf_limit_log(svn, dgain, dp)
            - tail_sv_pdf_log(svn[1:], dp))
    d = 1.3
    want = math.log(2 * 1.1 ** 3 * math.exp(-(1.1 / d) ** 2) / (d ** 4 * math.gamma(2)))
    assert head == pytest.approx(want, abs=1e-12)
    # the high-SNR law keeps no cross-block ordering constraint
    v = cond_sv_pdf_limit_log(np.array([0.5, 0.9]), dgain, dp)
    assert np.isfinite(v)


def test_cond_sv_limit_leading_block_normalizes_two_antennas():
    # M = 2: the leading-block law of sv(D H) integrates to 1 over h1 > h2 > 0
    dp = _dp(4, 2, 6)
    dgain = GainDiagonal(np.array([2.1, 1.3]))
    tail = np.array([0.9, 0.4])
    tail_log = tail_sv_pdf_log(tail, dp)

    def head(h2, h1):
        svn = np.array([h1, h2, *tail])
        return math.exp(cond_sv_pdf_limit_log(svn, dgain, dp) - tail_log)

    mass, _ = integrate.dblquad(head, 0.0, 20.0, 0.0, lambda h1: h1,
                                epsabs=1e-10, epsrel=1e-8)
    assert mass == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("dims", [(3, 1, 2), (4, 1, 2)])
def test_cond_sv_limit_normalizes_for_long_blocks(dims):
    # T > N: the limit is a density of the rmin = N normalized values
    dp = _dp(*dims)
    dgain = np.array([1.3])

    def f(s2, s1):
        return math.exp(cond_sv_pdf_limit_log(np.array([s1, s2]), dgain, dp))

    mass, _ = integrate.dblquad(f, 0.0, 12.0, 0.0, 12.0, epsabs=1e-10, epsrel=1e-9)
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_conditional_densities_take_a_plain_gain_vector():
    # a plain vector and the validated GainDiagonal give the same bits
    dp = _dp(4, 2, 6)
    d = np.array([2.1, 1.3])
    svn = np.array([2.4, 1.2, 0.9, 0.4])
    y = simulate_channel(np.eye(4, 2)[None] * d, 6, 20.0, RngHandle(5))[0]
    for density in (lambda D: cond_pdf_y_given_d_log(y, D, dp, 20.0),
                    lambda D: cond_sv_pdf_finite_log(svn, D, dp, 20.0),
                    lambda D: cond_sv_pdf_limit_log(svn, D, dp)):
        assert density(d) == density(GainDiagonal(d))


# ------------------------------------------------------ the node-record cache

def _conditional_densities(y, svn, dp, snr_db):
    return (lambda D: cond_pdf_y_given_d_log(y, D, dp, snr_db),
            lambda D: cond_sv_pdf_finite_log(svn, D, dp, snr_db),
            lambda D: cond_sv_pdf_limit_log(svn, D, dp))


def _bits(density, D):
    # the value's bits, or the raise's type and message
    try:
        return float(density(D)).hex()
    except ValueError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("dims", [(2, 1, 2), (4, 2, 4), (6, 3, 7)])
def test_node_cache_hit_equals_a_fresh_evaluation(dims):
    # matched pairs (Y made with D) and cross pairs (Y made with another
    # draw): a value read through a cached node record has the bits of the
    # same value after cache_clear
    T, M, N = dims
    dp = _dp(T, M, N)
    rng = RngHandle(11)
    gains = sample_gain(dp, rng, 6)
    y = simulate_channel(sample_isotropic_unitary(T, M, rng, count=6) * gains[:, None, :],
                         N, 30.0, rng)
    cases = []
    for snr_db in (0.0, 30.0, 120.0):
        rt = rho_from_db(snr_db) / M
        for k in range(6):
            sv = np.linalg.svd(y[k], compute_uv=False)
            svn = sv * np.where(np.arange(T) < M, 1.0 / math.sqrt(rt), 1.0)
            for D in (gains[k], gains[(k + 1) % 6]):
                cases += [(f, D) for f in _conditional_densities(y[k], svn, dp, snr_db)]
    outpdf._nodes.cache_clear()
    first = [_bits(f, D) for f, D in cases]
    assert outpdf._nodes.cache_info().hits > 0
    hits = [_bits(f, D) for f, D in cases]
    outpdf._nodes.cache_clear()
    assert hits == first == [_bits(f, D) for f, D in cases]
    assert any(isinstance(b, str) for b in first)


def test_node_cache_sees_a_gain_mutated_in_place():
    dp = _dp(4, 2, 6)
    y = simulate_channel(np.eye(4, 2)[None] * np.array([2.1, 1.3]), 6, 20.0, RngHandle(5))[0]
    svn = np.array([2.4, 1.2, 0.9, 0.4])
    for density in _conditional_densities(y, svn, dp, 20.0):
        d = np.array([2.1, 1.3])
        old = density(d)
        d[0] = 2.5
        assert density(d) == density(np.array([2.5, 1.3])) != old


def test_node_cache_keys_on_values_not_containers():
    # every container and dtype of one value gives the same bits, and every
    # lookup after the first of that value hits
    dp = _dp(4, 2, 6)
    y = simulate_channel(np.eye(4, 2)[None] * np.array([2.1, 1.3]), 6, 20.0, RngHandle(5))[0]
    svn = np.array([2.4, 1.2, 0.9, 0.4])
    same_values = (
        ([2.1, 1.3], (2.1, 1.3), np.array([2.1, 1.3]), GainDiagonal([2.1, 1.3]),
         np.array([2.1, 1.3], dtype=object)),
        ([2.0, 1.0], np.array([2, 1], dtype=np.int64), np.array([2.0, 1.0], dtype=np.float32)))
    for density in _conditional_densities(y, svn, dp, 20.0):
        for gains in same_values:
            got = set()
            for k, D in enumerate(gains):
                hits = outpdf._nodes.cache_info().hits
                got.add(_bits(density, D))
                assert k == 0 or outpdf._nodes.cache_info().hits == hits + 1
            assert len(got) == 1


def test_node_cache_never_keeps_an_invalid_gain():
    dp = _dp(4, 2, 4)
    y = np.diag([2.0, 1.5, 0.8, 0.3]).astype(complex)
    svn = np.array([2.0, 1.5, 0.8, 0.3])
    # checked before the lookup: an invalid gain is neither a hit nor a miss
    info = outpdf._nodes.cache_info()
    for D in (np.full(2, 2.0), np.array([1.0, np.nan]), np.array([1.0, 1e-170])):
        for density in _conditional_densities(y, svn, dp, 20.0):
            for _ in range(3):
                with pytest.raises(DomainError, match="gain diagonal"):
                    density(D)
    assert outpdf._nodes.cache_info() == info


def test_node_cache_hits_held_gains_and_stays_bounded():
    # gains held across Ys (density-mi's fixed gain per case) hit on every
    # call after the first; past the bound the least recently used go
    rt = rho_from_db(20.0) / 2
    gains = [np.array([2.0 + 1e-4 * k, 1.0]) for k in range(outpdf._NODE_CACHE + 100)]
    held = 200
    assert held < outpdf._NODE_CACHE
    outpdf._nodes.cache_clear()
    for _ in range(2):
        for d in gains[:held]:
            outpdf._nodes(outpdf._gain(d, 2), 4, 2, 4, rt)
    info = outpdf._nodes.cache_info()
    assert (info.hits, info.misses) == (held, held)
    for d in gains:
        outpdf._nodes(outpdf._gain(d, 2), 4, 2, 4, rt)
    info = outpdf._nodes.cache_info()
    assert info.currsize == info.maxsize == outpdf._NODE_CACHE
    arrays = [x for x in outpdf._nodes(outpdf._gain(gains[-1], 2), 4, 2, 4, rt)
              if isinstance(x, np.ndarray)]
    assert arrays
    for x in arrays:
        with pytest.raises(ValueError, match="read-only"):
            x[0] = -0.5


# ------------------------------------- reference Y side (numpy, row-scaled)
# The density core as it was before the coefficient-column record: the Y
# side in numpy with an explicit power-rows branch, the log-Vandermonde by
# fancy indexing and the node side as (-mu, head, ln Delta(-mu), tail).  The
# densities must give the same outcome as these on the seeded corpus below.

def _ref_log_vandermonde(x):
    i, j = np.triu_indices(x.size, k=1)
    return float(np.log(x[i] - x[j]).sum())


def _ref_nodes(d, T, M, N, rt):
    d2 = np.square(d)
    if rt is None:
        mu, tail = 1.0 / d2, 0.0
    else:
        mu = 1.0 / (1.0 + rt * d2)
        tail = (T - M) * float(np.log(rt * d2 * mu).sum())
    head = -N * T * LOG_PI + log_gamma_range(T - M + 1, T) + N * np.log(mu).sum()
    return -mu[:, None], head, _ref_log_vandermonde(-mu), tail


def _ref_scaled_logdet(logmag):
    c = logmag.max(axis=1)
    c[c == -np.inf] = 0.0  # a row of zeros stays zero
    sign, ld = np.linalg.slogdet(np.exp(logmag - c[:, None]))
    if sign <= 0:
        raise ConfluenceError("determinant lost its sign")
    return float(ld + c.sum())


def _ref_y_log(s2, lv, nodes):
    nmu, head, lvmu, tail = nodes
    T, M = s2.size, nmu.size
    logmag = np.empty((T, T))
    logmag[:M] = nmu * s2
    if T > M:
        powers = T - np.arange(M + 1, T + 1, dtype=float)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            logmag[M:] = powers * np.log(s2)
        if s2[-1] == 0:
            logmag[-1, -1] = 0.0  # the power-0 row: 0 ln 0 = 0
        logmag[M:] -= s2
    return float(head + _ref_scaled_logdet(logmag) - lv - lvmu) - tail


def _ref_sv_log(matrix_log, sv, n, lv):
    jacobian = float((2 * (n - sv.size) + 1) * np.log(sv).sum() + 2.0 * lv)
    return float(matrix_log + jacobian + outpdf._spectrum_volumes(sv.size, n))


def _ref_cond_pdf(y, D, dp, snr_db):
    d = np.array(outpdf._gain(D, dp.M))
    sv = check_decreasing(np.linalg.svd(y, compute_uv=False), dp.T, "singular values of Y")
    s2 = sv * sv
    return _ref_y_log(s2, _ref_log_vandermonde(s2),
                      _ref_nodes(d, dp.T, dp.M, dp.N, rho_from_db(snr_db) / dp.M))


def _ref_finite(svn, D, dp, snr_db):
    d = np.array(outpdf._gain(D, dp.M))
    rt = rho_from_db(snr_db) / dp.M
    raw = np.array(svn, dtype=float)
    raw[:dp.M] *= np.sqrt(rt)
    raw = check_decreasing(raw, dp.T, "raw spectrum")
    s2 = raw * raw
    lv = _ref_log_vandermonde(s2)
    matrix_log = _ref_y_log(s2, lv, _ref_nodes(d, dp.T, dp.M, dp.N, rt)) + 0.5 * dp.M * np.log(rt)
    return _ref_sv_log(matrix_log, raw, dp.N, lv)


def _ref_limit(svn, D, dp):
    M = dp.M
    head = check_decreasing(svn[:M], M, "svn leading block")
    d = np.array(outpdf._gain(D, M))
    s2 = head * head
    lv = _ref_log_vandermonde(s2)
    head_log = _ref_sv_log(_ref_y_log(s2, lv, _ref_nodes(d, M, M, dp.N, None)), head, dp.N, lv)
    tail = check_decreasing(svn[M:], dp.rmin - M, "tail")
    if tail.size:
        t2 = tail * tail
        n = dp.rmax - M
        head_log += _ref_sv_log(-tail.size * n * (LOG_PI + np.log(1.0)) - t2.sum() / 1.0, tail,
                                n, _ref_log_vandermonde(t2))
    return float(head_log)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc)


@pytest.mark.parametrize("dims", [(2, 1, 2), (3, 1, 4), (4, 1, 4), (4, 2, 4), (6, 3, 7),
                                  (10, 5, 100)])
def test_densities_match_the_reference_y_side(dims):
    # a seeded corpus of matched pairs (Y made with D) and cross pairs (Y
    # made with the next draw) from 0 to 160 dB: the same outcome, a value
    # within 1e-11 max(1, |v|) or the same exception type, and every value
    # a finite Python float
    T, M, N = dims
    dp = _dp(T, M, N)
    rng = RngHandle(2024 + T + M)
    K = 12
    gains = sample_gain(dp, rng, K)
    phi = sample_isotropic_unitary(T, M, rng, count=K) * gains[:, None, :]
    for snr_db in range(0, 161, 20):
        y = simulate_channel(phi, N, float(snr_db), rng)
        rt = rho_from_db(snr_db) / M
        svn = np.linalg.svd(y, compute_uv=False) * np.where(np.arange(T) < M,
                                                            1.0 / math.sqrt(rt), 1.0)
        for k in range(K):
            for D in (gains[k], gains[(k + 1) % K]):
                for f, ref, args in (
                        (cond_pdf_y_given_d_log, _ref_cond_pdf, (y[k], D, dp, snr_db)),
                        (cond_sv_pdf_finite_log, _ref_finite, (svn[k], D, dp, snr_db)),
                        (cond_sv_pdf_limit_log, _ref_limit, (svn[k], D, dp))):
                    got, want = _outcome(f, *args), _outcome(ref, *args)
                    if isinstance(want, type):
                        assert got is want, (f.__name__, snr_db, k)
                    else:
                        assert type(got) is float and math.isfinite(got)
                        assert abs(got - want) <= 1e-11 * max(1.0, abs(want)), (
                            f.__name__, snr_db, k, got, want)


def test_an_invalid_snr_raises_after_the_gain_and_y_checks():
    # f(Y | D) checks Y's shape, the gain, Y's singular values, then the
    # SNR; the finite-SNR spectrum density the gain, then the SNR, then the
    # spectrum; the limit the spectrum's size and leading block, then the
    # gain, then the trailing block
    dp = _dp(4, 2, 4)
    y = np.diag([2.0, 1.5, 0.8, 0.3]).astype(complex)
    svn = np.array([2.0, 1.5, 0.8, 0.3])
    bad_gain, gain = np.full(2, 2.0), np.array([2.0, 1.0])
    with pytest.raises(DomainError, match="normalized spectrum must have 4 entries"):
        cond_sv_pdf_limit_log(-svn[:3], bad_gain, dp)
    with pytest.raises(DomainError, match="svn leading block"):
        cond_sv_pdf_limit_log(-svn, bad_gain, dp)
    with pytest.raises(DomainError, match="gain diagonal"):
        cond_sv_pdf_limit_log(svn * [1, 1, 1, -1], bad_gain, dp)
    for snr_db in (math.nan, 4000.0, "10", True):
        with pytest.raises(DomainError, match="Y must be T x N"):
            cond_pdf_y_given_d_log(np.full((4, 3), np.nan), bad_gain, dp, snr_db)
        with pytest.raises(DomainError, match="gain diagonal"):
            cond_pdf_y_given_d_log(np.full((4, 4), np.nan), bad_gain, dp, snr_db)
        with pytest.raises(DomainError, match="singular values of Y"):
            cond_pdf_y_given_d_log(np.full((4, 4), np.nan), gain, dp, snr_db)
        with pytest.raises(DomainError, match="snr_db"):
            cond_pdf_y_given_d_log(y, gain, dp, snr_db)
        with pytest.raises(DomainError, match="gain diagonal"):
            cond_sv_pdf_finite_log(-svn, bad_gain, dp, snr_db)
        with pytest.raises(DomainError, match="snr_db"):
            cond_sv_pdf_finite_log(-svn, gain, dp, snr_db)
    # at -3233 dB rho is the smallest subnormal and rho/2 rounds to 0: the
    # SNR step rejects it before the spectrum is scaled by 0
    for leading in (2.0, math.inf):
        svn = [leading, 1.0, 0.5, 0.25]
        with pytest.raises(DomainError, match="gain diagonal"):
            cond_sv_pdf_finite_log(svn, bad_gain, dp, -3233)
        with pytest.raises(DomainError, match="^snr_db must give a positive rho/M, got -3233"):
            cond_sv_pdf_finite_log(svn, [1.5, 0.5], dp, -3233)


def test_every_density_returns_a_python_float():
    dp = _dp(4, 2, 6)
    dgain = GainDiagonal(np.array([2.1, 1.3]))
    svn = np.array([2.4, 1.2, 0.9, 0.4])
    y = simulate_channel(np.eye(4, 2)[None] * np.array([2.1, 1.3]), 6, 20.0, RngHandle(5))[0]
    values = (
        cond_pdf_y_given_d_log(y, dgain, dp, 20.0),
        cond_sv_pdf_finite_log(svn, dgain, dp, 20.0),
        cond_sv_pdf_limit_log(svn, dgain, dp),
        first_sv_pdf_log(svn[:2], dp, 20.0),
        tail_sv_pdf_log(svn[2:], dp),
        tail_sv_pdf_log(np.array([]), _dp(2, 1, 1)),
        _jac(svn, 6),
    )
    for v in values:
        assert type(v) is float and math.isfinite(v)


def test_cond_sv_finite_approaches_limit():
    dp = _dp(2, 1, 2)
    dgain = GainDiagonal(np.array([1.3]))
    svn = np.array([1.1, 0.6])
    lim = cond_sv_pdf_limit_log(svn, dgain, dp)
    gaps = [abs(cond_sv_pdf_finite_log(svn, dgain, dp, s) - lim)
            for s in (40.0, 50.0, 60.0)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-2


def test_cond_sv_finite_approaches_limit_two_antennas():
    # M = 2: the gap to the high-SNR law is O(1/rho), 100x smaller per 20 dB
    dp = _dp(4, 2, 6)
    dgain = GainDiagonal(np.array([2.1, 1.3]))
    svn = np.array([2.4, 1.2, 0.9, 0.4])
    lim = cond_sv_pdf_limit_log(svn, dgain, dp)
    gaps = [abs(cond_sv_pdf_finite_log(svn, dgain, dp, s) - lim)
            for s in (40.0, 60.0, 80.0, 100.0)]
    for g1, g2 in zip(gaps, gaps[1:]):
        assert g1 / g2 == pytest.approx(100.0, rel=0.1)


def test_cond_sv_finite_matches_simulated_spectrum():
    # histogram-level agreement between the closed form and the channel
    dp = _dp(2, 1, 2)
    d = 1.3
    snr_db = 10.0
    rt = rho_from_db(snr_db)
    dgain = GainDiagonal(np.array([d]))
    n = 120_000
    r_phi, r_ch = RngHandle(17).spawn(2)
    phi = sample_isotropic_unitary(2, 1, r_phi, count=n)
    y = simulate_channel(phi * d, 2, snr_db, r_ch)
    sv = np.linalg.svd(y, compute_uv=False)
    svn1 = sv[:, 0] / math.sqrt(rt)
    svn2 = sv[:, 1]

    def joint(s1, s2):
        try:
            return math.exp(cond_sv_pdf_finite_log(np.array([s1, s2]), dgain,
                                                   dp, snr_db))
        except (DomainError, ConfluenceError):
            return 0.0

    # leading-value marginal CDF on a grid
    grid = np.linspace(1e-3, 4.5, 160)
    pdf1 = [integrate.quad(lambda t: joint(s, t), 0.0, math.sqrt(rt) * s,
                           limit=100)[0] for s in grid]
    cdf1 = integrate.cumulative_trapezoid(pdf1, grid, initial=0.0)
    emp1 = np.searchsorted(np.sort(svn1), grid) / n
    assert np.max(np.abs(cdf1 - emp1)) < 0.03

    # trailing-value marginal CDF
    grid2 = np.linspace(1e-3, 3.2, 120)
    pdf2 = [integrate.quad(lambda s: joint(s, t), t / math.sqrt(rt), 8.0,
                           limit=100)[0] for t in grid2]
    cdf2 = integrate.cumulative_trapezoid(pdf2, grid2, initial=0.0)
    emp2 = np.searchsorted(np.sort(svn2), grid2) / n
    assert np.max(np.abs(cdf2 - emp2)) < 0.03


# ------------------------------------------------------- mutual information

# USTM I/T at (2, 1, 2) in nats, from ROADMAP item 18's deterministic
# quadrature (a tensor Gauss-Legendre rule over the spectrum of Y Y^H)
_USTM_MI_2_1_2 = {20.0: 2.36065159, 40.0: 4.66313596}


def _ustm_mi_z(seed, snr_db, d2, n=4000):
    """z of the information-density estimate of USTM's I/T at (2, 1, 2)
    against item 18's value, with f(Y) = f(Y | D = sqrt(d2)).  USTM's gain
    is the fixed sqrt(T), so at d2 = T the estimate has no bias:
    I/T = mean(ln f(Y | X) - ln f(Y | D))/T with the Gaussian
    ln f(Y | X) = -NT ln pi - N ln(1 + rho T) - |Y|^2 + rho T/(1 + rho T) |phi^H Y|^2."""
    T, N = 2, 2
    dp = _dp(T, 1, N)
    rng = RngHandle(seed)
    x = sample_input(dp, rng, count=n, ustm=True)
    y = simulate_channel(x, N, snr_db, rng)
    rho = rho_from_db(snr_db)
    proj = np.einsum("kt,ktn->kn", x[:, :, 0].conj() / math.sqrt(T), y)
    ln_given_x = (-N * T * LOG_PI - N * math.log1p(rho * T)
                  - np.sum(np.abs(y) ** 2, axis=(1, 2))
                  + rho * T / (1 + rho * T) * np.sum(np.abs(proj) ** 2, axis=1))
    ln_out = np.array([cond_pdf_y_given_d_log(yk, [math.sqrt(d2)], dp, snr_db) for yk in y])
    density = (ln_given_x - ln_out) / T
    return (density.mean() - _USTM_MI_2_1_2[snr_db]) / (density.std(ddof=1) / math.sqrt(n))


@pytest.mark.parametrize("snr_db", [20.0, 40.0])
@pytest.mark.parametrize("seed", [0, 1])
def test_ustm_mutual_information_matches_the_exact_value(seed, snr_db):
    # f(Y | D) joined to mutual information: within 4 SE of the exact value,
    # and a wrong output law (d^2 = 2T in place of T) is off by at least 4
    assert abs(_ustm_mi_z(seed, snr_db, 2.0)) < 4.0
    assert _ustm_mi_z(seed, snr_db, 4.0) >= 4.0
    if snr_db == 40.0:
        # item 18 puts I/T within 1.6e-8 of the USTM expansion here
        assert capacity_approx(_dp(2, 1, 2), snr_db, USTM) == pytest.approx(
            _USTM_MI_2_1_2[snr_db], abs=3e-8)
