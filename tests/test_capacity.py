import math

import pytest

from ncmimo.capacity import (
    BSTM,
    USTM,
    asymptotic_gain_constant,
    bstm_constant,
    capacity_approx,
    constant_gap,
    gain_limit_sequence,
    gain_ratio,
    ustm_constant,
)
from ncmimo.params import ChannelDims, DomainError, derive, rho_from_db

# Reference values computed independently at 50-digit precision.
C_STAR_2_1_1 = -0.44203424217079378
C_STAR_2_1_1_TERMS = (0.0, 0.34657359027997265, 0.0, -0.78860783245076643)
CAP_2_1_1_10DB = 0.70925830432622907
C_STAR_10_5_100 = 10.030347325365768
C_STAR_10_5_100_TERMS = (-178.17942886012647, 1.7328679513998633,
                         7.4893306838849775, 178.9875775502074)
C_USTM_10_5_100 = 6.9187094070553997
GAIN_10_5_100_30DB = 0.12864335051013238
GAIN_100_50_100_30DB = 0.027178889348835761
C_MT_1_2 = -0.20946926660233637
C_MT_2_4 = -0.65261644716228168
GAIN_LIMIT_GAPS_4_2 = (4.1876740338652836e-3, 4.1687517240158672e-4,
                       4.1668750172240141e-5)


def _dp(T, M, N):
    return derive(ChannelDims(T=T, M=M, N=N))


def test_bstm_constant_minimal_dims():
    br = bstm_constant(_dp(2, 1, 1))
    assert br.constant == pytest.approx(C_STAR_2_1_1, abs=1e-13)
    assert br.prelog == pytest.approx(0.5, abs=0)
    names = tuple(n for n, _ in br.terms)
    assert names == ("gamma_ratio", "log_t_over_m", "log_n_over_q", "logdet")
    for (_, got), want in zip(br.terms, C_STAR_2_1_1_TERMS):
        assert got == pytest.approx(want, abs=1e-13)
    # closed form at these dims: (ln 2 - gamma - 1)/2
    assert br.constant == pytest.approx(
        (math.log(2.0) - 0.5772156649015329 - 1.0) / 2.0, abs=1e-14)


def test_bstm_constant_large_mimo_dims():
    br = bstm_constant(_dp(10, 5, 100))
    assert br.constant == pytest.approx(C_STAR_10_5_100, rel=1e-12)
    assert br.prelog == pytest.approx(2.5, abs=0)
    for (_, got), want in zip(br.terms, C_STAR_10_5_100_TERMS):
        assert got == pytest.approx(want, rel=1e-12)


def test_ustm_constant_values():
    ur = ustm_constant(_dp(10, 5, 100))
    assert ur.constant == pytest.approx(C_USTM_10_5_100, rel=1e-12)
    assert ur.prelog == pytest.approx(2.5, abs=0)
    assert tuple(n for n, _ in ur.terms) == ("gamma_ratio", "log_t_over_em", "logdet")


def test_constants_coincide_when_block_is_long():
    # T >= M+N collapses the two schemes
    for (T, M, N) in ((8, 2, 4), (2, 1, 1), (12, 3, 6), (10, 2, 8)):
        b = bstm_constant(_dp(T, M, N))
        u = ustm_constant(_dp(T, M, N))
        assert abs(b.constant - u.constant) < 1e-10
        assert gain_ratio(_dp(T, M, N), 30.0) == 0.0


def test_constants_strictly_separated_in_large_mimo():
    for (T, M, N) in ((10, 5, 100), (4, 2, 3), (2, 1, 2), (6, 3, 20)):
        b = bstm_constant(_dp(T, M, N))
        u = ustm_constant(_dp(T, M, N))
        assert b.constant > u.constant


# Every geometry with T <= 40, 1 <= M <= floor(T/2), M <= N <= 60
_GRID = [(T, M, N) for T in range(2, 41) for M in range(1, T // 2 + 1) for N in range(M, 61)]


def test_constant_gap_is_zero_exactly_when_block_is_long():
    # BSTM beats USTM iff T < M+N; for T >= M+N subtracting the two
    # constants leaves round-off of either sign, and the gap must be +0.0
    for (T, M, N) in _GRID:
        dp = _dp(T, M, N)
        gap = constant_gap(dp)
        if dp.large_mimo:
            assert gap > 0, (T, M, N)
        else:
            assert gap == 0.0 and math.copysign(1.0, gap) == 1.0, (T, M, N)


def test_constant_is_the_sum_of_its_terms_bit_for_bit():
    # both schemes: the constant is the sum of the labeled terms in display
    # order and the prelog is M(T - M)/T, to the last bit
    for (T, M, N) in _GRID:
        dp = _dp(T, M, N)
        for br in (bstm_constant(dp), ustm_constant(dp)):
            assert br.constant == sum(v for _, v in br.terms), (T, M, N)
            assert br.prelog == M * (T - M) / T, (T, M, N)


def test_gain_ratio_and_limit_sequence_use_the_constant_gap():
    for (T, M, N) in ((10, 5, 100), (4, 2, 3), (12, 3, 5), (8, 2, 4)):
        dp = _dp(T, M, N)
        cu = ustm_constant(dp)
        denom = cu.prelog * math.log(rho_from_db(30.0)) + cu.constant
        assert gain_ratio(dp, 30.0) == constant_gap(dp) / denom
    # N = 4 keeps T >= M+N at (8, 2): only the ln N shift is left
    assert gain_limit_sequence(8, 2, [4, 100]) == [
        -4 / 16 * math.log(4), constant_gap(_dp(8, 2, 100)) - 4 / 16 * math.log(100)]


def test_prelog_exact_rationals():
    assert bstm_constant(_dp(4, 2, 3)).prelog == 1.0
    assert bstm_constant(_dp(10, 5, 100)).prelog == 2.5
    # M(1 - M/T) for (3, 1): 1 * 2/3
    assert bstm_constant(_dp(3, 1, 2)).prelog == pytest.approx(2.0 / 3.0, abs=1e-16)


def test_capacity_approx_value_and_schemes():
    dp = _dp(2, 1, 1)
    assert capacity_approx(dp, 10.0) == pytest.approx(CAP_2_1_1_10DB, rel=1e-12)
    assert capacity_approx(dp, 10.0, scheme=USTM) == pytest.approx(
        capacity_approx(dp, 10.0, scheme=BSTM), rel=1e-12)
    with pytest.raises(DomainError):
        capacity_approx(dp, 10.0, scheme="qam")


def test_capacity_approx_warns_out_of_range():
    dp = _dp(2, 1, 1)
    with pytest.warns(RuntimeWarning):
        capacity_approx(dp, -10.0)


def test_gain_ratio_values():
    assert gain_ratio(_dp(10, 5, 100), 30.0) == pytest.approx(
        GAIN_10_5_100_30DB, rel=1e-12)
    assert gain_ratio(_dp(100, 50, 100), 30.0) == pytest.approx(
        GAIN_100_50_100_30DB, rel=1e-12)


def test_gain_ratio_undefined_at_low_snr():
    with pytest.raises(DomainError):
        gain_ratio(_dp(2, 1, 1), -40.0)


@pytest.mark.parametrize("snr_db", [4000.0, -4000.0, math.inf, math.nan])
def test_snr_without_finite_linear_value_rejected(snr_db):
    dp = _dp(10, 5, 100)
    with pytest.raises(DomainError, match="snr_db"):
        capacity_approx(dp, snr_db)
    with pytest.raises(DomainError, match="snr_db"):
        gain_ratio(dp, snr_db)


def test_asymptotic_gain_constant_values():
    assert asymptotic_gain_constant(2, 1) == pytest.approx(C_MT_1_2, abs=1e-13)
    assert asymptotic_gain_constant(4, 2) == pytest.approx(C_MT_2_4, abs=1e-13)
    # closed form at (2,1): 1/2 - ln(2 pi e)/4
    assert asymptotic_gain_constant(2, 1) == pytest.approx(
        0.5 - math.log(2 * math.pi * math.e) / 4, abs=1e-14)


def test_asymptotic_gain_constant_domain():
    with pytest.raises(DomainError):
        asymptotic_gain_constant(4, 3)
    with pytest.raises(DomainError):
        asymptotic_gain_constant(2, 0)


def test_gain_limit_sequence_converges():
    seq = gain_limit_sequence(4, 2, [100, 1000, 10000])
    gaps = [abs(v - C_MT_2_4) for v in seq]
    for got, want in zip(gaps, GAIN_LIMIT_GAPS_4_2):
        # the gap is a ~1e-5 difference of O(1e4) log-gamma terms, so
        # float64 cancellation caps the attainable absolute accuracy
        assert got == pytest.approx(want, rel=1e-8, abs=1e-10)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-2
