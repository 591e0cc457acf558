"""High-SNR capacity constants of the noncoherent block-fading channel.

Capacity grows like M(1-M/T) ln(rho) + c + o(1).  This module evaluates
the additive constant c for the optimal Beta-variate space-time input
(BSTM) and for the isotropic unitary input (USTM), the rate-gain ratio
between them, and the large-N behaviour of their gap.  Everything is in
nats; SNR enters in dB and is converted once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .params import ChannelDims, DerivedParams, DomainError, check_int, derive, rho_from_db
from .specfun import expected_logdet_wishart, log_multivariate_gamma

BSTM = "bstm"
USTM = "ustm"


@dataclass(frozen=True)
class CapacityBreakdown:
    """Additive constant of the high-SNR expansion, term by term.

    prelog multiplies ln(rho); constant is the SNR-free additive term and
    always equals the sum of the labeled terms.
    """

    prelog: float
    constant: float
    terms: tuple[tuple[str, float], ...]


def _prelog(T: int, M: int) -> float:
    # M(1 - M/T) as one int/int division, which Python rounds correctly
    return M * (T - M) / T


def bstm_constant(dp: DerivedParams) -> CapacityBreakdown:
    """Additive constant for the optimal (BSTM) input.

    Terms, in display order: the multivariate-gamma ratio
    (1/T) ln[Gamma_M(M) Gamma_M(Q) / (Gamma_M(N) Gamma_M(T))], the
    M(1-M/T) ln(T/M) piece, the (MQ/T) ln(N/Q) piece, and the
    (P/T)(E[ln det HH^H] - M) piece.
    """
    T, M, N = dp.T, dp.M, dp.N
    P, Q = dp.P, dp.Q
    gamma_ratio = (
        log_multivariate_gamma(M, M)
        + log_multivariate_gamma(M, Q)
        - log_multivariate_gamma(M, N)
        - log_multivariate_gamma(M, T)
    ) / T
    log_t_over_m = _prelog(T, M) * math.log(T / M)
    log_n_over_q = M * Q / T * math.log(N / Q)
    logdet_piece = P / T * (expected_logdet_wishart(M, N) - M)
    terms = (
        ("gamma_ratio", gamma_ratio),
        ("log_t_over_m", log_t_over_m),
        ("log_n_over_q", log_n_over_q),
        ("logdet", logdet_piece),
    )
    return CapacityBreakdown(
        prelog=_prelog(T, M),
        constant=sum(v for _, v in terms),
        terms=terms,
    )


def ustm_constant(dp: DerivedParams) -> CapacityBreakdown:
    """Additive constant for the isotropic unitary (USTM) input.

    Terms: (1/T) ln[Gamma_M(M)/Gamma_M(T)], the M(1-M/T) ln(T/(eM))
    piece, and (1-M/T) E[ln det HH^H].  Agrees with bstm_constant to
    round-off when T >= M+N; constant_gap is exactly 0 there.
    """
    T, M, N = dp.T, dp.M, dp.N
    gamma_ratio = (
        log_multivariate_gamma(M, M) - log_multivariate_gamma(M, T)
    ) / T
    log_t_over_em = _prelog(T, M) * (math.log(T / M) - 1.0)
    logdet_piece = (1 - M / T) * expected_logdet_wishart(M, N)
    terms = (
        ("gamma_ratio", gamma_ratio),
        ("log_t_over_em", log_t_over_em),
        ("logdet", logdet_piece),
    )
    return CapacityBreakdown(
        prelog=_prelog(T, M),
        constant=sum(v for _, v in terms),
        terms=terms,
    )


def capacity_approx(dp: DerivedParams, snr_db: float, scheme: str = BSTM) -> float:
    """prelog * ln(rho) + constant, in nats per channel use.

    The o(1) remainder of the expansion is dropped.  The value is
    computed at any SNR; when it comes out nonpositive the expansion is
    outside its useful range and a warning is issued (no error).
    """
    if scheme not in (BSTM, USTM):
        raise DomainError(f"scheme must be '{BSTM}' or '{USTM}', got {scheme!r}")
    br = bstm_constant(dp) if scheme == BSTM else ustm_constant(dp)
    value = br.prelog * math.log(rho_from_db(snr_db)) + br.constant
    if value <= 0:
        warnings.warn(
            f"high-SNR capacity expansion is nonpositive ({value:.3g} nats) at "
            f"{snr_db} dB; the approximation is out of its range here",
            RuntimeWarning,
            stacklevel=2,
        )
    return value


def constant_gap(dp: DerivedParams) -> float:
    """c* - c_U, the constant the optimal input gains over USTM; exactly 0.0
    when T >= M+N, where subtracting the two equal constants leaves round-off."""
    return _gap(dp)


def _gap(dp: DerivedParams, cu: CapacityBreakdown | None = None) -> float:
    # constant_gap, reusing c_U's breakdown when the caller already has it
    if not dp.large_mimo:
        return 0.0
    return bstm_constant(dp).constant - (cu if cu is not None else ustm_constant(dp)).constant


def gain_ratio(dp: DerivedParams, snr_db: float) -> float:
    """Relative rate gain of the optimal input over USTM at the given SNR.

    Returns (C - C_U)/C_U evaluated on the truncated expansions.  Exactly
    zero whenever T >= M+N.
    """
    cu = ustm_constant(dp)
    denom = cu.prelog * math.log(rho_from_db(snr_db)) + cu.constant
    if denom <= 0:
        raise DomainError(
            f"USTM expansion is nonpositive ({denom:.3g} nats) at {snr_db} dB; "
            "the high-SNR approximation is out of range, gain ratio undefined")
    return _gap(dp, cu) / denom


def asymptotic_gain_constant(T: int, M: int) -> float:
    """Limit constant of the rate gap once the (M^2/2T) ln N growth is removed.

    c_{M,T} = (1/T) ln Gamma_M(T-M) + (M(T-M)/T) ln(e/(T-M))
              - (M/2T) [M ln(pi e) + ln 2].
    Requires 1 <= M <= floor(T/2).
    """
    T, M = check_int(T, "T", 1), check_int(M, "M", 1)
    if M > T // 2:
        raise DomainError(f"asymptotic_gain_constant requires M <= floor(T/2): M={M}, T={T}")
    return (
        log_multivariate_gamma(M, T - M) / T
        + M * (T - M) / T * (1.0 - math.log(T - M))
        - M / (2 * T) * (M * (1.0 + math.log(math.pi)) + math.log(2.0))
    )


def gain_limit_sequence(T: int, M: int, N_list: list[int]) -> list[float]:
    """Per N, the rate gap c* - c_U with its (M^2/2T) ln N growth removed.

    The sequence approaches asymptotic_gain_constant(T, M) as N grows.
    """
    out = []
    for N in N_list:
        gap = constant_gap(derive(ChannelDims(T=T, M=M, N=N)))
        out.append(gap - M * M / (2 * T) * math.log(N))
    return out
