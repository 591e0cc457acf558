"""Capacity constants, samplers, and output densities for noncoherent
Rayleigh block-fading MIMO channels in the high-SNR regime."""

from .params import (
    ChannelDims,
    ConfluenceError,
    DerivedParams,
    DomainError,
    derive,
    rho_from_db,
)
from .capacity import (
    BSTM,
    USTM,
    CapacityBreakdown,
    asymptotic_gain_constant,
    bstm_constant,
    capacity_approx,
    constant_gap,
    gain_limit_sequence,
    gain_ratio,
    ustm_constant,
)
from .randmat import (
    RNG_ALGORITHM,
    RngHandle,
    beta_eig_pdf_log,
    sample_gaussian,
    sample_isotropic_unitary,
    sample_matrix_beta,
    sample_wishart,
)
from .bstm import (
    GainDiagonal,
    noiseless_sv_sample,
    sample_gain,
    sample_input,
    simulate_channel,
)
from .outpdf import (
    cond_pdf_y_given_d_log,
    cond_sv_pdf_finite_log,
    cond_sv_pdf_limit_log,
    first_sv_pdf_log,
    tail_sv_pdf_log,
)
from .statcheck import TestReport, ks_two_sample
from .suites import SUITES

__version__ = "0.1.0"

__all__ = [
    "BSTM",
    "USTM",
    "CapacityBreakdown",
    "ChannelDims",
    "ConfluenceError",
    "DerivedParams",
    "DomainError",
    "GainDiagonal",
    "RNG_ALGORITHM",
    "RngHandle",
    "SUITES",
    "TestReport",
    "asymptotic_gain_constant",
    "beta_eig_pdf_log",
    "bstm_constant",
    "capacity_approx",
    "cond_pdf_y_given_d_log",
    "cond_sv_pdf_finite_log",
    "cond_sv_pdf_limit_log",
    "constant_gap",
    "derive",
    "first_sv_pdf_log",
    "gain_limit_sequence",
    "gain_ratio",
    "ks_two_sample",
    "noiseless_sv_sample",
    "rho_from_db",
    "sample_gain",
    "sample_gaussian",
    "sample_input",
    "sample_isotropic_unitary",
    "sample_matrix_beta",
    "sample_wishart",
    "simulate_channel",
    "tail_sv_pdf_log",
    "ustm_constant",
]
