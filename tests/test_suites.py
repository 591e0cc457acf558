"""Negative controls: each suite must reject a known-wrong sampler or density.

The wrong sampler or density replaces the module global the suite looks
up, so the suite code under test is the code `validate` runs.
"""

import inspect
import math
import re

import numpy as np
import pytest

from ncmimo import bstm, cli, randmat, statcheck
from ncmimo.params import DomainError
from ncmimo.statcheck import SUITES


def test_every_suite_has_the_registry_signature():
    for fn in SUITES.values():
        params = inspect.signature(fn).parameters.values()
        assert [(p.name, p.default) for p in params] == [("n", None), ("seed", 0)]


@pytest.mark.parametrize("n", [2.5, True, "3", 0])
@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_n_follows_the_integer_rule(name, n):
    # a sized suite's n is a positive integer; a fixed-size suite takes none
    if name in ("density-normalization", "convergence"):
        message = f"this suite has a fixed size and takes no n, got n={n}"
    else:
        message = f"n must be a positive integer, got n={n!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        SUITES[name](n=n)


@pytest.mark.parametrize("name", ["lemma4", "lemma5", "unitary"])
def test_ks_suites_pass_at_default_seed(name):
    # at the default n; seed 0's smallest lemma5 p-value, 0.0031, fails a
    # per-index 0.01 gate but passes the family's Holm level 0.01/9
    reports = SUITES[name]()
    assert all(r.passed for r in reports)
    assert all(r.threshold < statcheck.P_THRESHOLD for r in reports)


def test_lemma4_rejects_swapped_beta(monkeypatch):
    # I - C is Beta_m(n, p) where defined: p and n swapped
    def swapped(m, p, n, rng, count=None):
        return np.eye(m) - randmat.sample_matrix_beta(m, p, n, rng, count=count)

    monkeypatch.setattr(statcheck, "sample_matrix_beta", swapped)
    reports = SUITES["lemma4"]()
    assert len(reports) == 7
    assert not any(r.passed for r in reports)


def test_lemma5_rejects_ustm_gain(monkeypatch):
    # the equal-gain diagonal sqrt(T)*1 in place of the BSTM gain
    def ustm_sv(dp, rng, count=None):
        h = randmat.sample_gaussian(dp.M, dp.N, 1.0, rng, count=count)
        return np.linalg.svd(np.sqrt(dp.T) * h, compute_uv=False)

    monkeypatch.setattr(statcheck, "noiseless_sv_sample", ustm_sv)
    # (8, 2, 4) has T >= M + N, where the USTM gain is the right one
    reports = [r for r in SUITES["lemma5"]() if "T=8 M=2 N=4" not in r.name]
    assert len(reports) == 7
    assert not any(r.passed for r in reports)


def test_lemma5_rejects_swapped_jacobi_gain(monkeypatch, swapped_jacobi):
    # the gain's bidiagonal with c' and s' swapped: every (10, 5, 100) index
    # fails; the (4, 2, 3) gain has k = 1 free eigenvalue and so no c', its
    # rows draw the right law and pass, as do the USTM (8, 2, 4) rows
    sample_gain = bstm.sample_gain
    monkeypatch.setattr(bstm, "sample_gain",
                        lambda dp, rng, count: sample_gain(dp, swapped_jacobi(rng), count))
    reports = SUITES["lemma5"]()
    assert [r.passed for r in reports] == [True] * 2 + [False] * 5 + [True] * 2
    assert all(r.p_value == 0.0 for r in reports if "N=100" in r.name)


def test_unitary_rejects_qr_without_the_phase_fix(monkeypatch):
    # plain QR leaves Re Phi_11 < 0, so every phase row fails; the modulus
    # is the same with or without the fix, so those rows cannot tell
    def plain_qr(T, M, rng, count):
        return np.linalg.qr(randmat.sample_gaussian(T, M, 1.0, rng, count))[0]

    monkeypatch.setattr(statcheck, "sample_isotropic_unitary", plain_qr)
    reports = SUITES["unitary"]()
    assert len(reports) == 6
    assert not any(r.passed for r in reports if "arg" in r.name)
    assert all(r.passed for r in reports if "|phi11|" in r.name)


def test_power_rejects_two_percent_gain(monkeypatch):
    # the patched draws are the unpatched ones times 1.02, so with s the
    # unpatched statistic |r - 1| the patched one is |1.0404 r - 1| exactly
    def loud(dp, rng, count=None, ustm=False):
        return 1.02 * bstm.sample_input(dp, rng, count=count, ustm=ustm)

    plain = SUITES["power"](n=10_000)
    monkeypatch.setattr(statcheck, "sample_input", loud)
    reports = SUITES["power"](n=10_000)
    assert len(reports) == 3
    assert not any(r.passed for r in reports)
    for r, p in zip(reports, plain):
        want = [abs(1.02 ** 2 * (1.0 + sign * p.statistic) - 1.0) for sign in (1, -1)]
        assert min(abs(r.statistic - w) for w in want) < 1e-12


def test_power_rejects_half_percent_power_at_default_n(monkeypatch):
    # gains scaled by sqrt(1.005): the mean power is off by 0.5%, about 8 to
    # 9 standard errors at n = 10^5, and the constant USTM gain of (8, 2, 4)
    # is off by far more than the round-off allowance
    def loud(dp, rng, count, ustm=False, _gain=bstm.sample_gain):
        return math.sqrt(1.005) * _gain(dp, rng, count, ustm)

    monkeypatch.setattr(bstm, "sample_gain", loud)
    reports = SUITES["power"]()
    assert len(reports) == 3
    assert not any(r.passed for r in reports)


@pytest.mark.parametrize("seed", range(4))
def test_power_gate_holds_at_small_n(seed):
    # the threshold scales with the standard error, so a small n passes
    reports = SUITES["power"](n=300, seed=seed)
    assert all(r.passed for r in reports)
    assert all(r.threshold > statcheck.POWER_ROUNDOFF for r in reports)


def test_power_needs_two_draws():
    # one draw has no sample standard deviation
    with pytest.raises(DomainError, match=r"^n must be an integer >= 2, got n=1$"):
        SUITES["power"](n=1)


def test_pdf_oracle_rejects_nan_density(monkeypatch):
    # a NaN error must fail the row, not be dropped by the running maximum
    monkeypatch.setattr(statcheck, "cond_pdf_y_given_d_log", lambda *args: math.nan)
    reports = SUITES["pdf-oracle"]()
    assert len(reports) == 1
    assert math.isnan(reports[0].statistic)
    assert not reports[0].passed


def test_density_normalization_rejects_mass_one_plus_1e_6(monkeypatch):
    # each normalized density scaled by 1 + 1e-6: every row's mass is off by 1e-6
    for name in ("beta_eig_pdf_log", "first_sv_pdf_log", "tail_sv_pdf_log",
                 "cond_sv_pdf_finite_log"):
        def scaled(*args, _log=getattr(statcheck, name)):
            return _log(*args) + math.log1p(1e-6)
        monkeypatch.setattr(statcheck, name, scaled)
    reports = SUITES["density-normalization"]()
    assert len(reports) == 6
    assert not any(r.passed for r in reports)


def test_density_normalization_gates_the_error_estimate(monkeypatch):
    monkeypatch.setattr(statcheck, "_integrate", lambda *args: (1.0, 1e-6))
    reports = SUITES["density-normalization"]()
    assert len(reports) == 6
    assert all(r.statistic == 1e-6 for r in reports)
    assert not any(r.passed for r in reports)


def test_a_raising_integrand_fails_validate_with_exit_2(monkeypatch, capsys):
    def rejects(*args):
        raise DomainError("rejected node")

    # a 2-D row: the nested rule must pass the raise through
    monkeypatch.setattr(statcheck, "cond_sv_pdf_finite_log", rejects)
    assert cli.main(["validate", "--suite", "density-normalization"]) == 2
    assert "rejected node" in capsys.readouterr().err


@pytest.mark.parametrize("name, n, seed", [("density-normalization", None, 0),
                                           ("pdf-oracle", None, 0), ("pdf-oracle", 200, 1)],
                         ids=["density-normalization", "pdf-oracle", "pdf-oracle-n200-seed1"])
def test_quadrature_suites_pass_without_warnings(name, n, seed):
    # pdf-oracle's 200 cases at a second seed are the most quadrature checks
    # of f(Y | D), which at T = 2 is the two-node closed form
    assert all(r.passed for r in SUITES[name](n=n, seed=seed))
