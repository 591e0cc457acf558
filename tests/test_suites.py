"""Negative controls: each suite must reject a known-wrong sampler or density.

The wrong sampler or density replaces the module global the suite looks
up, so the suite code under test is the code `validate` runs.
"""

import inspect
import math

import numpy as np
import pytest

from ncmimo import bstm, cli, randmat, statcheck, suites
from ncmimo.params import DomainError
from ncmimo.suites import SUITES


def test_every_suite_has_the_registry_signature():
    for fn in SUITES.values():
        params = inspect.signature(fn).parameters.values()
        assert [(p.name, p.default) for p in params] == [("n", None), ("seed", 0)]


@pytest.mark.parametrize("name", ["lemma4", "lemma5"])
def test_ks_suites_pass_at_default_seed(name):
    # seed 0's smallest lemma5 p-value, 0.0031, fails a per-index 0.01 gate
    # but passes the family's Holm level 0.01/9
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


def test_power_rejects_two_percent_gain(monkeypatch):
    # the patched draws are the unpatched ones times 1.02, so with s the
    # unpatched statistic |r - 1| the patched one is |1.0404 r - 1| exactly
    def loud(dp, rng, count=None, ustm=False):
        return 1.02 * bstm.sample_input(dp, rng, count=count, ustm=ustm)

    plain = SUITES["power"](n=10_000)
    monkeypatch.setattr(suites, "sample_input", loud)
    reports = SUITES["power"](n=10_000)
    assert len(reports) == 3
    assert not any(r.passed for r in reports)
    for r, p in zip(reports, plain):
        want = [abs(1.02 ** 2 * (1.0 + sign * p.statistic) - 1.0) for sign in (1, -1)]
        assert min(abs(r.statistic - w) for w in want) < 1e-12


def test_density_normalization_rejects_mass_one_plus_1e_6(monkeypatch):
    # each normalized density scaled by 1 + 1e-6: every row's mass is off by 1e-6
    for name in ("beta_eig_pdf_log", "first_sv_pdf_log", "tail_sv_pdf_log",
                 "cond_sv_pdf_finite_log"):
        def scaled(*args, _log=getattr(suites, name)):
            return _log(*args) + math.log1p(1e-6)
        monkeypatch.setattr(suites, name, scaled)
    reports = SUITES["density-normalization"]()
    assert len(reports) == 6
    assert not any(r.passed for r in reports)


def test_density_normalization_gates_the_error_estimate(monkeypatch):
    from scipy import integrate
    for name in ("quad", "dblquad"):
        monkeypatch.setattr(integrate, name, lambda *a, **k: (1.0, 1e-6))
    reports = SUITES["density-normalization"]()
    assert len(reports) == 6
    assert all(r.statistic == 1e-6 for r in reports)
    assert not any(r.passed for r in reports)


def test_a_raising_integrand_fails_validate_with_exit_2(monkeypatch, capsys):
    def rejects(*args):
        raise DomainError("rejected node")

    # a 2-D row: dblquad's nested quad must pass the raise through
    monkeypatch.setattr(suites, "cond_sv_pdf_finite_log", rejects)
    assert cli.main(["validate", "--suite", "density-normalization"]) == 2
    assert "rejected node" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["density-normalization", "pdf-oracle"])
def test_quadrature_suites_pass_without_warnings(name):
    assert all(r.passed for r in SUITES[name]())
