"""Negative controls: each suite must reject a known-wrong sampler.

The wrong sampler replaces the module global the suite looks up, so the
suite code under test is the code `validate` runs.
"""

import inspect

import numpy as np
import pytest

from ncmimo import bstm, randmat, statcheck, suites
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


def test_zero_on_error_reads_rejected_inputs_as_zero():
    pdf = suites._zero_on_error(
        lambda a2, a1: randmat.beta_eig_pdf_log(2, 2, 2, np.array([a1, a2])))
    assert pdf(0.2, 0.6) > 0.0
    assert pdf(0.6, 0.2) == 0.0  # increasing: DomainError
    assert pdf(0.5 - 1e-12, 0.5) == 0.0  # confluent: ConfluenceError
