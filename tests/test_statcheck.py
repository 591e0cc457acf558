import numpy as np
import pytest

from ncmimo.params import DomainError
from ncmimo.statcheck import (
    P_THRESHOLD,
    TestReport as Report,
    ks_two_sample,
    lemma4_suite,
    lemma5_suite,
)


def _named(reports, case):
    return [r for r in reports if case in r.name]


def test_ks_same_distribution_passes():
    gen = np.random.Generator(np.random.PCG64(100))
    a = gen.standard_normal(10_000)
    b = gen.standard_normal(10_000)
    rep = ks_two_sample(a, b, name="null-check", seed=100)
    assert rep.passed
    assert rep.p_value > P_THRESHOLD
    assert rep.name == "null-check"
    assert rep.n_samples == 10_000
    assert rep.seed == 100


def test_ks_different_distribution_fails():
    gen = np.random.Generator(np.random.PCG64(101))
    a = gen.standard_normal(10_000)
    b = gen.standard_normal(10_000) + 0.15
    rep = ks_two_sample(a, b)
    assert not rep.passed
    assert rep.p_value < 1e-6


def test_ks_calibration_false_failure_rate():
    # under the null the failure rate at p > 0.01 stays within its nominal
    # band: expect ~1 failure in 100 repetitions, allow up to 5
    gen = np.random.Generator(np.random.PCG64(2024))
    fails = 0
    for _ in range(100):
        a = gen.standard_normal(2_000)
        b = gen.standard_normal(2_000)
        if not ks_two_sample(a, b).passed:
            fails += 1
    assert fails <= 5


def test_ks_rejects_tiny_samples():
    with pytest.raises(DomainError):
        ks_two_sample(np.array([1.0]), np.array([1.0, 2.0]))


def test_report_is_frozen_dataclass():
    rep = Report(name="x", statistic=0.1, threshold=0.01, p_value=0.5,
                 passed=True, n_samples=10, seed=0)
    with pytest.raises(Exception):
        rep.passed = False
    s = str(rep)
    assert "pass" in s and "x" in s


def test_lemma5_suite_reproducible_and_passing():
    reps1 = lemma5_suite(n=4_000, seed=1)
    reps2 = lemma5_suite(n=4_000, seed=1)
    for r1, r2 in zip(reps1, reps2):
        assert r1.statistic == r2.statistic  # bit-for-bit
        assert r1.p_value == r2.p_value
        assert r1.seed == 1
    reps = _named(reps1, "T=8 M=2 N=4")
    assert len(reps) == 2
    assert all(r.passed for r in reps)


def test_lemma5_suite_covers_all_indices():
    reps = _named(lemma5_suite(n=2_000, seed=1), "T=10 M=5 N=100")
    assert len(reps) == 5
    assert all(f"sv{i+1}" in r.name for i, r in enumerate(reps))


def test_lemma4_suite_reproducible_and_passing():
    reps1 = lemma4_suite(n=4_000, seed=1)
    reps2 = lemma4_suite(n=4_000, seed=1)
    for r1, r2 in zip(reps1, reps2):
        assert r1.statistic == r2.statistic
    reps = _named(reps1, "m=2 p=3 n=2")
    assert len(reps) == 2
    assert all(r.passed for r in reps)


def test_lemma4_singular_case_included():
    # (m, p, n) = (2, 2, 1) exercises the singular-Beta branch
    reps = _named(lemma4_suite(n=4_000, seed=1), "m=2 p=2 n=1")
    assert len(reps) == 2
    assert all(r.passed for r in reps)
