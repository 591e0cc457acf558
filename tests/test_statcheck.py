import numpy as np
import pytest

from ncmimo.params import DomainError
from ncmimo.statcheck import (
    P_THRESHOLD,
    TestReport as Report,
    holm,
    ks_two_sample,
    lemma4_suite,
    lemma5_suite,
    report,
)
from ncmimo.suites import _converging


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


def _p_rows(p_values):
    return [Report(name=f"r{i}", statistic=0.0, threshold=P_THRESHOLD, p_value=p,
                   passed=p > P_THRESHOLD, n_samples=10, seed=0)
            for i, p in enumerate(p_values)]


def test_holm_steps_down_and_stops_at_the_first_pass():
    # levels 0.01/4, 0.01/3, 0.01/2, 0.01 by rank; rank 2 (p = 0.004) is the
    # first to pass, so ranks 3 and 4 pass too, below their own levels
    reps = holm(_p_rows([0.0045, 0.001, 0.009, 0.004]))
    assert [r.passed for r in reps] == [True, False, True, True]
    assert [r.threshold for r in reps] == pytest.approx(
        [P_THRESHOLD / 3, P_THRESHOLD / 4, P_THRESHOLD / 3, P_THRESHOLD / 3])
    reps = holm(_p_rows([1e-5, 2e-3, 1e-4]))
    assert not any(r.passed for r in reps)
    assert [r.threshold for r in reps] == pytest.approx(
        [P_THRESHOLD / 3, P_THRESHOLD, P_THRESHOLD / 2])
    assert [r.p_value for r in reps] == [1e-5, 2e-3, 1e-4]


def test_holm_family_false_alarm_rate():
    # nine-index null families like lemma5's: the family-wise false-alarm
    # rate is at most 0.01, so expect about 2 in 200 families and allow up
    # to 6 (the per-index gate alone trips about 8% of such families)
    gen = np.random.Generator(np.random.PCG64(2024))
    alarms = 0
    for _ in range(200):
        family = [ks_two_sample(gen.standard_normal(500), gen.standard_normal(500))
                  for _ in range(9)]
        alarms += not all(r.passed for r in holm(family))
    assert alarms <= 6


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


def test_report_verdict_is_a_python_bool_for_numpy_scalars():
    # a numpy-scalar statistic or p-value must not leave np.bool_ in `passed`:
    # the CSV would print True for true and json.dumps would raise
    stat = np.float64(1e-3)
    reports = [report("given", stat, 1e-2, 1, 0, passed=stat < 1e-2),
               report("by p-value", stat, 1e-2, 1, 0, p_value=np.float64(0.5)),
               report("by statistic", stat, 1e-2, 1, 0),
               _converging("converging", [np.float64(0.1), stat], 0)]
    for rep in reports:
        assert type(rep.passed) is bool and rep.passed, rep.name
        assert type(rep.statistic) is float


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
