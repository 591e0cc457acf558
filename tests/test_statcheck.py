import math
import warnings
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from scipy import integrate, stats

from ncmimo import statcheck
from ncmimo.params import DomainError
from ncmimo.statcheck import (
    NORMALIZATION_TOL,
    P_THRESHOLD,
    TestReport as Report,
    _converging,
    holm,
    ks_columns,
    ks_two_sample,
    lemma4_suite,
    lemma5_suite,
    report,
)


def _named(reports, case):
    return [r for r in reports if case in r.name]


def test_ks_same_distribution_passes():
    gen = np.random.Generator(np.random.PCG64(100))
    a = gen.standard_normal(10_000)
    b = gen.standard_normal(10_000)
    rep = ks_two_sample(a, b, name="null-check")
    assert rep.passed
    assert rep.p_value > P_THRESHOLD
    assert rep.name == "null-check"
    assert rep.n_samples == 10_000


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
                   passed=p > P_THRESHOLD, n_samples=10)
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


@cache
def _central_binomials(n):
    # C(2n, n - m) for m = 0..n, as exact integers
    row = [math.comb(2 * n, n)]
    for m in range(n):
        row.append(row[-1] * (n - m) // (n + m + 1))
    return row


def _exact_tail(k, n):
    # P(D >= k/n) for two samples of n each, summed exactly and rounded once
    if k <= 0:
        return 1.0
    row = _central_binomials(n)
    total = sum((-1) ** (j + 1) * row[j * k] for j in range(1, n // k + 1))
    return float(Fraction(2 * total, row[0]))


def _assert_tail_matches_oracle(p, k, n):
    exact = _exact_tail(k, n)
    assert 0.0 <= p <= 1.0, (k, n, p)
    if exact > 1e-300:
        assert abs(p - exact) <= 1e-9 * exact, (k, n, p, exact)


# every k at the small sizes; at 10^4, p runs from 1 through the gate
# (k = 233) to below 1e-300 (k = 2,650) and on to d = 1
KS_TAIL_GRID = [*[(n, k) for n in (2, 3, 50, 300) for k in range(n + 1)],
                *[(10_000, k) for k in [*range(0, 2_700, 25), 233, 5_000, 10_000]]]


def test_ks_tail_matches_the_exact_rational_oracle():
    for n in (2, 3, 50, 300, 10_000):
        ks = [k for m, k in KS_TAIL_GRID if m == n]
        for k, p in zip(ks, statcheck._ks_tail(np.array(ks) / n, n)):
            _assert_tail_matches_oracle(p, k, n)
    # k <= 0, including d below 1/(2n), is p = 1 exactly
    assert statcheck._ks_tail(np.array([0.0, 0.4 / 50, -0.1]), 50).tolist() == [1.0] * 3


def test_ks_tail_agrees_with_scipy_exact_where_it_succeeds():
    # the second check: samples 0..n-1 and k..n-1+k have D = k/n exactly.
    # scipy falls back to its asymptotic tail, with a RuntimeWarning, for
    # some large k at n = 300 and 10^4; those k are left to the oracle
    checked = 0
    for n, k in KS_TAIL_GRID:
        a = np.arange(float(n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                res = stats.ks_2samp(a, a + k, method="exact")
            except RuntimeWarning:
                continue
        p = statcheck._ks_tail(np.array([res.statistic]), n)[0]
        if res.pvalue > 1e-300:
            assert abs(p - res.pvalue) <= 1e-9 * res.pvalue, (n, k, p, res.pvalue)
        checked += 1
    assert checked >= len(KS_TAIL_GRID) - 10


def _same_bits(x, y):
    return (np.isnan(x) and np.isnan(y)) or np.float64(x).tobytes() == np.float64(y).tobytes()


def _assert_matches_oracle(a, b):
    # the statistic has the bits of scipy's ks_2samp, the p-value is the exact tail
    rep = ks_two_sample(a, b)
    d = float(stats.ks_2samp(np.ravel(a), np.ravel(b), method="asymp").statistic)
    assert _same_bits(rep.statistic, d), (rep.statistic, d)
    if not np.isnan(d):
        n = np.size(a)
        _assert_tail_matches_oracle(rep.p_value, round(d * n), n)
    return rep


def test_ks_matches_scipy_on_random_pairs():
    # sizes from 2 to 300, shifted alternatives, and one pair in five
    # rounded so that the pooled sample has ties
    gen = np.random.Generator(np.random.PCG64(77))
    for i in range(200):
        n = gen.integers(2, 301)
        a = gen.standard_normal(n)
        b = gen.standard_normal(n) + gen.choice([0.0, 0.1, 0.5, 3.0])
        if i % 5 == 0:
            a, b = np.round(a, 1), np.round(b, 1)
        _assert_matches_oracle(a, b)
        _assert_matches_oracle(b, a)


@pytest.mark.parametrize("a, b, d", [
    (np.ones(5), np.ones(5), 0.0),                                # constant, equal
    (np.round(np.linspace(0, 1, 9), 1), np.round(np.linspace(0.05, 1, 9), 1), None),  # ties
    (np.arange(5.0), np.arange(5.0) + 100, 1.0),                  # disjoint
    (np.arange(5.0) + 100, np.arange(5.0), 1.0),
    (np.array([-np.inf, 0.0, 1.0, np.inf]), np.array([-1.0, 0.5, 2.0, 3.0]), None),
    (np.array([np.inf, np.inf]), np.array([-np.inf, -np.inf]), 1.0),
    (np.array([0.3, 1.7]), np.array([0.5, 2.0]), None),           # n = 2
    (np.array([0.3, 1.7]), np.array([2.5, 3.0]), 1.0),
], ids=["constant", "ties", "disjoint", "disjoint-swapped", "inf", "all-inf", "n2", "n2-disjoint"])
def test_ks_matches_scipy_on_edge_cases(a, b, d):
    rep = _assert_matches_oracle(a, b)
    if d is not None:
        assert rep.statistic == d
    if d == 0.0:
        assert rep.p_value == 1.0


@pytest.mark.parametrize("where", ["a", "b", "both"])
def test_ks_nan_sample_fails_like_scipy(where):
    # a NaN anywhere gives statistic and p-value NaN and a failed row;
    # without the NaN branch, np.sort puts the NaN last and the row passes
    a = np.linspace(0.0, 1.0, 40)
    b = np.linspace(0.01, 1.01, 40)
    if where in ("a", "both"):
        a[7] = np.nan
    if where in ("b", "both"):
        b[0] = np.nan
    rep = _assert_matches_oracle(a, b)
    assert np.isnan(rep.statistic) and np.isnan(rep.p_value)
    assert not rep.passed


def test_ks_ravels_2d_inputs():
    gen = np.random.Generator(np.random.PCG64(78))
    a = gen.standard_normal((6, 5))
    b = gen.standard_normal((5, 6)) + 0.3
    rep = _assert_matches_oracle(a, b)
    assert rep.n_samples == 30


@pytest.mark.parametrize("suite", ["lemma4", "lemma5", "unitary"])
def test_ks_family_takes_one_tail_call_with_per_row_bits(monkeypatch, suite):
    # the one tail call for the family must give every row the bits of a
    # per-row call, and each row's p-value must meet the exact oracle
    columns, tail_calls = [], []

    def recorded(a, b, names, _ks=statcheck.ks_columns):
        columns.append((a, b))
        return _ks(a, b, names)

    def counted(*args, _tail=statcheck._ks_tail):
        tail_calls.append(args)
        return _tail(*args)

    monkeypatch.setattr(statcheck, "ks_columns", recorded)
    monkeypatch.setattr(statcheck, "_ks_tail", counted)
    reports = statcheck.SUITES[suite](n=100, seed=0)
    assert len(columns) == len(tail_calls) == 1
    monkeypatch.undo()
    (a, b), = columns
    (d, n), = tail_calls
    assert a.shape == b.shape == (100, len(reports)) and d.shape == (len(reports),) and n == 100
    for i, rep in enumerate(reports):
        assert _same_bits(rep.p_value, _assert_matches_oracle(a[:, i], b[:, i]).p_value), rep.name


@pytest.mark.parametrize("where", ["a", "b"])
def test_ks_nan_column_fails_only_its_row(where):
    gen = np.random.Generator(np.random.PCG64(79))
    a, b = gen.standard_normal((300, 4)), gen.standard_normal((300, 4))
    names = [f"index{i}" for i in range(4)]
    clean = ks_columns(a, b, names)
    (a if where == "a" else b)[17, 2] = np.nan
    rows = ks_columns(a, b, names)
    assert np.isnan(rows[2].statistic) and np.isnan(rows[2].p_value) and not rows[2].passed
    for rep, ref in zip(rows[:2] + rows[3:], clean[:2] + clean[3:]):
        assert _same_bits(rep.statistic, ref.statistic) and _same_bits(rep.p_value, ref.p_value)
    assert [r.passed for r in holm(rows)] == [True, True, False, True]


def test_ks_rejects_unequal_sizes():
    with pytest.raises(DomainError, match="equal size, got 5 and 6"):
        ks_columns(np.zeros((5, 2)), np.zeros((6, 2)), ["x", "y"])


def test_ks_rejects_tiny_samples():
    with pytest.raises(DomainError, match="at least two observations"):
        ks_two_sample(np.array([1.0]), np.array([2.0]))


def test_report_is_frozen_dataclass():
    rep = Report(name="x", statistic=0.1, threshold=0.01, p_value=0.5,
                 passed=True, n_samples=10)
    with pytest.raises(Exception):
        rep.passed = False


def test_report_verdict_is_a_python_bool_for_numpy_scalars():
    # a numpy-scalar statistic or p-value must not leave np.bool_ in `passed`:
    # the CSV would print True for true and json.dumps would raise
    stat = np.float64(1e-3)
    reports = [report("given", stat, 1e-2, 1, passed=stat < 1e-2),
               report("by p-value", stat, 1e-2, 1, p_value=np.float64(0.5)),
               report("by statistic", stat, 1e-2, 1),
               _converging("converging", [np.float64(0.1), stat])]
    for rep in reports:
        assert type(rep.passed) is bool and rep.passed, rep.name
        assert type(rep.statistic) is float


def test_lemma5_suite_reproducible_and_passing():
    reps1 = lemma5_suite(n=4_000, seed=1)
    reps2 = lemma5_suite(n=4_000, seed=1)
    for r1, r2 in zip(reps1, reps2):
        assert r1.statistic == r2.statistic  # bit-for-bit
        assert r1.p_value == r2.p_value
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


def _integrals(monkeypatch, suite):
    """The (args, (value, estimate)) of every _integrate call the suite makes."""
    calls = []

    def recorded(*args, _rule=statcheck._integrate):
        calls.append((args, _rule(*args)))
        return calls[-1][1]

    monkeypatch.setattr(statcheck, "_integrate", recorded)
    reports = statcheck.SUITES[suite]()
    assert all(r.passed for r in reports)
    return calls


def _scipy(fun, a, b, lo=None, hi=None):
    # the independent oracle: scipy's adaptive rules on the same integrand
    opts = {"epsabs": 1e-14, "epsrel": 1e-13}
    if lo is None:
        return integrate.quad(fun, a, b, limit=200, **opts)[0]
    return integrate.dblquad(fun, a, b, lo, hi, **opts)[0]


def test_integrate_matches_scipy_on_the_normalization_integrands(monkeypatch):
    calls = _integrals(monkeypatch, "density-normalization")
    assert len(calls) == 6
    for args, (value, estimate) in calls:
        assert abs(value - _scipy(*args)) <= 1e-12
        assert estimate <= 1e-11
    # the first-sv and tail-sv rows integrate (0, 60) and (0, 10), not (0, inf)
    cut = [args for args, _ in calls if len(args) == 3 and args[2] > 1.0]
    assert [args[2] for args in cut] == [60.0, 10.0]
    for fun, _, b in cut:
        assert integrate.quad(fun, b, np.inf)[0] < 1e-30


def test_integrate_matches_scipy_on_the_stiefel_integrand(monkeypatch):
    # pdf-oracle's 20 seed-0 cases
    calls = _integrals(monkeypatch, "pdf-oracle")
    assert len(calls) == 20
    for args, (value, _) in calls:
        assert value == pytest.approx(_scipy(*args), rel=1e-12)


def test_integrate_estimate_flags_an_unresolved_bump():
    # a Gaussian of width 1e-2 on (0, 1) falls between the coarse rule's
    # nodes: the fine rule reads a mass near 1, and the doubling estimate
    # alone fails the row
    def bump(width):
        return statcheck._integrate(lambda x: math.exp(-0.5 * ((x - 0.5) / width) ** 2)
                                    / (width * math.sqrt(2 * math.pi)), 0.0, 1.0)

    mass, estimate = bump(1e-2)
    assert abs(mass - 1.0) < 1e-2
    assert estimate > NORMALIZATION_TOL
    assert not report("bump", abs(mass - 1.0) + estimate, NORMALIZATION_TOL, 1).passed
    # the blind spot: both rules step over a bump of width 1e-3, so the
    # estimate equals the near-zero value; only |mass - 1| fails that row
    mass, estimate = bump(1e-3)
    assert mass < 1e-13 and estimate == mass
    assert not report("bump", abs(mass - 1.0) + estimate, NORMALIZATION_TOL, 1).passed

