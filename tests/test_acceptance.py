"""End-to-end acceptance gate.

One test per criterion; each prints a single [PASS]/[FAIL] line on the
real stdout and then asserts.  Tolerances and runtime budgets are pinned
here on purpose: loosening them is a spec change, not a fix.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import digamma, gammaln

from ncmimo import cli, statcheck
from ncmimo.capacity import (
    asymptotic_gain_constant,
    bstm_constant,
    gain_limit_sequence,
    ustm_constant,
)
from ncmimo.params import ChannelDims, derive
from ncmimo.specfun import expected_logdet_wishart

# Seed recorded for the statistical suites.  Any fixed seed is a fresh
# draw of the KS p-values (each suite gates its indices as one Holm
# family at family-wise level 0.01, so under the null a suite false-alarms
# on at most 1% of seeds); this one was recorded once and must reproduce
# bit-for-bit.
KS_SEED = 1


def _verdict(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} ({detail})")
    assert ok, f"criterion {num}: {label}: {detail}"


def _parse_rows(out):
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def test_criterion_1_gain_table_reproduction(capsys):
    t0 = time.perf_counter()
    code = cli.main(["gain-table", "--T-list", "10,100", "--N-list", "100",
                     "--snr-db", "30"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    rows = {(int(r[0]), int(r[1])): float(r[3]) for r in _parse_rows(out)}
    g_small = rows[(10, 100)]
    g_large = rows[(100, 100)]
    ok = (code == 0 and abs(g_small - 0.13) <= 0.015 and g_large < 0.03
          and elapsed < 1.0)
    _verdict(capsys, 1, "rate-gain table at 30 dB", ok,
             f"gain(10,100)={g_small:.4f}, gain(100,100)={g_large:.4f}, "
             f"{elapsed:.2f}s")


def test_criterion_2_regime_identity_sweep(capsys):
    t0 = time.perf_counter()
    n_eq = n_lt = 0
    worst_eq = 0.0
    min_gap = math.inf
    ok = True
    for M in range(1, 6):
        for T in range(2 * M, 2 * M + 9):
            for N in range(M, 2 * T + 1):
                dp = derive(ChannelDims(T=T, M=M, N=N))
                b = bstm_constant(dp).constant
                u = ustm_constant(dp).constant
                if T >= M + N:
                    n_eq += 1
                    worst_eq = max(worst_eq, abs(b - u))
                    ok = ok and abs(b - u) <= 1e-10
                else:
                    n_lt += 1
                    min_gap = min(min_gap, b - u)
                    ok = ok and b > u
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _verdict(capsys, 2, "constants equal iff T >= M+N over the sweep", ok,
             f"{n_eq} equality triples (max |diff| {worst_eq:.2e}), "
             f"{n_lt} strict triples (min gap {min_gap:.2e}), {elapsed:.2f}s")


def test_criterion_3_gain_limit_convergence(capsys):
    t0 = time.perf_counter()
    seq = gain_limit_sequence(4, 2, [100, 1000, 10000])
    c_inf = asymptotic_gain_constant(4, 2)
    gaps = [abs(v - c_inf) for v in seq]
    elapsed = time.perf_counter() - t0
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] < 1e-2 and elapsed < 1.0
    _verdict(capsys, 3, "shifted rate gap converges to its limit constant", ok,
             f"gaps {gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e}, {elapsed:.2f}s")


def test_criterion_4_noiseless_spectrum_identity(capsys):
    t0 = time.perf_counter()
    reports = statcheck.SUITES["lemma5"](n=10_000, seed=KS_SEED)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports) and elapsed < 60.0
    worst = min(r.p_value for r in reports)
    _verdict(capsys, 4, "noiseless output spectrum KS identity", ok,
             f"{len(reports)} indices, min p={worst:.3g}, {elapsed:.1f}s")


def test_criterion_5_beta_whitening_identity(capsys):
    t0 = time.perf_counter()
    reports = statcheck.SUITES["lemma4"](n=10_000, seed=KS_SEED)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports) and elapsed < 60.0
    worst = min(r.p_value for r in reports)
    _verdict(capsys, 5, "matrix-Beta whitening KS identity", ok,
             f"{len(reports)} indices, min p={worst:.3g}, {elapsed:.1f}s")


def test_criterion_6_power_constraint(capsys):
    t0 = time.perf_counter()
    reports = statcheck.SUITES["power"](n=100_000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports) and elapsed < 30.0
    worst = max(r.statistic for r in reports)
    _verdict(capsys, 6, "mean input power equals the budget", ok,
             f"worst relative error {worst:.2e} over {len(reports)} dims, "
             f"{elapsed:.1f}s")


def test_criterion_7_conditional_pdf_oracle(capsys):
    t0 = time.perf_counter()
    reports = statcheck.SUITES["pdf-oracle"](n=20, seed=0)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports) and elapsed < 60.0
    _verdict(capsys, 7, "closed-form conditional pdf vs quadrature", ok,
             f"worst relative error {reports[0].statistic:.2e} over 20 triples, "
             f"{elapsed:.1f}s")


def test_criterion_8_density_normalizations(capsys):
    t0 = time.perf_counter()
    reports = statcheck.SUITES["density-normalization"]()
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports) and elapsed < 120.0
    worst = max(r.statistic / r.threshold for r in reports)
    _verdict(capsys, 8, "densities integrate to one", ok,
             f"{len(reports)} integrals, worst margin {worst:.2e} of tolerance, "
             f"{elapsed:.1f}s")


def test_criterion_9_conditional_density_limit(capsys):
    t0 = time.perf_counter()
    reports = [r for r in statcheck.SUITES["convergence"]()
               if r.name.startswith("finite-vs-limit")]
    elapsed = time.perf_counter() - t0
    ok = len(reports) == 1 and reports[0].passed and elapsed < 5.0
    _verdict(capsys, 9, "finite-SNR spectrum density approaches its limit", ok,
             f"gap at 60 dB {reports[0].statistic:.2e}, monotone over "
             f"40/50/60 dB, {elapsed:.2f}s")


def test_criterion_10_special_function_identities(capsys):
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for k in range(1, 81):
        x = 0.25 * k
        e1 = abs(digamma(x + 1.0) - (digamma(x) + 1.0 / x))
        e2 = abs(gammaln(x + 1.0) - (gammaln(x) + math.log(x)))
        worst = max(worst, e1, e2)
    for M in range(1, 6):
        for N in range(M, 41):
            a = expected_logdet_wishart(M, N)
            b = sum(-np.euler_gamma + sum(1.0 / j for j in range(1, N - i + 1))
                    for i in range(1, M + 1))
            worst = max(worst, abs(a - b))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    _verdict(capsys, 10, "special-function identities", ok,
             f"worst residual {worst:.2e}, {elapsed:.2f}s")
