import dataclasses
import math
import re
from functools import lru_cache

import numpy as np
import pytest

from ncmimo import randmat, statcheck
from ncmimo.bstm import (
    GainDiagonal,
    noiseless_sv_sample,
    sample_gain,
    sample_input,
    simulate_channel,
)
from ncmimo.capacity import asymptotic_gain_constant
from ncmimo.params import ChannelDims, DomainError, derive
from ncmimo.randmat import (
    RngHandle,
    beta_eig_pdf_log,
    sample_bartlett_factor,
    sample_gaussian,
    sample_isotropic_unitary,
    sample_matrix_beta,
    sample_wishart,
)


def _dp(T, M, N):
    return derive(ChannelDims(T=T, M=M, N=N))


# every public function that takes a count or a dimension: its valid integer
# arguments, and a call taking them by keyword after a Generator; (4, 2, 3)
# is large-MIMO, so the gain draws
CALLS = {
    "gaussian": ({"count": 2, "m": 2, "n": 3},
                 lambda rng, count, m, n: sample_gaussian(m, n, 1.0, rng, count)),
    "bartlett": ({"count": 2, "m": 3, "n": 2},
                 lambda rng, count, m, n: sample_bartlett_factor(m, n, 1.0, rng, count)),
    "wishart": ({"count": 2, "m": 2, "n": 3},
                lambda rng, count, m, n: sample_wishart(m, n, 1.0, rng, count)),
    "beta": ({"count": 2, "m": 2, "p": 3, "n": 2},
             lambda rng, count, m, p, n: sample_matrix_beta(m, p, n, rng, count)),
    "unitary": ({"count": 2, "T": 4, "M": 2},
                lambda rng, count, T, M: sample_isotropic_unitary(T, M, rng, count)),
    "gain": ({"count": 2}, lambda rng, count: sample_gain(_dp(4, 2, 3), rng, count)),
    "gain-ustm": ({"count": 2},
                  lambda rng, count: sample_gain(_dp(4, 2, 3), rng, count, ustm=True)),
    "input": ({"count": 2}, lambda rng, count: sample_input(_dp(4, 2, 3), rng, count)),
    "noiseless-sv": ({"count": 2},
                     lambda rng, count: noiseless_sv_sample(_dp(4, 2, 3), rng, count)),
    "derive": ({"T": 4, "M": 2, "N": 3}, lambda rng, T, M, N: _dp(T, M, N)),
    "beta-pdf": ({"m": 2, "p": 3, "n": 1},
                 lambda rng, m, p, n: beta_eig_pdf_log(m, p, n, np.array([0.4]))),
    "channel": ({"N": 3}, lambda rng, N: simulate_channel(np.eye(4, 2)[None], N, 10.0, rng)),
    "gain-limit": ({"T": 4, "M": 2}, lambda rng, T, M: asymptotic_gain_constant(T, M)),
}

# lower bounds other than a count's 0 and a dimension's 1: p >= m, T >= M
LOWS = {("beta", "p"): 2, ("beta-pdf", "p"): 2, ("unitary", "T"): 2}


def _bad_arguments():
    # one below the bound, then the non-integers; a count's ids are its value
    for kind, (args, _) in CALLS.items():
        for arg in args:
            low = 0 if arg == "count" else LOWS.get((kind, arg), 1)
            for bad in (low - 1, 2.5, 2.0, True, np.bool_(True), "3", None):
                value = bad if isinstance(bad, str) else repr(bad)
                yield pytest.param(kind, arg, low, bad, id=(
                    f"{kind}-{value}" if arg == "count" else f"{kind}-{arg}={value}"))


@pytest.mark.parametrize("kind, arg, low, bad", _bad_arguments())
def test_bad_count_is_domain_error_before_any_draw(kind, arg, low, bad):
    # counts and dimensions follow one rule, checked before the first draw
    args, call = CALLS[kind]
    rng = RngHandle(4)
    state = rng.bit_generator.state
    words = {0: "a non-negative integer", 1: "a positive integer"}.get(low, f"an integer >= {low}")
    message = f"{arg} must be {words}, got {arg}={bad!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(rng, **{**args, arg: bad})
    assert rng.bit_generator.state == state


def _typed(x):
    # x's bits and types: an np.int64 field differs from an int one
    if isinstance(x, np.ndarray):
        return x.dtype, x.shape, x.tobytes()
    if dataclasses.is_dataclass(x):
        return [(type(v), v) for v in dataclasses.astuple(x)]
    return type(x), x


@pytest.mark.parametrize("kind", sorted(CALLS))
def test_numpy_integer_count_draws_like_int(kind):
    # numpy integer counts and dimensions give what Python ints do, bit for bit
    args, call = CALLS[kind]
    want = _typed(call(RngHandle(4), **args))
    for np_int in (np.int64, np.uint8):
        assert _typed(call(RngHandle(4), **{k: np_int(v) for k, v in args.items()})) == want


def test_gain_diagonal_validation():
    g = GainDiagonal(np.array([2.0, 1.0]))
    assert g.size == 2
    with pytest.raises(DomainError):
        GainDiagonal(np.array([1.0, 2.0]))  # increasing
    with pytest.raises(DomainError):
        GainDiagonal(np.array([[1.0], [0.5]]))  # not a vector
    with pytest.raises(DomainError):
        GainDiagonal(np.array([1.0, -0.5]))  # negative
    with pytest.raises(DomainError):
        GainDiagonal(np.array([np.nan, np.nan]))  # neither nonnegative nor ordered
    with pytest.raises(DomainError):
        GainDiagonal(np.array([np.inf, 1.0]))  # not finite


def test_gain_diagonal_is_a_read_only_copy():
    # neither the caller's array nor the returned vector can break the
    # validated invariant
    a = np.array([2.0, 1.0])
    g = GainDiagonal(a)
    a[0] = -5.0
    assert g.tolist() == [2.0, 1.0]
    with pytest.raises(ValueError, match="read-only"):
        g[1] = 7.0


def test_gain_is_constant_for_long_blocks():
    # T >= M+N: the optimal diagonal degenerates to sqrt(T) exactly
    dp = _dp(8, 2, 4)
    g = sample_gain(dp, RngHandle(0), count=1)
    assert g.shape == (1, 2)
    assert np.array_equal(g, np.full((1, 2), math.sqrt(8.0)))
    batch = sample_gain(dp, RngHandle(0), count=3)
    assert batch.shape == (3, 2)
    assert np.all(batch == math.sqrt(8.0))


def test_gain_forced_ustm_flag():
    dp = _dp(4, 2, 3)  # short block, random gain by default
    g = sample_gain(dp, RngHandle(0), count=3, ustm=True)
    assert np.array_equal(g, np.full((3, 2), 2.0))


def test_gain_random_in_short_blocks():
    dp = _dp(4, 2, 3)
    d = sample_gain(dp, RngHandle(0), count=4_000)
    assert d.shape == (4_000, 2)
    bound = math.sqrt(4 * 3 / dp.Q)  # sqrt(T N / Q)
    assert d.min() > 0
    assert d.max() <= bound + 1e-12
    assert np.all(np.diff(d, axis=-1) <= 0)
    # draws are genuinely random here
    assert np.std(d[:, 1]) > 1e-3


# The gain draw against the matrix Beta it replaces, stated before the run:
# JACOBI_DRAWS draws per geometry, gain and reference from independent children
# of RngHandle(JACOBI_SEED).  The geometries cover M = 1 (2, 1, 2), a = T - 2M = 0
# (4, 2, 3), (6, 3, 7), (10, 5, 100), and the singular Beta, N < T, (4, 2, 3),
# (7, 3, 6), (8, 2, 7).
JACOBI_DIMS = ((2, 1, 2), (4, 2, 3), (6, 3, 7), (7, 3, 6), (8, 2, 7), (10, 5, 100))
JACOBI_DRAWS, JACOBI_SEED = 200_000, 0


def _jacobi_streams():
    return RngHandle(JACOBI_SEED).spawn(2 * len(JACOBI_DIMS))


@lru_cache(maxsize=None)
def _matrix_beta_eigs(i: int) -> np.ndarray:
    # descending eigenvalues of Beta_M(T - M, M + N - T), drawn in chunks
    T, M, N = JACOBI_DIMS[i]
    rng = _jacobi_streams()[2 * i + 1]
    return np.concatenate([
        np.linalg.eigvalsh(sample_matrix_beta(M, T - M, M + N - T, rng, 10_000))[:, ::-1]
        for _ in range(JACOBI_DRAWS // 10_000)])


def _gain_vs_matrix_beta(wrap=lambda rng: rng) -> list:
    """The normalized squared gains d^2 Q / (T N) against the matrix Beta's
    eigenvalues, one KS row per free index, gated as one Holm family."""
    reports = []
    for i, ((T, M, N), rng) in enumerate(zip(JACOBI_DIMS, _jacobi_streams()[::2])):
        dp = _dp(T, M, N)
        k = min(M, M + N - T)  # the singular Beta's leading M - k eigenvalues are 1
        d = sample_gain(dp, wrap(rng), JACOBI_DRAWS)
        assert np.all(d[:, :M - k] == math.sqrt(T * N / dp.Q))
        reports += statcheck.ks_columns(
            d[:, M - k:] ** 2 * dp.Q / (T * N), _matrix_beta_eigs(i)[:, M - k:],
            [f"gain T={T} M={M} N={N} eig{j + 1}" for j in range(M - k, M)])
    return statcheck.holm(reports)


def test_gain_matches_the_matrix_beta_eigenvalues():
    reports = _gain_vs_matrix_beta()
    assert len(reports) == 13
    assert all(r.passed for r in reports)


def test_gain_comparison_rejects_swapped_c_and_s(swapped_jacobi):
    # every geometry with k >= 2 fails; at k = 1 there is no c' to swap
    reports = _gain_vs_matrix_beta(swapped_jacobi)
    failed = {r.name.split(" eig")[0] for r in reports if not r.passed}
    assert failed == {"gain T=6 M=3 N=7", "gain T=7 M=3 N=6", "gain T=10 M=5 N=100"}


# stated before the run: no unclipped eigenvalue lies more than ROUNDOFF_EPS
# machine epsilons outside [0, 1], over 2 x 10^5 draws at each geometry
ROUNDOFF_EPS = 4


def test_gain_clip_removes_round_off_only(monkeypatch):
    eigs, eigvalsh = [], np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        eigs.append(eigvalsh(a, *args, **kwargs))
        return eigs[-1]

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    bound = ROUNDOFF_EPS * np.finfo(float).eps
    for dims in JACOBI_DIMS + ((4, 2, 5), (20, 10, 15)):
        eigs.clear()
        sample_gain(_dp(*dims), RngHandle(3), 200_000)
        lam = np.concatenate([e.ravel() for e in eigs])
        assert lam.size == 200_000 * min(dims[1], dims[1] + dims[2] - dims[0])
        assert -bound <= lam.min() and lam.max() <= 1.0 + bound, dims


@pytest.mark.parametrize("dims", [(10, 5, 100), (4, 2, 3)])
def test_gain_bits_do_not_depend_on_the_chunk_budget(monkeypatch, dims):
    # only rng.beta draws inside the gain loop, so chunks leave the stream as it is
    dp, count = _dp(*dims), 400
    whole = sample_gain(dp, RngHandle(5), count)
    calls, eigvalsh = [], np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    monkeypatch.setattr(randmat, "CHUNK_ENTRIES", 50)
    chunked = sample_gain(dp, RngHandle(5), count)
    assert len(calls) >= 3 and sum(calls) == count
    assert whole.tobytes() == chunked.tobytes()


def test_count_zero_gives_empty_stacks():
    dp = _dp(4, 2, 3)  # large-MIMO: the gain comes from Beta draws
    assert sample_gain(dp, RngHandle(0), count=0).shape == (0, 2)
    assert sample_input(dp, RngHandle(0), count=0).shape == (0, 4, 2)
    assert noiseless_sv_sample(dp, RngHandle(0), count=0).shape == (0, 2)


def test_samplers_take_any_numpy_generator():
    # RngHandle(7) is numpy's default PCG64 Generator at seed 7
    dp = _dp(4, 2, 3)
    x = sample_input(dp, np.random.default_rng(7), count=5)
    assert np.array_equal(x, sample_input(dp, RngHandle(7), count=5))
    y = simulate_channel(x, 3, 20.0, np.random.default_rng(7))
    assert np.array_equal(y, simulate_channel(x, 3, 20.0, RngHandle(7)))


def test_gain_power_budget():
    # E[sum d_i^2] = T M in every regime
    for (T, M, N) in ((4, 2, 3), (2, 1, 2), (10, 5, 100)):
        dp = _dp(T, M, N)
        d = sample_gain(dp, RngHandle(1), count=30_000)
        got = float(np.mean(np.sum(d * d, axis=-1)))
        assert got == pytest.approx(T * M, rel=0.02)


def test_input_gram_matrix_is_squared_gain():
    # X = Phi D so X^H X = D^2
    dp = _dp(6, 2, 5)
    rng = RngHandle(3)
    x = sample_input(dp, rng, count=200)
    gram = np.conj(np.swapaxes(x, -1, -2)) @ x
    diag = np.diagonal(gram, axis1=-2, axis2=-1).real
    off = gram - diag[..., None] * np.eye(2)
    assert np.max(np.abs(off)) < 1e-10
    assert np.all(np.diff(diag, axis=-1) <= 1e-12)


def test_input_ustm_has_constant_column_norm():
    dp = _dp(4, 2, 3)
    x = sample_input(dp, RngHandle(5), count=50, ustm=True)
    norms = np.linalg.norm(x, axis=-2)
    assert np.allclose(norms, math.sqrt(4.0), atol=1e-12)


def test_simulate_channel_shapes():
    dp = _dp(4, 2, 3)
    rng = RngHandle(9)
    x = sample_input(dp, rng, count=7)
    assert simulate_channel(x, 3, 10.0, rng).shape == (7, 4, 3)
    assert simulate_channel(x[:0], 3, 10.0, rng).shape == (0, 4, 3)
    state = rng.bit_generator.state
    for bad in (x[0], x[0, 0], x[None]):  # one block, one row, a 4-D stack
        with pytest.raises(DomainError, match="stack"):
            simulate_channel(bad, 3, 10.0, rng)
    with pytest.raises(DomainError):
        simulate_channel(np.zeros((1, 4, 0)), 3, 10.0, rng)  # no transmit antenna
    with pytest.raises(DomainError, match="N must be a positive integer, got N=0"):
        simulate_channel(x, 0, 10.0, rng)  # no receive antenna
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), 4000.0])
def test_simulate_channel_checks_snr_before_drawing(snr_db):
    # a rejected SNR must leave the caller's stream where it was
    x = np.eye(4, 2)[None]
    rng = RngHandle(13)
    with pytest.raises(DomainError):
        simulate_channel(x, 3, snr_db, rng)
    assert rng.standard_normal() == RngHandle(13).standard_normal()


def test_simulate_channel_snr_scaling():
    # with X fixed, E||Y||_F^2 = (rho/M) ||X||_F^2 N / ... checked via moments:
    # E tr Y^H Y = (rho/M) N tr(X^H X)/T? no: H has iid CN(0,1), so
    # E tr Y Y^H = (rho/M) * N * tr(X X^H) + T N
    dp = _dp(4, 2, 3)
    rng = RngHandle(21)
    x = sample_input(dp, rng, count=1)
    power_x = float(np.sum(np.abs(x) ** 2))
    y = simulate_channel(np.broadcast_to(x, (40_000,) + x.shape[1:]), 3, 10.0, RngHandle(22))
    got = float(np.mean(np.sum(np.abs(y) ** 2, axis=(-2, -1))))
    rho = 10.0
    want = rho / 2 * 3 * power_x + 4 * 3
    assert got == pytest.approx(want, rel=0.02)


def test_noiseless_sv_shapes_and_order():
    dp = _dp(8, 2, 4)
    sv = noiseless_sv_sample(dp, RngHandle(2), count=500)
    assert sv.shape == (500, 2)
    assert sv.min() > 0
    assert np.all(np.diff(sv, axis=-1) <= 0)


def test_determinism_across_pipeline():
    dp = _dp(4, 2, 3)
    a = sample_input(dp, RngHandle(77), count=10)
    b = sample_input(dp, RngHandle(77), count=10)
    assert np.array_equal(a, b)
