import ast
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

import ncmimo
from ncmimo.params import (
    _MAX_ROOT,
    REL_GAP_TOL,
    ChannelDims,
    ConfluenceError,
    DomainError,
    check_decreasing,
    derive,
    rho_from_db,
)


def test_derived_params_ustm_regime():
    dp = derive(ChannelDims(T=8, M=2, N=4))
    assert (dp.P, dp.Q) == (6, 4)
    assert (dp.rmax, dp.rmin) == (8, 4)
    assert not dp.large_mimo


def test_derived_params_large_mimo():
    dp = derive(ChannelDims(T=10, M=5, N=100))
    assert (dp.P, dp.Q) == (100, 5)
    assert (dp.rmax, dp.rmin) == (100, 10)
    assert dp.large_mimo


def test_derived_params_boundary_t_equals_m_plus_n():
    # T = M + N sits on the equality side, not the large-MIMO side
    dp = derive(ChannelDims(T=4, M=2, N=2))
    assert not dp.large_mimo
    dp = derive(ChannelDims(T=4, M=2, N=3))
    assert dp.large_mimo


def test_single_antenna_minimal_block():
    dp = derive(ChannelDims(T=2, M=1, N=1))
    assert (dp.P, dp.Q, dp.rmax, dp.rmin) == (1, 1, 2, 1)
    assert not dp.large_mimo


@pytest.mark.parametrize("T,M,N", [
    (1, 1, 1),   # block too short
    (4, 3, 4),   # M > floor(T/2)
    (4, 0, 2),   # M must be positive
    (6, 3, 2),   # M > N
    (4, 2, 0),   # N must be positive
])
def test_invalid_dims_rejected(T, M, N):
    with pytest.raises(DomainError):
        derive(ChannelDims(T=T, M=M, N=N))


def test_error_message_names_the_constraint():
    with pytest.raises(DomainError, match=r"floor\(T/2\)"):
        derive(ChannelDims(T=4, M=3, N=4))


def test_dims_are_immutable():
    dp = derive(ChannelDims(T=8, M=2, N=4))
    with pytest.raises(dataclasses.FrozenInstanceError):
        dp.P = 7
    with pytest.raises(dataclasses.FrozenInstanceError):
        dp.T = 9


def test_pass_through_properties():
    dp = derive(ChannelDims(T=8, M=2, N=4))
    assert (dp.T, dp.M, dp.N) == (8, 2, 4)


def test_rho_from_db():
    assert rho_from_db(0.0) == 1.0
    assert rho_from_db(10.0) == pytest.approx(10.0, rel=1e-15)
    assert rho_from_db(-10.0) == pytest.approx(0.1, rel=1e-15)
    assert rho_from_db(30.0) == pytest.approx(1000.0, rel=1e-15)
    # 10^(x/10) must be a positive finite float: overflow, underflow to 0,
    # infinities and NaN are all out of the domain; a bool, a str (never
    # parsed), bytes, None and a complex value are not dB values
    for bad in (4000.0, -4000.0, math.inf, -math.inf, math.nan,
                True, False, np.True_, np.array(True), "10", b"10", None,
                1 + 0j, np.complex128(10.0), np.array(10.0 + 1j)):
        with pytest.raises(DomainError, match="snr_db"):
            rho_from_db(bad)
    # numbers and 0-d real arrays are dB values
    for good in (10, np.int64(10), np.float32(10.0), np.float64(10.0), np.array(10.0)):
        assert rho_from_db(good) == pytest.approx(10.0, rel=1e-15)


def test_check_decreasing():
    x = check_decreasing([3.0, 2.0, 0.5], 3, "x")
    assert x.dtype == float and x.tolist() == [3.0, 2.0, 0.5]
    assert check_decreasing([], 0, "empty").shape == (0,)
    for bad in ([3.0, 2.0], [3.0, 3.0, 1.0], [3.0, 2.0, -1.0], [3.0, np.nan, 1.0],
                [1e200, 2.0, 1.0]):  # squares overflow
        with pytest.raises(DomainError):
            check_decreasing(bad, 3, "x")
    with pytest.raises(DomainError):
        check_decreasing([[2.0, 1.0]], 2, "x")  # not a vector
    # the relative gap is taken on the squares: 1 - (1 - 1e-10)^2 is about 2e-10
    with pytest.raises(ConfluenceError):
        check_decreasing([1.0, 1.0 - 1e-10], 2, "x")
    check_decreasing([1.0, 1.0 - 1e-9], 2, "x")




def _check_decreasing_reference(x, size, label):
    # the validator as whole-array numpy reductions, kept as the reference
    # for the decisions of check_decreasing
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (size,):
        raise DomainError(f"{label}: expected {size} entries, got shape {x.shape}")
    if not np.all(x > 0):
        raise DomainError(f"{label}: entries must be strictly positive")
    if not np.all(x[1:] < x[:-1]):
        raise DomainError(f"{label}: entries must be strictly decreasing")
    if x.size and x[0] > _MAX_ROOT:
        raise DomainError(f"{label}: squared entries must be finite")
    x2 = x * x
    if np.any((x2[:-1] - x2[1:]) / x2[:-1] < REL_GAP_TOL):
        raise ConfluenceError(
            f"{label}: relative gap below {REL_GAP_TOL:g}, "
            "inputs are numerically confluent")
    return x


def _decision(check, x, size):
    # the exception type and message, or the returned array's dtype, shape and bytes
    try:
        y = check(x, size, "x")
    except ValueError as e:
        return type(e), str(e)
    return y.dtype, y.shape, y.tobytes()


def _reference_decision(x, size):
    if np.iscomplexobj(x):
        # the reference's float cast drops the imaginary part behind a
        # ComplexWarning; check_decreasing rejects a complex dtype first
        return DomainError, f"x: entries must be real, got dtype {np.asarray(x).dtype}"
    with np.errstate(invalid="ignore"):
        want = _decision(_check_decreasing_reference, x, size)
    if isinstance(want[0], np.dtype) and np.any(np.square(np.frombuffer(want[2])[:-1]) == 0):
        # the one intended change: where two adjacent squares both underflow
        # to 0, the reference's gap is 0/0 = NaN, which passed
        return ConfluenceError, "x: relative gap below 1e-09, inputs are numerically confluent"
    return want


def _edge_inputs():
    nan, inf = math.nan, math.inf
    yield [-3.0, 2.0], 2  # the squares decrease, an entry is negative
    yield [3.0, 3.0, -1.0], 3  # DomainError wins over ConfluenceError
    yield [1.0, 1.0 - 1e-12, -1.0], 3
    yield [2.0, 2.0], 2  # the USTM equal-gain diagonal
    for i in range(4):
        yield [4.0, 3.0, 2.0, 1.0][:i] + [nan] + [4.0, 3.0, 2.0, 1.0][i + 1:], 4
    yield from (([inf, 1.0], 2), ([2.0, -inf], 2), ([inf, inf], 2), ([inf], 1),
                ([1.0, -0.0], 2), ([-0.0], 1), ([1.0, 0.0], 2))
    yield [float(np.nextafter(_MAX_ROOT, inf)), 1.0], 2
    yield [_MAX_ROOT, 1.0], 2
    yield [1e200, 2.0, 1.0], 3
    yield [], 0
    yield [2.0], 1
    yield 2.0, 1  # a scalar is a vector of one entry
    yield np.geomspace(100.0, 1.0, 100), 100
    yield [[2.0, 1.0]], 2  # not a vector
    yield [3.0, 2.0], 3  # wrong size
    yield [3, 2, 1], 3  # integers convert
    yield [1.0, 1e-170], 2  # one trailing square underflows: valid
    yield [1.0, 1e-170, 1e-171], 3  # two underflow: confluent
    yield [2.0 + 0.5j, 1.0], 2  # complex: rejected, not truncated
    yield np.array([2.0, 1.0], dtype=complex), 2  # even with a zero imaginary part
    yield np.array([1.0], dtype=np.complex64), 3  # the dtype is checked before the size


def _gap_inputs():
    # [1, b] with b stepped by one ulp across squared relative gap 1e-9
    b = math.sqrt(1.0 - REL_GAP_TOL)
    return [([1.0, b + k * 2.0 ** -53], 2) for k in range(-40, 41)]


def _random_inputs(count):
    # decreasing bases with entries swapped for special values, repeats and
    # near-gaps, and sometimes a wrong size, so that every branch is reached
    rng = np.random.default_rng(2024)
    specials = (math.nan, math.inf, -math.inf, -0.0, 0.0, -1.0, 1e160, 1e-170, 1e-200)
    for _ in range(count):
        n = int(rng.integers(0, 7))
        x = np.sort(rng.exponential(size=n))[::-1].tolist()
        for i in range(n):
            r = rng.random()
            if r < 0.1:
                x[i] = specials[rng.integers(len(specials))]
            elif r < 0.2 and i:
                x[i] = x[i - 1]
            elif r < 0.3 and i:
                x[i] = x[i - 1] * math.sqrt(1.0 - 10.0 ** rng.uniform(-11.0, -7.0))
        yield x, n if rng.random() < 0.95 else int(rng.integers(0, 7))


def test_check_decreasing_matches_reference_decisions():
    reached = set()
    for x, size in [*_edge_inputs(), *_gap_inputs(), *_random_inputs(4000)]:
        want = _reference_decision(x, size)
        assert _decision(check_decreasing, x, size) == want, (x, size)
        reached.add("valid" if isinstance(want[0], np.dtype) else re.sub(r"\d", "#", want[1]))
    assert reached == {
        "valid",
        "x: expected # entries, got shape (#,)",
        "x: expected # entries, got shape (#, #)",
        "x: entries must be strictly positive",
        "x: entries must be strictly decreasing",
        "x: squared entries must be finite",
        "x: relative gap below #e-##, inputs are numerically confluent",
        "x: entries must be real, got dtype complex###",
        "x: entries must be real, got dtype complex##",
    }
    # the gap inputs fall on both sides of the tolerance
    assert {_decision(check_decreasing, x, 2)[0] for x, _ in _gap_inputs()} == {
        np.dtype(float), ConfluenceError}


def _complex_calls():
    # each entry point that takes a real vector, with that vector complex, and
    # the label its DomainError names; a cast to float keeps 1.3 of 1.3+0.5j
    dp = derive(ChannelDims(T=2, M=1, N=2))
    y = np.diag([2.0, 0.7]).astype(complex)
    svn = np.array([1.1, 0.6]) + 0.5j
    z = np.array([1.3 + 0.5j])
    return {
        "cond_pdf_y_given_d_log": (
            "gain diagonal", lambda: ncmimo.cond_pdf_y_given_d_log(y, z, dp, 10.0)),
        "GainDiagonal": ("GainDiagonal", lambda: ncmimo.GainDiagonal(z)),
        "cond_sv_pdf_finite_log": (
            "svn", lambda: ncmimo.cond_sv_pdf_finite_log(svn, [1.3], dp, 10.0)),
        "cond_sv_pdf_limit_log": ("svn", lambda: ncmimo.cond_sv_pdf_limit_log(svn, [1.3], dp)),
        "first_sv_pdf_log": (
            "first_sv_pdf_log sv", lambda: ncmimo.first_sv_pdf_log(z, dp, 10.0)),
        "tail_sv_pdf_log": ("tail_sv_pdf_log sv", lambda: ncmimo.tail_sv_pdf_log(z, dp)),
        "beta_eig_pdf_log": (
            "beta_eig_pdf_log eigenvalues", lambda: ncmimo.beta_eig_pdf_log(1, 2, 3, z / 3)),
    }


@pytest.mark.parametrize("entry", list(_complex_calls()))
def test_complex_vectors_are_rejected_not_truncated(entry):
    label, call = _complex_calls()[entry]
    with pytest.raises(DomainError, match=f"^{label}: entries must be real, got dtype complex128$"):
        call()


def test_every_raise_names_one_of_the_two_error_types():
    # a rejected input raises DomainError or ConfluenceError; the CLI's usage
    # and output path (exit 1) is the one exception
    usage = {("cli.py", "error", "SystemExit"),
             ("cli.py", "_int_list", "argparse.ArgumentTypeError"),
             ("cli.py", "_emit", "OSError")}
    found = []
    for path in Path(ncmimo.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # raise -> innermost enclosing function; ast.walk goes outside in
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update({r: fn.name for r in ast.walk(fn) if isinstance(r, ast.Raise)})
        for r in (r for r in ast.walk(tree) if isinstance(r, ast.Raise)):
            exc = r.exc.func if isinstance(r.exc, ast.Call) else r.exc
            name = ast.unparse(exc) if exc is not None else "<re-raise>"
            site = (path.name, owner.get(r), name)
            if name not in ("DomainError", "ConfluenceError") and site not in usage:
                found.append(f"{path.name}:{r.lineno} {name}")
    assert not found
