import dataclasses
import math

import numpy as np
import pytest

from ncmimo.params import (
    ChannelDims,
    ConfluenceError,
    DimensionError,
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
    with pytest.raises(DimensionError):
        derive(ChannelDims(T=T, M=M, N=N))


def test_error_message_names_the_constraint():
    with pytest.raises(DimensionError, match=r"floor\(T/2\)"):
        derive(ChannelDims(T=4, M=3, N=4))


def test_dims_are_immutable():
    dp = derive(ChannelDims(T=8, M=2, N=4))
    with pytest.raises(dataclasses.FrozenInstanceError):
        dp.P = 7
    with pytest.raises(dataclasses.FrozenInstanceError):
        dp.dims.T = 9


def test_pass_through_properties():
    dp = derive(ChannelDims(T=8, M=2, N=4))
    assert (dp.T, dp.M, dp.N) == (8, 2, 4)


def test_rho_from_db():
    assert rho_from_db(0.0) == 1.0
    assert rho_from_db(10.0) == pytest.approx(10.0, rel=1e-15)
    assert rho_from_db(-10.0) == pytest.approx(0.1, rel=1e-15)
    assert rho_from_db(30.0) == pytest.approx(1000.0, rel=1e-15)
    # 10^(x/10) must be a positive finite float: overflow, underflow to 0,
    # infinities and NaN are all out of the domain
    for bad in (4000.0, -4000.0, math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="snr_db"):
            rho_from_db(bad)


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
