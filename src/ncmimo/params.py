"""Channel dimensions, the four derived coherence parameters, the argument rules.

A coherence block spans T symbols; the transmitter has M antennas and the
receiver N.  Everything downstream assumes the standing constraint
M <= min(N, floor(T/2)), which keeps the optimal input full rank and the
high-SNR expansion valid.  Validation happens once, here; other modules
accept a DerivedParams and do not re-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Argument outside the domain of the requested quantity."""


class ConfluenceError(ValueError):
    """Inputs too close to a removable singularity to evaluate stably."""


# Relative gap below which adjacent squared entries (singular values,
# gains, eigenvalues) are treated as confluent and rejected.
REL_GAP_TOL = 1e-9

# largest float whose square is finite
_MAX_ROOT = float(np.sqrt(np.finfo(float).max))

# native float64; a vector of this dtype skips the conversions in check_decreasing
_F64 = np.dtype(float)


def check_int(value, name: str, low: int = 0) -> int:
    """value as a Python int if it is a Python or numpy integer >= low;
    DomainError naming `name` otherwise (bool, float, str and None included).
    The one rule for every seed, count and dimension."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        what = {0: "a non-negative integer", 1: "a positive integer"}.get(
            low, f"an integer >= {low}")
        raise DomainError(f"{name} must be {what}, got {name}={value!r}")
    return int(value)


def _real(x, label: str) -> np.ndarray:
    """x as a float array; DomainError naming `label` for a complex dtype,
    whose imaginary part a cast to float would drop."""
    x = np.asarray(x)
    if x.dtype.kind == "c":
        raise DomainError(f"{label}: entries must be real, got dtype {x.dtype}")
    return np.asarray(x, dtype=float)


def check_decreasing(x, size: int, label: str) -> np.ndarray:
    """x as a float vector of `size` strictly decreasing positive entries.

    The checks run in this order, and the first that fails raises:
    DomainError for a complex dtype, for a shape other than (size,), for an
    entry that is not > 0 (NaN and -0.0 included), for entries that do not
    strictly decrease, and for a first entry whose square overflows; then
    ConfluenceError when adjacent squared entries p >= q have
    (p - q) / p < REL_GAP_TOL.  Two adjacent squares that both underflow
    to 0 are equal, so they are confluent; a single trailing square that
    underflows to 0 is valid.

    The entries are few, so the checks run on Python floats; the decisions
    are those of the same IEEE comparisons on the array.  A 1-D native
    float64 array is checked and returned as it is, which is what the
    conversions would give.
    """
    if not (type(x) is np.ndarray and x.dtype is _F64 and x.ndim == 1):
        x = np.atleast_1d(_real(x, label))
    if x.shape != (size,):
        raise DomainError(f"{label}: expected {size} entries, got shape {x.shape}")
    v = x.tolist()
    # one pass accepts a valid vector (a NaN fails a comparison, a 0.0 square is falsy)
    if not v or (0 < v[-1] and v[0] <= _MAX_ROOT and all(
            a > b and (p := a * a) and (p - b * b) / p >= REL_GAP_TOL
            for a, b in zip(v, v[1:]))):
        return x
    if not all(a > 0 for a in v):
        raise DomainError(f"{label}: entries must be strictly positive")
    if not all(a > b for a, b in zip(v, v[1:])):
        raise DomainError(f"{label}: entries must be strictly decreasing")
    if v[0] > _MAX_ROOT:
        raise DomainError(f"{label}: squared entries must be finite")
    # what the one pass rejected is left: a zero square or a gap below the tolerance
    raise ConfluenceError(f"{label}: relative gap below {REL_GAP_TOL:g}, "
                          "inputs are numerically confluent")


@dataclass(frozen=True)
class ChannelDims:
    """Block length T, transmit antennas M, receive antennas N."""

    T: int
    M: int
    N: int


@dataclass(frozen=True)
class DerivedParams:
    """Validated dimensions T, M, N and the parameters derived from them.

    P = max(N, T-M), Q = min(N, T-M), rmax = max(N, T), rmin = min(N, T).
    large_mimo is true iff T < M+N, the regime where the optimal input
    gain matrix is genuinely random.
    """

    T: int
    M: int
    N: int
    P: int
    Q: int
    rmax: int
    rmin: int
    large_mimo: bool


def derive(dims: ChannelDims) -> DerivedParams:
    """Validate dims and compute the derived parameters.

    Raises DomainError naming the violated constraint.
    """
    T, M, N = check_int(dims.T, "T", 1), check_int(dims.M, "M", 1), check_int(dims.N, "N", 1)
    if M > T // 2:
        raise DomainError(f"M <= floor(T/2) required: M={M}, floor(T/2)={T // 2}")
    if M > N:
        raise DomainError(f"M <= N required: M={M}, N={N}")
    return DerivedParams(
        T=T, M=M, N=N,
        P=max(N, T - M),
        Q=min(N, T - M),
        rmax=max(N, T),
        rmin=min(N, T),
        large_mimo=T < M + N,
    )


def rho_from_db(snr_db: float) -> float:
    """Linear SNR rho = 10^(snr_db/10) from its dB value, a real number.

    Raises DomainError for a bool, str or complex snr_db, for NaN, for
    +-inf, and where 10^(snr_db/10) overflows or underflows to zero.
    """
    if np.asarray(snr_db).dtype.kind not in "iuf":
        raise DomainError(f"snr_db must be a real number, got snr_db={snr_db!r}")
    try:
        rho = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        rho = math.inf
    if not 0.0 < rho < math.inf:
        raise DomainError(f"snr_db must give a positive finite linear SNR, got {snr_db} dB")
    return rho
