"""Capacity-achieving input sampling and block-fading channel simulation.

The optimal input factors as X = Phi D with Phi isotropically distributed
on the Stiefel manifold and D a random nonnegative diagonal.  For
T >= M+N the diagonal is deterministic, D = sqrt(T) I (USTM); otherwise
D = sqrt(TN/Q) D~ where the squared entries of D~ are the ordered
eigenvalues of a Beta_M(T-M, M+N-T) matrix (BSTM).  D is the plain
vector of its diagonal entries.
"""

from __future__ import annotations

import numpy as np

from .params import DerivedParams, DomainError, rho_from_db
from .randmat import (
    sample_bartlett_factor,
    sample_gaussian,
    sample_isotropic_unitary,
    sample_matrix_beta,
)

# Draws per chunk of a large stacked draw, so peak memory stays flat in count.
DRAW_CHUNK = 10_000


def GainDiagonal(d) -> np.ndarray:
    """d, the diagonal of the gain D, checked and returned as a read-only
    float copy.  DomainError unless it is a nonempty 1-D vector of finite,
    nonnegative, nonincreasing entries."""
    d = np.array(d, dtype=float)
    d.flags.writeable = False
    if d.ndim != 1 or d.size < 1:
        raise DomainError(f"GainDiagonal needs a 1-D vector, got shape {d.shape}")
    if not np.all((0 <= d) & (d < np.inf)):
        raise DomainError("GainDiagonal entries must be finite and nonnegative")
    if not np.all(np.diff(d) <= 0):
        raise DomainError("GainDiagonal entries must be nonincreasing")
    return d


def _gain_entries(dp: DerivedParams, rng: np.random.Generator, count: int | None,
                  ustm: bool) -> np.ndarray:
    T, M, N = dp.T, dp.M, dp.N
    k = 1 if count is None else count
    if ustm or not dp.large_mimo:
        d = np.full((k, M), np.sqrt(float(T)))
    else:
        # max(k, 1): count = 0 makes one empty draw, so the stack is (0, M)
        lam = np.concatenate([
            np.linalg.eigvalsh(sample_matrix_beta(M, T - M, M + N - T, rng,
                                                  count=min(DRAW_CHUNK, k - done)))
            for done in range(0, max(k, 1), DRAW_CHUNK)])[..., ::-1]  # descending
        # clip eigensolver round-off just outside [0, 1]
        lam = np.clip(lam, 0.0, 1.0)
        d = np.sqrt(T * N / dp.Q) * np.sqrt(lam)
    return d


def sample_gain(dp: DerivedParams, rng: np.random.Generator, count: int | None = None,
                ustm: bool = False) -> np.ndarray:
    """Draw the input gain diagonal.

    T >= M+N gives the deterministic USTM vector sqrt(T)*(1,..,1); in the
    large-MIMO regime the squared entries are scaled ordered eigenvalues
    of a Beta_M(T-M, M+N-T) draw, largest first.  With ustm=True the
    deterministic USTM diagonal is returned even when T < M+N, which is
    the suboptimal scheme the rate-gain comparisons are about.  With a
    count, returns a (count, M) array of stacked diagonals instead.
    """
    d = _gain_entries(dp, rng, count, ustm)
    return d[0] if count is None else d


def sample_input(dp: DerivedParams, rng: np.random.Generator, count: int | None = None,
                 ustm: bool = False) -> np.ndarray:
    """Draw X = Phi D, a T x M input block (stacked when count is given)."""
    T, M = dp.T, dp.M
    k = 1 if count is None else count
    phi = sample_isotropic_unitary(T, M, rng, count=k)
    d = _gain_entries(dp, rng, count=k, ustm=ustm)
    x = phi * d[:, None, :]
    return x[0] if count is None else x


def simulate_channel(X: np.ndarray, N: int, snr_db: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Y = sqrt(rho/M) X H + W, one coherence block per T x M block of X.

    H (M x N) and W (T x N) are fresh iid CN(0,1) draws per block.  A 2-D X
    draws one block; a 3-D X draws one block per slice X[k].  Every argument
    is checked before the first draw, so a DomainError leaves rng as it was.
    """
    X = np.asarray(X)
    if N < 1:
        raise DomainError(f"simulate_channel requires N >= 1, got N={N}")
    if X.ndim not in (2, 3) or 0 in X.shape[-2:]:
        raise DomainError(f"X must be a T x M block or a stack of them, got shape {X.shape}")
    T, M = X.shape[-2], X.shape[-1]
    gain = np.sqrt(rho_from_db(snr_db) / M)
    batch = X.shape[0] if X.ndim == 3 else None
    h = sample_gaussian(M, N, 1.0, rng, count=batch)
    w = sample_gaussian(T, N, 1.0, rng, count=batch)
    return gain * (X @ h) + w


def noiseless_sv_sample(dp: DerivedParams, rng: np.random.Generator,
                        count: int | None = None) -> np.ndarray:
    """Ordered singular values of D H for a fresh (D, H) pair.

    H is drawn as its M x min(M, N) Bartlett factor L (H = L Q with Q
    having orthonormal rows, so D H and D L share their singular values).
    Returns the min(M, N) values sorted decreasing; their law is the
    structural identity checked by the noiseless-sv validation suite.
    """
    M, N = dp.M, dp.N
    k = 1 if count is None else count
    d = _gain_entries(dp, rng, count=k, ustm=False)
    ell = sample_bartlett_factor(M, N, 1.0, rng, count=k)
    sv = np.linalg.svd(d[:, :, None] * ell, compute_uv=False)
    return sv[0] if count is None else sv
