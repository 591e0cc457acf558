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

from .params import DerivedParams, DomainError, _real, check_int, rho_from_db
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
    float copy.  DomainError unless it is a nonempty 1-D real vector of
    finite, nonnegative, nonincreasing entries."""
    d = np.array(_real(d, "GainDiagonal"))
    d.flags.writeable = False
    if d.ndim != 1 or d.size < 1:
        raise DomainError(f"GainDiagonal needs a 1-D vector, got shape {d.shape}")
    if not np.all((0 <= d) & (d < np.inf)):
        raise DomainError("GainDiagonal entries must be finite and nonnegative")
    if not np.all(np.diff(d) <= 0):
        raise DomainError("GainDiagonal entries must be nonincreasing")
    return d


def sample_gain(dp: DerivedParams, rng: np.random.Generator, count: int,
                ustm: bool = False) -> np.ndarray:
    """Draw a (count, M) stack of input gain diagonals.

    T >= M+N gives the deterministic USTM vector sqrt(T)*(1,..,1); in the
    large-MIMO regime the squared entries are scaled ordered eigenvalues
    of a Beta_M(T-M, M+N-T) draw, largest first.  With ustm=True the
    deterministic USTM diagonal is returned even when T < M+N, which is
    the suboptimal scheme the rate-gain comparisons are about.
    """
    count = check_int(count, "count")
    T, M, N = dp.T, dp.M, dp.N
    if ustm or not dp.large_mimo:
        return np.full((count, M), np.sqrt(float(T)))
    # max(count, 1): count = 0 makes one empty draw, so the stack is (0, M)
    lam = np.concatenate([
        np.linalg.eigvalsh(sample_matrix_beta(M, T - M, M + N - T, rng,
                                              min(DRAW_CHUNK, count - done)))
        for done in range(0, max(count, 1), DRAW_CHUNK)])[..., ::-1]  # descending
    # clip eigensolver round-off just outside [0, 1]
    lam = np.clip(lam, 0.0, 1.0)
    return np.sqrt(T * N / dp.Q) * np.sqrt(lam)


def sample_input(dp: DerivedParams, rng: np.random.Generator, count: int,
                 ustm: bool = False) -> np.ndarray:
    """Draw a (count, T, M) stack of input blocks X = Phi D: the unitaries
    first, then the gains through sample_gain."""
    phi = sample_isotropic_unitary(dp.T, dp.M, rng, count)
    return phi * sample_gain(dp, rng, count, ustm)[:, None, :]


def simulate_channel(X: np.ndarray, N: int, snr_db: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Y = sqrt(rho/M) X H + W for a (count, T, M) stack X of input blocks,
    one coherence block per slice X[k].

    H (M x N) and W (T x N) are fresh iid CN(0,1) draws per block; Y is a
    (count, T, N) stack.  Every argument is checked before the first draw,
    so a DomainError (any other rank of X included) leaves rng as it was.
    """
    X = np.asarray(X)
    N = check_int(N, "N", 1)
    if X.ndim != 3 or 0 in X.shape[1:]:
        raise DomainError(f"X must be a (count, T, M) stack of blocks, got shape {X.shape}")
    count, T, M = X.shape
    gain = np.sqrt(rho_from_db(snr_db) / M)
    h = sample_gaussian(M, N, 1.0, rng, count)
    w = sample_gaussian(T, N, 1.0, rng, count)
    return gain * (X @ h) + w


def noiseless_sv_sample(dp: DerivedParams, rng: np.random.Generator,
                        count: int) -> np.ndarray:
    """Ordered singular values of D H for count fresh (D, H) pairs.

    H is drawn as its M x min(M, N) Bartlett factor L (H = L Q with Q
    having orthonormal rows, so D H and D L share their singular values).
    Returns a (count, min(M, N)) stack, each row sorted decreasing; their
    law is the structural identity checked by the noiseless-sv validation
    suite.
    """
    d = sample_gain(dp, rng, count)
    ell = sample_bartlett_factor(dp.M, dp.N, 1.0, rng, count)
    return np.linalg.svd(d[:, :, None] * ell, compute_uv=False)
