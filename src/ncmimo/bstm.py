"""Capacity-achieving input sampling and block-fading channel simulation.

The optimal input factors as X = Phi D with Phi isotropically distributed
on the Stiefel manifold and D a random nonnegative diagonal.  For
T >= M+N the diagonal is deterministic, D = sqrt(T) I (USTM); otherwise
D = sqrt(TN/Q) D~ where the squared entries of D~ are the ordered
eigenvalues of a Beta_M(T-M, M+N-T) matrix (BSTM).  D is the plain
vector of its diagonal entries.  Those eigenvalues are drawn from the
beta = 2 Jacobi matrix model (Killip and Nenciu 2004; Edelman and Sutton
2008, "The beta-Jacobi matrix model, the CS decomposition, and
generalized singular value problems", Found. Comput. Math. 8): a real
bidiagonal of at most 2M - 1 Beta variates, not the whole complex matrix.
"""

from __future__ import annotations

import numpy as np

from .params import DerivedParams, DomainError, _real, check_int, rho_from_db
from .randmat import sample_bartlett_factor, sample_gaussian, sample_isotropic_unitary

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
    large-MIMO regime the squared entries are TN/Q times the ordered
    eigenvalues of a Beta_M(p, n) matrix, p = T-M, n = M+N-T, largest
    first.  With ustm=True the deterministic USTM diagonal is returned
    even when T < M+N, which is the suboptimal scheme the rate-gain
    comparisons are about.

    The eigenvalues come from the beta = 2 Edelman-Sutton (2008) model.
    With m = M, k = min(m, n), a = p - m and b = |n - m|, each draw takes
    c_j^2 ~ Beta(a+j, b+j) for j = k..1 and c'_j^2 ~ Beta(j, a+b+1+j) for
    j = k-1..1, in that order, and s = sqrt(1 - c^2).  The upper bidiagonal
    B with diagonal (c_k, c_{k-1} s'_{k-1}, .., c_1 s'_1) and superdiagonal
    (-s_k c'_{k-1}, .., -s_2 c'_1) has the k free eigenvalues as its squared
    singular values, the eigenvalues of the real tridiagonal B^T B.  When
    n < m the other m - k are exactly 1 (the singular Beta) and lead.
    Draws run in chunks of DRAW_CHUNK.  The eigenvalues are clipped to
    [0, 1], which can remove round-off only: tests/test_bstm.py finds none
    outside [-4 eps, 1 + 4 eps] in 2 x 10^5 draws at each of 8 geometries.
    """
    count = check_int(count, "count")
    T, M, N = dp.T, dp.M, dp.N
    if ustm or not dp.large_mimo:
        return np.full((count, M), np.sqrt(float(T)))
    k, a, b = min(M, M + N - T), T - 2 * M, abs(N - T)
    j = np.arange(k, 0, -1.0)  # float shapes spare rng.beta a conversion
    shapes = np.concatenate([a + j, j[1:]]), np.concatenate([b + j, a + b + 1 + j[1:]])
    lam = np.ones((count, M))
    for done in range(0, count, DRAW_CHUNK):
        x = rng.beta(*shapes, (min(DRAW_CHUNK, count - done), 2 * k - 1))
        # B's squared diagonal d2 and superdiagonal e2; the signs do not move
        # the spectrum, and eigvalsh reads only the lower triangle of B^T B
        d2 = x[:, :k].copy()
        d2[:, 1:] *= 1.0 - x[:, k:]
        e2 = (1.0 - x[:, :k - 1]) * x[:, k:]
        flat = np.zeros((len(x), k * k))
        flat[:, ::k + 1] = d2
        flat[:, k + 1::k + 1] += e2
        flat[:, k::k + 1] = np.sqrt(d2[:, :-1] * e2)
        lam[done:done + len(x), M - k:] = np.linalg.eigvalsh(
            flat.reshape(-1, k, k))[:, ::-1]
    return np.sqrt(T * N / dp.Q) * np.sqrt(np.clip(lam, 0.0, 1.0))


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
