import numpy as np
import pytest
from scipy import stats

from ncmimo import randmat, statcheck
from ncmimo.params import DomainError
from ncmimo.randmat import (
    RNG_ALGORITHM,
    RngHandle,
    beta_eig_pdf_log,
    chunks,
    sample_bartlett_factor,
    sample_gaussian,
    sample_isotropic_unitary,
    sample_matrix_beta,
    sample_wishart,
)

# Eigenvalues of a singular Beta draw this close to 1 belong to the
# deterministic unit block; eigensolver backward error at these sizes is
# orders of magnitude below this threshold.
UNIT_EIG_TOL = 1e-8


def test_rng_algorithm_id():
    assert RNG_ALGORITHM == "pcg64"


def test_same_seed_same_stream():
    a = sample_gaussian(3, 4, 1.0, RngHandle(42), count=5)
    b = sample_gaussian(3, 4, 1.0, RngHandle(42), count=5)
    assert np.array_equal(a, b)


def test_spawned_streams_differ_and_reproduce():
    r1, r2 = RngHandle(7).spawn(2)
    a1 = sample_gaussian(2, 2, 1.0, r1, count=1)
    a2 = sample_gaussian(2, 2, 1.0, r2, count=1)
    assert not np.allclose(a1, a2)
    r1b, r2b = RngHandle(7).spawn(2)
    assert np.array_equal(a1, sample_gaussian(2, 2, 1.0, r1b, count=1))
    assert np.array_equal(a2, sample_gaussian(2, 2, 1.0, r2b, count=1))


def test_spawn_follows_seed_sequence():
    # children and grandchildren are PCG64 streams of the spawned SeedSequences
    children, kids = RngHandle(7).spawn(2), np.random.SeedSequence(7).spawn(2)
    for rng, kid in zip(children, kids):
        ref = np.random.Generator(np.random.PCG64(kid))
        assert rng.standard_normal(4).tolist() == ref.standard_normal(4).tolist()
    grand = children[1].spawn(1)[0]
    ref = np.random.Generator(np.random.PCG64(kids[1].spawn(1)[0]))
    assert grand.standard_normal(4).tolist() == ref.standard_normal(4).tolist()


@pytest.mark.parametrize("seed", [-1, -(2**70)])
def test_negative_seed_is_domain_error(seed):
    with pytest.raises(DomainError, match=f"seed={seed}"):
        RngHandle(seed)


@pytest.mark.parametrize("seed", [True, False, np.bool_(True), 2.5, 2.0, np.float64(3.0), "3", None])
def test_non_integral_seed_is_domain_error(seed):
    with pytest.raises(DomainError, match="non-negative integer"):
        RngHandle(seed)


@pytest.mark.parametrize("seed", [0, 3, 2**70, np.int64(3), np.uint8(3), np.uint64(2**63 + 5)])
def test_integer_seeds_draw_the_default_rng_stream(seed):
    want = np.random.default_rng(int(seed)).standard_normal(4)
    assert RngHandle(seed).standard_normal(4).tolist() == want.tolist()


@pytest.mark.parametrize("count, width, step", [
    (10, 7, 7), (14, 7, 7), (3, 7, 7), (0, 7, 7), (5, 60, 1), (4, 1, 50)])
def test_chunks_tile_the_count_within_the_budget(monkeypatch, count, width, step):
    # step: CHUNK_ENTRIES // width items a chunk, one at least
    monkeypatch.setattr(randmat, "CHUNK_ENTRIES", 50)
    bounds = list(chunks(count, width))
    assert [start for start, _ in bounds] == list(range(0, count, step))
    assert [stop for _, stop in bounds] == [min(start + step, count) for start, _ in bounds]


def test_gaussian_shapes_and_moments():
    z = sample_gaussian(4, 3, 2.0, RngHandle(0), count=1)
    assert z.shape == (1, 4, 3) and z.dtype == np.complex128
    z = sample_gaussian(4, 3, 2.0, RngHandle(0), count=30_000)
    assert z.shape == (30_000, 4, 3)
    assert abs(z.mean()) < 0.01
    assert np.mean(np.abs(z) ** 2) == pytest.approx(2.0, rel=0.02)
    # circular symmetry: E[z^2] = 0
    assert abs(np.mean(z ** 2)) < 0.01


def test_gaussian_domain():
    with pytest.raises(DomainError):
        sample_gaussian(0, 2, 1.0, RngHandle(0), count=1)
    with pytest.raises(DomainError):
        sample_gaussian(2, 2, -1.0, RngHandle(0), count=1)
    with pytest.raises(DomainError):
        sample_gaussian(1, 2, np.nan, RngHandle(0), count=1)
    with pytest.raises(DomainError):
        sample_gaussian(1, 2, np.inf, RngHandle(0), count=1)


@pytest.mark.parametrize("m, n, variance, count", [(4, 3, 2.0, 5), (1, 7, 0.5, 1), (3, 3, 1.0, 0)])
def test_gaussian_stream_layout(m, n, variance, count):
    # the real parts of the whole stack first, then the imaginary parts,
    # each in C order: numpy's own layout, identical on every platform
    g = np.random.default_rng(11)
    want = np.sqrt(variance / 2) * (g.standard_normal((count, m, n))
                                    + 1j * g.standard_normal((count, m, n)))
    got = sample_gaussian(m, n, variance, np.random.default_rng(11), count)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m, n, count", [(3, 5, 4), (4, 2, 3), (1, 3, 2), (3, 1, 2),
                                         (5, 95, 2), (3, 4, 0)])
def test_bartlett_factor_stream_layout(m, n, count):
    # the diagonals of the whole stack first, as scaled Gamma(n - i) variates,
    # then the below-diagonal Gaussians in np.tril_indices order
    scale, k = 2.0, min(m, n)
    g = np.random.default_rng(12)
    want = np.zeros((count, m, k), dtype=complex)
    i = np.arange(k)
    want[:, i, i] = np.sqrt(scale * g.standard_gamma(n - i, (count, k)))
    rows, cols = np.tril_indices(m, -1, k)
    if rows.size:
        want[:, rows, cols] = np.sqrt(scale / 2) * (
            g.standard_normal((count, 1, rows.size))
            + 1j * g.standard_normal((count, 1, rows.size)))[:, 0, :]
    got = sample_bartlett_factor(m, n, scale, np.random.default_rng(12), count)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_wishart_hermitian_psd_and_mean():
    w = sample_wishart(3, 5, 1.0, RngHandle(3), count=20_000)
    assert np.allclose(w, np.conj(np.swapaxes(w, -1, -2)))
    eigs = np.linalg.eigvalsh(w)
    assert eigs.min() > -1e-12
    # E[W] = n * scale * I
    mean = w.mean(axis=0)
    assert np.allclose(mean, 5.0 * np.eye(3), atol=0.15)


def test_singular_wishart_rank():
    w = sample_wishart(4, 2, 1.0, RngHandle(5), count=32)
    ranks = np.linalg.matrix_rank(w, tol=1e-10)
    assert np.all(ranks == 2)


@pytest.mark.parametrize("m, n, scale", [(1, 3, -1.0), (1, 3, 0.0), (1, 3, np.inf), (2, 3, np.inf),
                                         (0, 2, 1.0), (2, 0, 1.0)])
def test_wishart_domain(m, n, scale):
    # m = 1 has no Gaussian entry below the diagonal, so the factor checks
    # the scale itself rather than relying on sample_gaussian's check
    with pytest.raises(DomainError):
        sample_wishart(m, n, scale, RngHandle(0), count=1)


def test_bartlett_factor_shape():
    for (m, n) in ((3, 5), (4, 2), (1, 3), (3, 1)):
        ell = sample_bartlett_factor(m, n, 2.0, RngHandle(0), count=7)
        k = min(m, n)
        assert ell.shape == (7, m, k)
        assert np.all(np.triu(ell, 1) == 0)
        diag = np.diagonal(ell, axis1=-2, axis2=-1)
        assert np.all(diag.imag == 0) and np.all(diag.real > 0)


class _ExtraDof:
    """A generator whose Gamma variates carry one extra degree of freedom."""

    def __init__(self, gen):
        self._gen = gen

    def standard_gamma(self, shape, size=None):
        return self._gen.standard_gamma(shape + 1, size)

    def __getattr__(self, name):
        return getattr(self._gen, name)


BARTLETT_CASES = ((3, 5), (5, 95), (4, 2), (1, 3), (3, 1))


def _wishart_vs_direct_gram(extra_dof: bool) -> list:
    """Nonzero eigenvalues of the factor's Wishart against those of a direct
    B B^H, one KS row per ordered index, gated as one Holm family."""
    draws, scale = 5_000, 2.0
    rngs = RngHandle(0).spawn(2 * len(BARTLETT_CASES))
    reports = []
    for (m, n), rng_w, rng_b in zip(BARTLETT_CASES, rngs[::2], rngs[1::2]):
        if extra_dof:
            rng_w = _ExtraDof(rng_w)
        k = min(m, n)  # the pseudo-Wishart's m - k zero eigenvalues are dropped
        w = sample_wishart(m, n, scale, rng_w, count=draws)
        b = sample_gaussian(m, n, scale, rng_b, count=draws)
        eig_w = np.linalg.eigvalsh(w)[..., ::-1][..., :k]
        eig_b = np.linalg.eigvalsh(b @ np.conj(np.swapaxes(b, -1, -2)))[..., ::-1][..., :k]
        reports += [statcheck.ks_two_sample(eig_w[:, i], eig_b[:, i],
                                            name=f"wishart m={m} n={n} eig{i + 1}")
                    for i in range(k)]
    return statcheck.holm(reports)


def test_bartlett_wishart_matches_direct_gram():
    reports = _wishart_vs_direct_gram(extra_dof=False)
    assert len(reports) == 12
    assert all(r.passed for r in reports)


def test_bartlett_wishart_rejects_extra_degree_of_freedom():
    reports = _wishart_vs_direct_gram(extra_dof=True)
    assert len(reports) == 12
    assert not any(r.passed for r in reports)


def test_unitary_columns_orthonormal():
    q = sample_isotropic_unitary(6, 3, RngHandle(1), count=64)
    gram = np.conj(np.swapaxes(q, -1, -2)) @ q
    assert np.allclose(gram, np.eye(3), atol=1e-12)


def test_unitary_first_entry_is_haar():
    # for a Haar column on the unit sphere in C^T, |q_11|^2 ~ Beta(1, T-1);
    # with T = 2 that is uniform on (0, 1)
    q = sample_isotropic_unitary(2, 1, RngHandle(11), count=8_000)
    u = np.abs(q[:, 0, 0]) ** 2
    res = stats.kstest(u, "uniform")
    assert res.pvalue > 0.01


def test_unitary_phase_convention_not_degenerate():
    # without the phase fix the diagonal of R would leave a bias; check the
    # first entry's phase is uniform rather than clustered, and that the
    # check fails on QR of the same draws without the fix
    def phase_p(q):
        ph = np.angle(q[:, 0, 0])
        return stats.kstest(ph, "uniform", args=(-np.pi, 2 * np.pi)).pvalue

    q = sample_isotropic_unitary(3, 2, RngHandle(13), count=4_000)
    raw, _ = np.linalg.qr(sample_gaussian(3, 2, 1.0, RngHandle(13), count=4_000))
    assert phase_p(q) > 0.01
    assert phase_p(raw) < 0.01


def test_matrix_beta_eigenvalues_in_unit_interval():
    c = sample_matrix_beta(3, 4, 3, RngHandle(2), count=2_000)
    assert np.allclose(c, np.conj(np.swapaxes(c, -1, -2)))
    eigs = np.linalg.eigvalsh(c)
    assert eigs.min() > -1e-12
    assert eigs.max() < 1.0 + 1e-12


def test_singular_matrix_beta_unit_block():
    # n < m pins exactly m - n eigenvalues at 1
    c = sample_matrix_beta(3, 4, 1, RngHandle(4), count=500)
    eigs = np.sort(np.linalg.eigvalsh(c), axis=-1)[:, ::-1]
    assert np.all(np.abs(eigs[:, :2] - 1.0) < UNIT_EIG_TOL)
    assert np.all(eigs[:, 2] < 1.0 - 1e-6)


def test_matrix_beta_trace_mean():
    # E[tr C] = m p / (p + n), singular case included
    for (m, p, n) in ((2, 3, 2), (2, 2, 1), (3, 4, 2)):
        c = sample_matrix_beta(m, p, n, RngHandle(6), count=40_000)
        got = np.trace(c, axis1=-2, axis2=-1).real.mean()
        assert got == pytest.approx(m * p / (p + n), rel=0.02)


def test_matrix_beta_unitary_invariance():
    # U C U^H has the same eigenvalue law as a fresh draw
    m, p, n = 2, 3, 2
    r1, r2, r3 = RngHandle(8).spawn(3)
    c = sample_matrix_beta(m, p, n, r1, count=6_000)
    u = sample_isotropic_unitary(m, m, r2, count=1)[0]
    rotated = np.linalg.eigvalsh(u @ c @ np.conj(u.T))
    fresh = np.linalg.eigvalsh(sample_matrix_beta(m, p, n, r3, count=6_000))
    for i in range(m):
        res = stats.ks_2samp(rotated[:, i], fresh[:, i], method="asymp")
        assert res.pvalue > 0.01


@pytest.mark.parametrize("m, p, n", [(3, 4, 2), (3, 4, 1), (5, 5, 95)])
def test_matrix_beta_matches_two_wishart_construction(m, p, n):
    # the defining construction on the same stream: A and B in full, the
    # Cholesky A + B = L L^H, then C = L^{-1} A L^{-H} by two solves
    rng = RngHandle(9)
    a = sample_wishart(m, p, 1.0, rng, count=300)
    b = sample_wishart(m, n, 1.0, rng, count=300)
    ell = np.linalg.cholesky(a + b)
    x = np.linalg.solve(ell, a)
    want = np.conj(np.swapaxes(np.linalg.solve(ell, np.conj(np.swapaxes(x, -1, -2))), -1, -2))
    got = sample_matrix_beta(m, p, n, RngHandle(9), count=300)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_matrix_beta_domain():
    with pytest.raises(DomainError):
        sample_matrix_beta(3, 2, 2, RngHandle(0), count=1)  # p < m
    with pytest.raises(DomainError):
        sample_matrix_beta(2, 3, 0, RngHandle(0), count=1)  # n < 1


def test_matrix_beta_failed_cholesky_is_domain_error(monkeypatch):
    def singular(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", singular)
    with pytest.raises(DomainError, match="numerically singular"):
        sample_matrix_beta(2, 3, 2, RngHandle(0), count=1)


def test_beta_eig_pdf_values():
    # m = 1 reduces to a scalar Beta(p, n) density
    assert np.exp(beta_eig_pdf_log(1, 2, 3, np.array([0.5]))) == pytest.approx(1.5, abs=1e-13)
    # singular case m=2, n=1: one free eigenvalue
    assert np.exp(beta_eig_pdf_log(2, 2, 1, np.array([0.3]))) == pytest.approx(1.4, abs=1e-13)


def test_beta_eig_pdf_matches_scalar_beta():
    xs = (0.1, 0.35, 0.8)
    for x in xs:
        want = stats.beta.pdf(x, 2, 3)
        assert np.exp(beta_eig_pdf_log(1, 2, 3, np.array([x]))) == pytest.approx(want, rel=1e-12)


def test_beta_eig_pdf_domain():
    with pytest.raises(DomainError):
        beta_eig_pdf_log(1, 2, 3, np.array([1.2]))
    with pytest.raises(DomainError):
        beta_eig_pdf_log(2, 3, 2, np.array([0.2, 0.5]))  # not decreasing
    with pytest.raises(DomainError):
        beta_eig_pdf_log(2, 3, 2, np.array([0.5]))  # wrong length
    with pytest.raises(DomainError):
        beta_eig_pdf_log(2, 2, 1, np.array([0.3, 0.2]))  # singular case takes n values
    with pytest.raises(DomainError, match="p must be an integer >= 3, got p=2"):
        beta_eig_pdf_log(3, 2, 2, np.array([0.5, 0.2]))  # p < m
    with pytest.raises(DomainError, match="n must be a positive integer, got n=0"):
        beta_eig_pdf_log(2, 3, 0, np.array([0.5, 0.2]))  # n < 1
