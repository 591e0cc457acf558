import pytest


class _SwappedJacobi:
    """A generator whose Beta variates give sample_gain's bidiagonal with c'
    and s' swapped.  Each gain draw is one row of 2k - 1 variates, the k
    c_j^2 first, so the last k - 1 columns (c'_j^2) come back as 1 - c'_j^2;
    at k = 1 there is no c' and the draw is unchanged."""

    def __init__(self, gen):
        self._gen = gen

    def beta(self, a, b, size):
        x = self._gen.beta(a, b, size)
        k = (size[-1] + 1) // 2
        x[:, k:] = 1.0 - x[:, k:]
        return x

    def __getattr__(self, name):
        return getattr(self._gen, name)


@pytest.fixture
def swapped_jacobi():
    """Wraps a Generator as one that draws the wrong (c', s'-swapped) gain."""
    return _SwappedJacobi
