import numpy as np
import pytest
import scipy.special
from scipy import stats

from ncmimo import kolmogorov
from ncmimo.kolmogorov import kolmogorov_sf
from ncmimo.params import DomainError

SIZES = [1, 2, 3, 25, 50, 140, 141, 5000, 10**5, 10**5 + 1]

# the helper each branch calls; a branch not named here calls none
_CALLS = {
    "ruben-gambino stirling": "_log_nfactorial_div_n_pow_n",
    "x >= 0.5 smirnov": "smirnov",
    "durbin n <= 140": "_kolmogn_DMTW",
    "pomeranz n <= 140": "_kolmogn_Pomeranz",
    "miller n <= 140": "smirnov",
    "miller n > 140": "smirnov",
    "durbin n > 140": "_kolmogn_DMTW",
    "pelz-good n > 140": "_kolmogn_PelzGood",
    "pelz-good n > 10^5": "_kolmogn_PelzGood",
}
_BRANCHES = {"nan", "zero", "one", "x <= 0.5/n", "ruben-gambino product", "n x >= n - 1",
             "n x^2 >= 370", *_CALLS}


def _branch(n, x):
    # the rules of Simard & L'Ecuyer (2011) for the survival function, as
    # scipy.stats._ksstats applies them
    if np.isnan(x):
        return "nan"
    if x == 0:
        return "zero"
    if x >= 1:
        return "one"
    if x <= 0.5 / n or n * x <= 0.5:
        return "x <= 0.5/n"
    t = n * x
    if t <= 1:
        return "ruben-gambino product" if n <= 140 else "ruben-gambino stirling"
    if t >= n - 1:
        return "n x >= n - 1"
    if x >= 0.5:
        return "x >= 0.5 smirnov"
    if n <= 140:
        return ("durbin n <= 140" if t * x <= 0.754693 else
                "pomeranz n <= 140" if t * x <= 4 else "miller n <= 140")
    if t * x >= 370:
        return "n x^2 >= 370"
    if t * x >= 2.2:
        return "miller n > 140"
    if n <= 10**5 and n * x**1.5 <= 1.4:
        return "durbin n > 140"
    return "pelz-good n > 140" if n <= 10**5 else "pelz-good n > 10^5"


def _grid(n):
    # both support edges and the two Ruben-Gambino ranges, each side of every
    # cutoff on n x^2 and n x^1.5, then a log grid (small n x, where Durbin
    # and Pelz-Good run) and a linear one (large x)
    edges = [np.nan, 0.0, 1.0, 1.5, 0.5 / n, np.nextafter(0.5 / n, 1), 0.75 / n, 1 / n,
             (n - 1) / n, 1 - 0.25 / n, 0.5]
    cutoffs = [*np.sqrt(np.array([0.754693, 4, 2.2, 370]) / n), (1.4 / n) ** (2 / 3)]
    return [*edges, *(c * f for c in cutoffs for f in (1 - 1e-6, 1 + 1e-6)),
            *np.geomspace(0.5 / n, 1, 25)[1:-1], *np.linspace(0.02, 0.98, 25)]


def _record(monkeypatch, calls):
    for name in {*_CALLS.values()} - {"smirnov"}:
        def recorded(*args, _name=name, _f=getattr(kolmogorov, name)):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(kolmogorov, name, recorded)

    def smirnov(*args, _f=scipy.special.smirnov):
        calls.append("smirnov")
        return _f(*args)
    monkeypatch.setattr(scipy.special, "smirnov", smirnov)  # the branch imports it by name


def _same_bits(x, y):
    return np.asarray(x, dtype=float).tobytes() == np.asarray(y, dtype=float).tobytes()


def test_sf_matches_kstwo_bit_for_bit_on_every_branch(monkeypatch):
    calls, reached = [], set()
    _record(monkeypatch, calls)
    for n in SIZES:
        # one call for the grid, as a KS family takes it, then one per value
        grid = _grid(n)
        sf = kolmogorov_sf(grid, n)
        assert _same_bits(sf, stats.kstwo.sf(grid, n)), n
        for x, sf_x in zip(grid, sf):
            calls.clear()
            assert _same_bits(kolmogorov_sf([x], n), [sf_x]), (n, x)
            branch = _branch(n, x)
            assert calls == ([_CALLS[branch]] if branch in _CALLS else []), (n, x, branch)
            reached.add(branch)
    assert reached == _BRANCHES


@pytest.mark.parametrize("n", [0, -3, 50.0, True, None])
def test_size_must_be_a_positive_integer(n):
    with pytest.raises(DomainError, match="n must be a positive integer"):
        kolmogorov_sf([0.1], n)
