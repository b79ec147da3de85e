import pytest

from rlatt import ModelParams, enumerate_lattice, sweep_spectra
from rlatt.eigenpoly import build_polynomials

ACCEPTANCE_GRID = [
    (n, m, g, p)
    for (n, m) in ((2, 2), (3, 2), (2, 3))
    for g in (0.5, 1.0, 1.7)
    for p in (0.0, 0.3, 0.7)
]


@pytest.fixture(scope="session")
def labeled():
    """Cached labeled spectra keyed by (n, m, g, p)."""
    cache = {}

    def get(n, m, g, p):
        key = (n, m, g, p)
        if key not in cache:
            cache[key] = sweep_spectra(ModelParams(n, m, g, p), [p])[0]
        return cache[key]

    return get


@pytest.fixture(scope="session")
def polys():
    """Cached polynomial coefficient matrices keyed by (n, m, g, p)."""
    cache = {}

    def get(n, m, g, p):
        key = (n, m, g, p)
        if key not in cache:
            params = ModelParams(n, m, g, p)
            cache[key] = build_polynomials(params, enumerate_lattice(n, m))
        return cache[key]

    return get
