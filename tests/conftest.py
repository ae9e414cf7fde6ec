"""Shared fixtures: an isolated quantile cache and session-wide pivot tables."""

import os

import numpy as np
import pytest

import specnorm as sn
from specnorm import estimator


@pytest.fixture(scope="session", autouse=True)
def isolated_quantile_cache(tmp_path_factory):
    """Redirect the on-disk quantile cache away from the user's home."""
    path = tmp_path_factory.mktemp("quantile-cache")
    old = os.environ.get("SPECNORM_CACHE_DIR")
    os.environ["SPECNORM_CACHE_DIR"] = str(path)
    yield str(path)
    if old is None:
        os.environ.pop("SPECNORM_CACHE_DIR", None)
    else:
        os.environ["SPECNORM_CACHE_DIR"] = old


@pytest.fixture(scope="session")
def law_32(isolated_quantile_cache):
    """Full-size pivot table for the eigenvalue-share exponents (3, 2)."""
    return sn.mc_quantiles(3, 2, threads=2)


@pytest.fixture(scope="session")
def law_21(isolated_quantile_cache):
    """Full-size pivot table for the stationarity exponents (2, 1)."""
    return sn.mc_quantiles(2, 1, threads=2)


@pytest.fixture(scope="session")
def small_law(isolated_quantile_cache):
    """Minimal-size pivot table, for tests that only need a valid law object."""
    return sn.mc_quantiles(3, 2, replications=10_000, bm_steps=500, threads=2)


def make_path(values, f_exp=3, g_exp=2, valid=None, kind="tvdfpca", d=1):
    """Build a synthetic sequential-measure path on the grid {k/n}."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    eta = np.arange(1, n + 1) / n
    if valid is None:
        valid = np.ones(n, dtype=bool)
    return sn.SequentialFunctional(
        kind=kind, d=d, eta=eta, values=values, valid=np.asarray(valid, dtype=bool),
        f_exponent=f_exp, g_exponent=g_exp,
    )


def chunk_rows(monkeypatch, rows):
    """Build every estimate made after this call in eta chunks of ``rows`` rows."""
    monkeypatch.setattr(estimator, "_CHUNK_ROWS", rows)
    monkeypatch.setattr(estimator, "_CHUNK_BYTES", 0)
