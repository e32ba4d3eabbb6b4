"""Shared fixtures and helpers for the test suite."""

import tracemalloc

import numpy as np
import pytest

from knockint.network import CoupledNetwork, init_network


def random_network(p=4, hidden=(6, 5, 3), seed=0, task="regression",
                   coupling=True, scale=0.7):
    """A network with randomized (non-init) parameters for oracle checks.

    Glorot init gives small weights; rescaling plus randomized filter
    weights exercises the differentiation paths away from trivial regimes.
    """
    rng = np.random.default_rng(seed)
    net = init_network(p, hidden_sizes=hidden, task=task, seed=seed,
                       coupling=coupling)
    net.w = [scale * rng.standard_normal(wl.shape) for wl in net.w]
    net.b = [0.1 * rng.standard_normal(bl.shape) for bl in net.b]
    if coupling:
        net.z = rng.standard_normal(p)
        net.z_tilde = rng.standard_normal(p)
    return net


def peak_mib(fn, *args):
    """Peak traced memory of ``fn(*args)`` in MiB; numpy reports its
    allocations to ``tracemalloc``, so this counts every array the call makes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
