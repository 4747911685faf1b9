import numpy as np
import pytest

from qoverlap import (
    bell_singlet,
    classical_correlated,
    coherent,
    coherent_ket,
    fock,
    ginibre_mixed,
    pure,
    thermal,
    werner,
)
from qoverlap.observables import purity_direct


def test_every_constructor_passes_invariants():
    for dm in (
        fock(2, 5),
        coherent(1.3 + 0.2j, 16),
        thermal(0.7, 16),
        bell_singlet(),
        classical_correlated(),
        werner(0.4),
        ginibre_mixed(6, 3, 123),
        pure([1, 1j, 0, 0]),
    ):
        dm.validate()


def test_fock_ground_state():
    dm = fock(0, 4)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(dm.mat, expected)


def test_coherent_zero_is_vacuum():
    assert np.abs(coherent(0.0, 8).mat - fock(0, 8).mat).max() < 1e-15


def test_coherent_amplitudes_match_poisson():
    alpha = 0.8
    ket = coherent_ket(alpha, 24)
    probs = np.abs(ket) ** 2
    # Poissonian photon statistics, renormalized tail is negligible at this cutoff
    from math import exp, factorial
    expected = np.array([exp(-alpha**2) * alpha ** (2 * n) / factorial(n) for n in range(24)])
    assert np.abs(probs - expected).max() < 1e-12


def test_thermal_truncated_purity():
    # analytic: Tr rho^2 -> 1/(2 nbar + 1) as the cutoff grows
    dm = thermal(1.0, 64)
    assert abs(purity_direct(dm) - 1.0 / 3.0) < 1e-6


def test_thermal_zero_temperature():
    assert np.abs(thermal(0.0, 6).mat - fock(0, 6).mat).max() < 1e-15


def test_werner_extremes():
    assert np.abs(werner(0.0).mat - np.eye(4) / 4).max() < 1e-15
    assert np.abs(werner(1.0).mat - bell_singlet().mat).max() < 1e-15


def test_ginibre_seed_determinism():
    a = ginibre_mixed(5, 3, 42)
    b = ginibre_mixed(5, 3, 42)
    c = ginibre_mixed(5, 3, 43)
    assert np.array_equal(a.mat, b.mat)
    assert np.abs(a.mat - c.mat).max() > 1e-3


@pytest.mark.filterwarnings("error")
def test_ginibre_seed_is_taken_mod_2_64():
    # A scalar Philox key is converted exactly, so every integer seed is its own stream.
    def mat(seed):
        return ginibre_mixed(3, 2, seed).mat

    assert np.array_equal(mat(-1), mat(2**64 - 1))
    assert np.array_equal(mat(2**53 + 1), mat(2**53 + 1 + 2**64))
    for a, b in ((-1, 0), (-1, -2), (2**53, 2**53 + 1)):
        assert not np.array_equal(mat(a), mat(b))


@pytest.mark.parametrize("seed", [1.5, 3.0, True, "3"])
def test_ginibre_refuses_seeds_that_are_not_integers(seed):
    with pytest.raises(TypeError, match="seed must be an integer"):
        ginibre_mixed(3, 2, seed)


def test_ginibre_takes_numpy_integer_seeds():
    assert np.array_equal(ginibre_mixed(3, 2, np.int64(3)).mat, ginibre_mixed(3, 2, 3).mat)
    assert np.array_equal(ginibre_mixed(3, 2, np.uint64(2**64 - 1)).mat, ginibre_mixed(3, 2, -1).mat)


def test_parameter_validation():
    with pytest.raises(ValueError):
        fock(4, 4)
    with pytest.raises(ValueError):
        fock(-1, 4)
    with pytest.raises(ValueError):
        thermal(-0.1, 8)
    with pytest.raises(ValueError):
        werner(1.5)
    with pytest.raises(ValueError):
        ginibre_mixed(4, 0, 0)
    with pytest.raises(ValueError):
        pure([0.0, 0.0])
    with pytest.raises(ValueError, match="does not match dims"):
        pure([1, 0, 0], dims=(2, 2))
    with pytest.raises(ValueError, match="do not multiply to 6"):
        ginibre_mixed(6, 2, 0, dims=(2, 2))
