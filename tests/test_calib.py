import numpy as np
import pytest

from catbath.calib import assemble_mcor, commanded_amplitudes


def test_assemble_mcor():
    assert np.allclose(assemble_mcor(np.zeros((3, 3))), np.eye(3))
    coeffs = np.zeros((2, 2))
    coeffs[1, 0] = 0.05
    assert np.allclose(assemble_mcor(coeffs), [[1, 0], [-0.05, 1]])
    rng = np.random.default_rng(2)
    c = rng.normal(scale=0.05, size=(3, 3))
    np.fill_diagonal(c, 0.0)
    m = assemble_mcor(c)
    for i in range(3):
        for j in range(3):
            assert m[i, j] == (1.0 if i == j else -c[i, j])
    with pytest.raises(ValueError):
        assemble_mcor(np.eye(2))


def test_commanded_amplitudes_worked_example():
    coeffs = np.zeros((2, 2))
    coeffs[1, 0] = 0.05
    z = commanded_amplitudes(assemble_mcor(coeffs), np.array([1.0, 0.0]))
    assert np.allclose(z, [1.0, 0.05])
    assert np.allclose(
        commanded_amplitudes(np.eye(3), np.array([1.0, 2.0, 3.0])), [1, 2, 3]
    )


def test_commanded_amplitudes_random_roundtrip(rng):
    for n in (2, 4, 10):
        c = rng.normal(scale=0.03, size=(n, n))
        np.fill_diagonal(c, 0.0)
        m = assemble_mcor(c)
        z_eff = rng.normal(size=n)
        z_cmd = commanded_amplitudes(m, z_eff)
        assert np.linalg.norm(m @ z_cmd - z_eff) < 1e-12
    with pytest.raises(ValueError):
        commanded_amplitudes(np.zeros((2, 2)), np.array([1.0, 0.0]))
