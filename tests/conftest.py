import math

import numpy as np
import pytest

from catbath.floquet import FloquetParams
from catbath.hilbert import _fock_rabi_amplitudes, coherent_state

MHZ = 2.0 * math.pi * 1e6
NS = 1e-9

# eight-qubit drive table (linear MHz): xi, eps, nu, K
DRIVE_TABLE = [
    ("R1", 19.6, 81.5, 190.0, 250.0),
    ("R2", 19.9, 67.3, 200.0, 250.0),
    ("R3", 16.0, 47.3, 170.0, 250.0),
    ("R4", 20.2, 46.7, 180.0, 250.0),
    ("R5", 19.2, 62.4, 220.0, 250.0),
    ("R6", 20.5, 51.6, 210.0, 250.0),
    ("R7", 12.9, 40.9, 130.0, 250.0),
    ("R8", 16.3, 64.1, 160.0, 250.0),
]

# published effective couplings lambda_j/2 in linear MHz
LAMBDA_HALF_TABLE = [4.1, 3.3, 2.2, 2.6, 2.7, 2.5, 2.0, 3.2]


def photon_resolved_coh(times, alpha, spec, cutoff) -> np.ndarray:
    """|coh| of the photon-resolved branch model, summed level by level.

    |coh|^2 = sum_n |c_n|^2 prod_k |c_g,k(n, t)|^2 / sum_n |c_n|^2, c_n
    the Fock amplitudes of |alpha>, each c_g,k evaluated directly at
    every time: no angle addition and no chunks.
    """
    pop = np.abs(coherent_state(alpha, cutoff).amps) ** 2
    c_g, _ = _fock_rabi_amplitudes(
        np.arange(cutoff, dtype=float)[:, None, None],
        np.asarray(spec.couplings)[:, None],
        np.asarray(spec.detunings)[:, None],
        np.asarray(times, dtype=float),
    )  # (level, qubit, time)
    weight = np.prod(np.abs(c_g) ** 2, axis=1)
    return np.sqrt(np.sum(pop[:, None] * weight, axis=0) / np.sum(pop))


def drive_params(row) -> FloquetParams:
    name, xi, eps, nu, k = row
    return FloquetParams(xi=xi * MHZ, eps=eps * MHZ, nu=nu * MHZ, K=k * MHZ, name=name)


@pytest.fixture
def r1_params() -> FloquetParams:
    return drive_params(DRIVE_TABLE[0])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
