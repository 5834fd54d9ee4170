import numpy as np
import pytest

from minent import _sampling
from minent.linalg import DensityOperator, pure_state


@pytest.fixture
def rng():
    return _sampling.stream(1234, 0)


def basis_state(d: int, k: int, dims=None) -> DensityOperator:
    """The computational basis state |k><k| of dimension d."""
    v = np.zeros(d)
    v[k] = 1.0
    return pure_state(v, dims)


def random_two_qubit_states(seed: int, count: int, rank: int | None = None):
    gen = _sampling.stream(seed, 0xABCD)
    mats = _sampling.random_density_matrices(gen, 4, count, rank=rank)
    return [DensityOperator(m, (2, 2)) for m in mats]


def stinespring_output(channel, rho: DensityOperator) -> DensityOperator:
    """State on A (x) E produced by the channel's isometric extension."""
    from minent.channels import stinespring_isometry

    v = stinespring_isometry(channel)
    out = v.isometry @ rho.matrix @ v.isometry.conj().T
    return DensityOperator(out, (v.out_dim, v.env_dim))


def random_qubit_channels(seed: int, count: int, kraus: int = 2):
    from minent.channels import QuantumChannel

    gen = _sampling.stream(seed, 0xBEEF)
    return [QuantumChannel(ks)
            for ks in _sampling.random_channels_kraus(gen, 2, 2, kraus, count)]


def random_channel(seed: int, d_in: int, d_out: int, kraus: int):
    from minent.channels import QuantumChannel

    gen = _sampling.stream(seed, 0xE7A5)
    return QuantumChannel(_sampling.random_channels_kraus(gen, d_in, d_out,
                                                          kraus, 1)[0])
