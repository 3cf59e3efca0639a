import numpy as np
import pytest

from steprouter.router import RouterNet


@pytest.fixture
def zero_router():
    """A router whose weight matrices are zero: every prediction is exactly 0.5."""
    net = RouterNet.init(np.random.default_rng(0))
    for name in ("w1", "w2", "w3"):
        net.params[name][:] = 0.0
    return net
