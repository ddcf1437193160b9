import math

import numpy as np
import pytest

from ffsparse import BlockSupport, compressible_signal, power_law_signal, random_frame


@pytest.mark.parametrize("call", [
    lambda fr, rng, bad: compressible_signal(fr, BlockSupport([0]), bad, rng),
    lambda fr, rng, bad: power_law_signal(fr, bad, rng),
], ids=["theta", "q"])
@pytest.mark.parametrize("bad", [-1.0, math.nan])
def test_signal_parameters_reject_nan_and_negative(call, bad):
    with pytest.raises(ValueError):
        call(random_frame(6, 3, 1, seed=1), np.random.default_rng(0), bad)


def test_compressible_signal_rejects_infinite_theta():
    with pytest.raises(ValueError):
        compressible_signal(random_frame(6, 3, 1, seed=1), BlockSupport([0]), math.inf,
                            np.random.default_rng(0))
