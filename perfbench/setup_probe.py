"""Cold-start probe: import minent and solve one tiny SDP of each family.

Run as a fresh process, it prints the seconds that took. The benchmark
also calls ``warm_up`` in its own process before it starts measuring.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def warm_up() -> None:
    import numpy as np

    from minent import channels, entropies, linalg

    entropies.cond_min_entropy_up(linalg.maximally_entangled(2))
    channels.diamond_distance(channels.identity_channel(2),
                              channels.replacer(linalg.maximally_mixed(2)))
    rho = linalg.DensityOperator(np.diag([0.7, 0.3]))
    sigma = linalg.DensityOperator(np.diag([0.4, 0.6]))
    entropies.d_hypothesis(0.1, rho, sigma.op)
    entropies.d_max_sdp(rho, sigma.op)


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import minent  # noqa: F401  (the import is what is timed)
    warm_up()
    print(time.perf_counter() - t0)
