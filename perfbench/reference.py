"""A fixed piece of reference work, timed to follow the machine's speed.

On a shared machine the same fit can take 40 % longer for minutes at a time.
The benchmark times this work after set-up and after every fit, and scales
each measurement by NOMINAL_S / (the reference time next to it), which
cancels most of that drift. A scaled time reads as the wall time on a
machine that does the reference work in NOMINAL_S. The work is the kind a
fit does, independent of the package under test: small SVDs, arithmetic
over a thousand points, and Python bookkeeping.
"""
import time

import numpy as np

NOMINAL_S = 0.06
_RNG = np.random.default_rng(7)
_POINTS = _RNG.normal(size=(1000, 3))
_SYSTEM = _RNG.normal(size=(8, 9))


def seconds() -> float:
    """Wall time of one pass of the reference work."""
    t0 = time.perf_counter()
    for i in range(1200):
        _, _, vt = np.linalg.svd(_SYSTEM)
        r = np.abs(_POINTS @ vt[-1, :3])
        float(np.minimum(r / 3.0, 1.0).sum())
        {int(j): i for j in np.nonzero(r < 0.05)[0][:8]}
    return time.perf_counter() - t0


def scaled(measured_s: float, reference_s: float) -> float:
    """A measured time, scaled to the nominal machine speed."""
    return measured_s * NOMINAL_S / reference_s
