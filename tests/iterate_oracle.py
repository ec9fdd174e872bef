"""The blocked loop that once computed example5's bounds, kept as an oracle.

It forms every bound e_1, ..., e_N 1024 powers at a time, as
orbit.iterate_convergence did before it returned the closed-form rule,
and raises once a block's bound, before widening, exceeds the reach
2^11 delta.  A pole of phi^n on the disc gives NaN here; the rule
refuses it.  orbit.iterate_bounds and artifacts.load_errors must give
its bits.
"""

import numpy as np

from freqdyn import orbit
from freqdyn.maps import _image_discs


def blocked_bounds(m, k, limit, n_steps: int) -> np.ndarray:
    if n_steps < 1:
        raise ValueError("need at least one iterate")
    step, disc = orbit._limit_frame(m, k, limit)
    s = complex(*map(float, step))
    (v0,), (rho,) = _image_discs(*orbit._INVERSION, disc.center, disc.radius)
    reach = 2.0 ** 11 * (abs(disc.center) - disc.radius)
    errors = np.empty(n_steps)
    for start in range(0, n_steps, 1024):
        block = errors[start : start + 1024]
        n = np.arange(start + 1, start + block.size + 1, dtype=float)
        with np.errstate(all="ignore"):
            np.divide(1.0, np.abs(v0 + n * s) - rho, out=block)
        # a pole of phi^n on the disc, or a shift that overflowed (1/inf = 0)
        block[~(block > 0.0)] = np.nan
        if np.any(block > reach):
            raise ValueError(f"the bounds on {k} exceed the reach of the margin")
        frac, exp = np.frexp(block * (1.0 + 2.0 ** -40))
        np.ldexp(np.ceil(np.ldexp(frac, 32)), exp - 32, out=block)
    return errors
