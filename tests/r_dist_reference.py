"""The R-distribution, the structure-free counterpart of
wiretap.sample_A_dist: rows (a_i, psi) whose y is independent of a_i, with
the width of the A-distribution's y marginal at ||x|| = P.  The tests use it
as the null hypothesis of the search reductions and to check the
A-distribution's moments.
"""

import math

import numpy as np

from csikey.distributions import psi_sample
from csikey.errors import need_int
from csikey.wiretap import SystemParams


def r_dist_width(p: SystemParams) -> float:
    """Width of the structure-free y marginal, sqrt((kP)^2 + alpha^2)."""
    return math.hypot(p.k * p.P, p.alpha)


def sample_R_dist(p: SystemParams, rng: np.random.Generator,
                  count: int) -> tuple:
    """The batch (a, y) of rows (a_i, psi) with psi independent of a_i."""
    need_int("count", count, 1)
    a = psi_sample(p.k, rng, size=(count, p.n))
    y = psi_sample(r_dist_width(p), rng, size=count)
    return a, y
