"""Shared numerical tolerances and the master seed.

All thresholds used by the checkers live here as fixed constants, so that a
run can be reproduced from the seed alone.  Step-function values need none:
they are whole counts of one unit and are compared exactly.
"""

from __future__ import annotations

import os

# The rank rule, applied only by traced.nonzero_mask: singular values at or
# below RANK_RTOL times the largest are zero.
RANK_RTOL = 1e-10

# Absolute floor of the rank rule, below which singular values are zero
# regardless of scale; catches maps that are zero up to accumulated rounding.
ZERO_SV_ATOL = 1e-12

# Relative slack applied to a positive probe position when evaluating the
# right-hand side of a step-function inequality and to both sides of an
# equality (checks.tie_shifted, the one tie shift; the probe at 0 is not
# moved).  Forgives pure floating-point ties between breakpoints
# computed through different eigensolves; the same shift sets how far a
# cluster of breakpoints, counted as one probe, reaches.
TIE_RTOL = 1e-9

# Residual tolerance for structural identities (complex property c∘c = 0,
# chain-map commutation, homotopy relations).
STRUCTURE_ATOL = 1e-10

# Absolute quadrature target for the torsion/zeta integrals that have no
# closed form.
QUAD_ATOL = 1e-10

DEFAULT_SEED = 20240801

SEED_ENV_VAR = "L2TOR_SEED"


def seed_from_env(default: int = DEFAULT_SEED) -> int:
    """Resolve the master seed, honouring the L2TOR_SEED variable; a value
    that is no integer is a ValueError naming the variable."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None

