"""Numeric tolerance policy used across the package.

All geometric identity checks use TAU_GEOM scaled by the magnitude of the
inputs; rank/affine-independence tests use TAU_RANK; angle classification
uses TAU_ANGLE; verifier ratios get the absolute slack TAU_VERIFY. The
remaining constants name the fixed slacks of single checks, so that every
threshold in the package is defined here.
"""

import numpy as np

# Relative tolerance for geometric identities (scaled by input magnitude).
TAU_GEOM = 1e-9

# Rank test threshold for affine independence (relative singular value).
TAU_RANK = 1e-12

# Angle classification slack in radians.
TAU_ANGLE = 1e-10

# Absolute slack on verifier ratios (two solves, each ~1e-9 accurate).
TAU_VERIFY = 1e-7

# Relative slack of the in-ball test inside the move-to-front solver.
TAU_BALL = 1e-12

# A product of two cross products at or above -TAU_SIGN does not count as
# a strict sign change (the shared-edge sampler's opposite-sides test).
TAU_SIGN = 1e-18

# Slack on the parameters of a segment intersection: a crossing at
# parameter t counts as on the segment when -TAU_SEGMENT <= t <= 1 + TAU_SEGMENT.
TAU_SEGMENT = 1e-12

# Screening slack of the batch pipeline: a batch-computed ratio is trusted
# to TAU_SCREEN relative, and a batch center to TAU_SCREEN times the
# coordinate scale. Trials that can reach the batch maximum within these
# bounds are re-measured, and rejection tests this close to their threshold
# are re-run on the scalar solver.
TAU_SCREEN = 1e-12

# Relative slack of the Lemma 3 witness ratio against its closed form.
TAU_WITNESS = 1e-6


def geom_tol(scale):
    """Absolute tolerance for quantities of the given magnitude.

    `scale` may be a float (the result is a float) or a NumPy array (one
    tolerance per element).
    """
    if isinstance(scale, float):
        return TAU_GEOM * max(1.0, abs(scale))
    return TAU_GEOM * np.maximum(1.0, np.abs(scale))
