"""Bulk-limit dispersion averages with endpoint-divergence detection.

In the infinite-ring limit mode sums become averages of smooth functions of
the dispersion over the half zone alpha in [0, pi/2]. Inverse-frequency
averages can diverge when the transverse branch goes soft at the zone edge;
they are evaluated after the substitution u = cos(alpha), which turns the
soft zero into an endpoint power law. One detector decides divergence: the
zone-edge gap against the endpoint weight. It is complete for this model:
near the edge the transverse branch is omega^2 = gap^2 + c delta^2 with
c = sum_odd 1/tau - sum_even 1/tau > 0 (delta = pi/2 - alpha), so the
inverse average diverges exactly when the gap closes under a nonzero
weight. Every other average is finite, and one that the refinement cannot
resolve to the error target raises QuadratureFailure.

Callers pass each integrand as one closure with the weight and the
dispersion inlined, in the form the package's port of SciPy's ``quad``
takes: a rule integrand ``f(centr, hlgth)`` that returns its values at the
21 nodes ``_solvers.rule_nodes(centr, hlgth)`` of one interval in one call,
so a bulk sweep pays one call per rule instead of one per node. The
adaptive rule is QUADPACK's QAGS (21-point Gauss-Kronrod with Wynn's
epsilon extrapolation; Piessens et al., QUADPACK, Springer 1983).
"""

from __future__ import annotations

import math

from ._solvers import quad
from .errors import Divergent, QuadratureFailure

HALF_PI = math.pi / 2.0

#: Squared zone-edge gaps at or below this count as a soft mode.
GAP2_TOL = 1e-12

#: Endpoint weights above this, over a soft mode, mean divergence.
WEIGHT_TOL = 1e-12

#: Absolute error target of every average: a QAGS result is accepted when
#: its error estimate is within max(ATOL, 1e-8 |value|), and the endpoint
#: refinement stops at the first piece below ATOL.
ATOL = 1e-10


def _checked_quad(f, lo, hi):
    val, err = quad(f, lo, hi, limit=200)
    if err > max(ATOL, 1e-8 * abs(val)):
        raise QuadratureFailure(
            f"integral on [{lo:.3g}, {hi:.3g}] reached error {err:.3e} only"
        )
    return val


def integrate_weighted_frequency(f) -> float:
    """integral_0^{pi/2} f(alpha) d alpha for f = weight * omega, given as
    a rule integrand.

    The integrand is bounded, so plain adaptive quadrature suffices.
    """
    return _checked_quad(f, 0.0, HALF_PI)


def integrate_weighted_inverse(g, gap2: float, w_end: float, scale2: float):
    """integral_0^{pi/2} weight(alpha) / omega(alpha) d alpha, or Divergent.

    The average is taken after substituting u = cos(alpha), which maps the
    zone edge to u = 0: ``g`` is the rule integrand of
    ``weight / sqrt(omega^2 (1 - u^2))`` at alpha = acos(u), and 0 where
    omega^2 <= 0 (only inside the soft window, where the weight vanishes).
    ``gap2`` is omega^2 at the zone edge,
    ``w_end`` the weight there and ``scale2`` = |omega^2(0)|.

    Precondition: omega^2 attains its minimum at the zone edge alpha = pi/2
    with nonzero curvature there (true for the transverse branch of this
    model; the axial branch never gets soft). A vanishing zone-edge
    frequency under a weight that does not vanish there is Divergent, and
    nothing else is; near-soft cases are refined toward the endpoint until
    a piece falls below ATOL, and a piece that misses the error target
    raises QuadratureFailure.
    """
    if gap2 <= GAP2_TOL and abs(w_end) > WEIGHT_TOL:
        return Divergent("zone-edge frequency vanishes under a nonvanishing weight")

    if gap2 > 2.5e-3 * scale2:
        return _checked_quad(g, 0.0, 1.0)

    # soft or nearly soft edge: peel the endpoint off dyadically
    lo = 0.25
    total = _checked_quad(g, lo, 1.0)
    for _ in range(80):
        piece = _checked_quad(g, lo / 2.0, lo)
        lo /= 2.0
        total += piece
        if piece < ATOL:
            return total
    raise QuadratureFailure("endpoint refinement exhausted without a verdict")
