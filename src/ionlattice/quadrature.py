"""Bulk-limit dispersion averages with endpoint-divergence detection.

In the infinite-ring limit mode sums become averages of smooth functions of
the dispersion over the half zone alpha in [0, pi/2]. Inverse-frequency
averages can diverge when the transverse branch goes soft at the zone edge;
they are evaluated after the substitution u = cos(alpha), which turns the
soft zero into an endpoint power law, and guarded by two detectors: an
analytic check of the zone-edge gap against the endpoint weight, and a
growth watch on interval refinements toward the endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

from .errors import QuadratureFailure

HALF_PI = math.pi / 2.0

#: Squared zone-edge gaps at or below this count as a soft mode.
GAP2_TOL = 1e-12

#: Endpoint weights above this, over a soft mode, mean divergence.
WEIGHT_TOL = 1e-12

#: Refinements with increment ratios above this are treated as non-decaying.
GROWTH_RATIO = 0.75

#: Consecutive non-decaying refinements required to declare divergence.
GROWTH_COUNT = 5


@dataclass(frozen=True)
class Divergent:
    """Marker for a quantity that diverges, with detection provenance."""

    reason: str

    def __repr__(self):
        return f"Divergent({self.reason!r})"


def _checked_quad(f, lo, hi, atol):
    val, err = quad(f, lo, hi, limit=200)
    if err > max(atol, 1e-8 * abs(val)):
        raise QuadratureFailure(
            f"integral on [{lo:.3g}, {hi:.3g}] reached error {err:.3e} only"
        )
    return val


def integrate_weighted_frequency(weight, omega2, atol: float = 1e-10) -> float:
    """integral_0^{pi/2} weight(alpha) * omega(alpha) d alpha.

    The integrand is bounded, so plain adaptive quadrature suffices.
    """

    def f(a):
        w2 = omega2(a)
        return weight(a) * math.sqrt(w2 if w2 > 0.0 else 0.0)

    return _checked_quad(f, 0.0, HALF_PI, atol)


def integrate_weighted_inverse(weight, omega2, atol: float = 1e-10):
    """integral_0^{pi/2} weight(alpha) / omega(alpha) d alpha, or Divergent.

    Precondition: omega2 attains its minimum at the zone edge alpha = pi/2
    (true for the transverse branch of this model; the axial branch never
    gets soft). Substituting u = cos(alpha) maps the zone edge to u = 0.
    A vanishing zone-edge frequency under a weight that does not vanish
    there is reported as Divergent immediately; otherwise, near-soft cases
    are refined toward the endpoint and flagged Divergent if the estimate
    keeps growing instead of settling.
    """
    gap2 = omega2(HALF_PI)
    w_end = weight(HALF_PI)
    if gap2 <= GAP2_TOL and abs(w_end) > WEIGHT_TOL:
        return Divergent("zone-edge frequency vanishes under a nonvanishing weight")

    def g(u):
        a = math.acos(u)
        w2 = omega2(a)
        if w2 <= 0.0:
            # only reachable inside the soft window where the weight vanishes
            return 0.0
        return weight(a) / math.sqrt(w2 * (1.0 - u * u))

    scale2 = abs(omega2(0.0))
    if gap2 > 2.5e-3 * scale2:
        return _checked_quad(g, 0.0, 1.0, atol)

    # soft or nearly soft edge: peel the endpoint off dyadically
    lo = 0.25
    total = _checked_quad(g, lo, 1.0, atol)
    prev_inc = None
    non_decaying = 0
    for _ in range(80):
        piece = _checked_quad(g, lo / 2.0, lo, atol)
        lo /= 2.0
        total += piece
        if piece < atol:
            return total
        if prev_inc is not None:
            non_decaying = non_decaying + 1 if piece > GROWTH_RATIO * prev_inc else 0
            if non_decaying >= GROWTH_COUNT:
                return Divergent(
                    "interval refinement toward the zone edge kept growing"
                )
        prev_inc = piece
    raise QuadratureFailure("endpoint refinement exhausted without a verdict")
