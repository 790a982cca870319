"""Bulk-limit dispersion averages with endpoint-divergence detection.

In the infinite-ring limit mode sums become averages of smooth functions of
the dispersion over the half zone alpha in [0, pi/2]. Inverse-frequency
averages can diverge when the transverse branch goes soft at the zone edge;
they are evaluated after the substitution u = cos(alpha), which turns the
soft zero into an endpoint power law, and guarded by two detectors: an
analytic check of the zone-edge gap against the endpoint weight, and a
growth watch on interval refinements toward the endpoint.

Callers pass the integrands themselves, with the weight and the dispersion
inlined, because the quadrature evaluates them tens of thousands of times
per bulk sweep. The adaptive rule is QUADPACK's QAGS (21-point
Gauss-Kronrod with Wynn's epsilon extrapolation; Piessens et al., QUADPACK,
Springer 1983), in the package's own port of SciPy's ``quad``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._solvers import quad
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

#: Absolute error target of every average: a QAGS result is accepted when
#: its error estimate is within max(ATOL, 1e-8 |value|), and the endpoint
#: refinement stops at the first piece below ATOL.
ATOL = 1e-10


@dataclass(frozen=True)
class Divergent:
    """Marker for a quantity that diverges, with detection provenance."""

    reason: str

    def __repr__(self):
        return f"Divergent({self.reason!r})"


def _checked_quad(f, lo, hi):
    val, err = quad(f, lo, hi, limit=200)
    if err > max(ATOL, 1e-8 * abs(val)):
        raise QuadratureFailure(
            f"integral on [{lo:.3g}, {hi:.3g}] reached error {err:.3e} only"
        )
    return val


def integrate_weighted_frequency(f) -> float:
    """integral_0^{pi/2} f(alpha) d alpha for f = weight * omega.

    The integrand is bounded, so plain adaptive quadrature suffices.
    """
    return _checked_quad(f, 0.0, HALF_PI)


def integrate_weighted_inverse(g, gap2: float, w_end: float, scale2: float):
    """integral_0^{pi/2} weight(alpha) / omega(alpha) d alpha, or Divergent.

    The average is taken after substituting u = cos(alpha), which maps the
    zone edge to u = 0: ``g(u) = weight / sqrt(omega^2 (1 - u^2))`` at
    alpha = acos(u), and 0 where omega^2 <= 0 (only inside the soft window,
    where the weight vanishes). ``gap2`` is omega^2 at the zone edge,
    ``w_end`` the weight there and ``scale2`` = |omega^2(0)|.

    Precondition: omega^2 attains its minimum at the zone edge alpha = pi/2
    (true for the transverse branch of this model; the axial branch never
    gets soft). A vanishing zone-edge frequency under a weight that does not
    vanish there is reported as Divergent immediately; otherwise, near-soft
    cases are refined toward the endpoint and flagged Divergent if the
    estimate keeps growing instead of settling.
    """
    if gap2 <= GAP2_TOL and abs(w_end) > WEIGHT_TOL:
        return Divergent("zone-edge frequency vanishes under a nonvanishing weight")

    if gap2 > 2.5e-3 * scale2:
        return _checked_quad(g, 0.0, 1.0)

    # soft or nearly soft edge: peel the endpoint off dyadically
    lo = 0.25
    total = _checked_quad(g, lo, 1.0)
    prev_inc = None
    non_decaying = 0
    for _ in range(80):
        piece = _checked_quad(g, lo / 2.0, lo)
        lo /= 2.0
        total += piece
        if piece < ATOL:
            return total
        if prev_inc is not None:
            non_decaying = non_decaying + 1 if piece > GROWTH_RATIO * prev_inc else 0
            if non_decaying >= GROWTH_COUNT:
                return Divergent(
                    "interval refinement toward the zone edge kept growing"
                )
        prev_inc = piece
    raise QuadratureFailure("endpoint refinement exhausted without a verdict")
