"""Exception types shared across the package, and the Divergent marker."""

from dataclasses import dataclass


class ConfigError(ValueError):
    """Invalid parameters or an operation requested outside its domain."""


class DomainError(ValueError):
    """A numeric argument lies outside the mathematical domain of an operation."""


class ImaginaryFrequency(DomainError):
    """A squared mode frequency came out negative beyond tolerance.

    The offending mode indices are attached so callers can report which
    branch of the dispersion went unstable.
    """

    def __init__(self, message, modes=None):
        super().__init__(message)
        self.modes = list(modes) if modes is not None else []


class NoConvergence(RuntimeError):
    """An iterative solver finished without meeting its residual target."""


class QuadratureFailure(RuntimeError):
    """Adaptive integration did not reach the requested accuracy."""


class NumericalFailure(RuntimeError):
    """A linear-algebra result violated a structural expectation."""


@dataclass(frozen=True)
class Divergent:
    """Marker for a quantity that diverges, with detection provenance."""

    reason: str

    def __repr__(self):
        return f"Divergent({self.reason!r})"
