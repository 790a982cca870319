"""Exception types shared across the package."""


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


class DegenerateCoupling(RuntimeError):
    """Normal-form construction hit a degenerate coupling it cannot resolve."""


class NoConvergence(RuntimeError):
    """An iterative solver finished without meeting its residual target."""


class SizeLimitExceeded(ConfigError):
    """A dense computation was requested above its supported system size."""


class QuadratureFailure(RuntimeError):
    """Adaptive integration did not reach the requested accuracy."""


class NumericalFailure(RuntimeError):
    """A linear-algebra result violated a structural expectation."""
