"""Exception and warning types shared by all physics and I/O modules."""


class CavitySpdcError(Exception):
    """Base class for all errors raised by this package."""


class DispersionWindowError(CavitySpdcError):
    """A frequency falls outside the validity window of the dispersion model."""


class NotPhasematchableError(CavitySpdcError):
    """No crystal orientation satisfies collinear phasematching."""


class DivergenceError(CavitySpdcError):
    """A geometric sum or Airy expression diverges (unit reflectivity)."""


class EmptyPeakSetError(CavitySpdcError):
    """Peak extraction found no peaks above the requested prominence."""


class InfeasibleDesignError(CavitySpdcError):
    """The source-design recipe cannot meet the requested target."""


class ConfigError(CavitySpdcError):
    """A run-configuration file is missing, malformed or inconsistent."""


class UnderResolutionWarning(UserWarning):
    """A grid resolves cavity modes with fewer than the recommended samples."""
