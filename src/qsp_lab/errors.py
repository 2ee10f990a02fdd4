"""Shared exception types."""


class DimensionError(Exception):
    """Problem too large for the dense desk-scale backends."""


class NumericalError(Exception):
    """Base for runtime numerical failures."""


class DegenerateSpectrumError(NumericalError):
    """Spectral bounds coincide; rescaling is undefined."""


class OptimizationError(NumericalError):
    """Optimizer hit a non-finite cost or diverged."""
