"""Shared exception types."""


class ConfigError(Exception):
    """Invalid manifest or configuration input."""


class DimensionError(Exception):
    """Problem too large for the dense desk-scale backends."""


class NumericalError(Exception):
    """Base for runtime numerical failures."""


class DegenerateSpectrumError(NumericalError):
    """Spectral bounds coincide; rescaling is undefined."""


class DecompositionRequiredError(Exception):
    """Operation needs a circuit decomposed into native gates."""


class PostSelectionError(NumericalError):
    """Ancilla post-selection probability is numerically zero."""


class OverMitigationError(NumericalError):
    """Depolarizing mitigation produced a non-positive denominator."""


class OptimizationError(NumericalError):
    """Optimizer hit a non-finite cost or diverged."""
