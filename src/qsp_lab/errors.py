"""Shared exception types, and the input rules every entry point checks
its arguments with: real, integer, qubits, spectral_interval,
register_state and register_matrix return their input unchanged or raise
ValueError naming the argument, angles returns a parameter vector as a
float array or raises ValueError, and dense raises DimensionError."""
import math

import numpy as np

MAX_DENSE_QUBITS = 12
# the types a real input may have (np.float64 is a float; bool, an int, is refused apart)
_REAL_TYPES = (float, int, np.floating, np.integer)
_HERMITIAN_TOL = 1e-10


class DimensionError(Exception):
    """Problem too large for the dense desk-scale backends."""


class NumericalError(Exception):
    """Base for runtime numerical failures."""


class DegenerateSpectrumError(NumericalError):
    """Spectral bounds coincide; rescaling is undefined."""


class OptimizationError(NumericalError):
    """Optimizer hit a non-finite cost or diverged."""


def _is_finite_real(x) -> bool:
    return isinstance(x, _REAL_TYPES) and not isinstance(x, bool) and math.isfinite(x)


def _is_integer(k) -> bool:
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool)


def real(x, name: str, lo: float = -math.inf, hi: float = math.inf, *, open_hi: bool = False):
    """x, when it is a finite real number (not a bool) in [lo, hi], or [lo, hi) when open_hi."""
    if not (_is_finite_real(x) and lo <= x and (x < hi if open_hi else x <= hi)):
        if hi == math.inf:
            raise ValueError(f"{name} must be a finite real number{f' >= {lo:g}' if lo > -math.inf else ''}, got {x!r}")
        raise ValueError(f"{name} must be a real number in [{lo:g}, {hi:g}{')' if open_hi else ']'}, got {x!r}")
    return x


def integer(k, name: str, *, positive: bool = False):
    """k, when it is an integer (not a bool) >= 0, or >= 1 when positive."""
    if not (_is_integer(k) and k >= (1 if positive else 0)):
        raise ValueError(f"{name} must be a {'positive' if positive else 'non-negative'} integer, got {k!r}")
    return k


def qubits(qs, name: str, width: float = math.inf):
    """qs, when it holds distinct integer qubit indices (not bools) in [0, width)."""
    if not (all(_is_integer(q) and 0 <= q < width for q in qs) and len(set(qs)) == len(qs)):
        raise ValueError(f"{name} must be distinct integers in [0, {width}), got {qs!r}")
    return qs


def spectral_interval(iv) -> tuple:
    """iv as (a, b), when it holds two finite reals with 0 <= a < b <= 1."""
    if not (np.shape(iv) == (2,) and all(map(_is_finite_real, iv)) and 0.0 <= iv[0] < iv[1] <= 1.0):
        raise ValueError(f"interval must hold two reals with 0 <= a < b <= 1, got {iv!r}")
    return iv[0], iv[1]


def angles(theta, m: int) -> np.ndarray:
    """theta as a float array, when it holds m finite angles (a parameter vector)."""
    x = np.asarray(theta, dtype=float)
    if x.shape != (m,) or not np.isfinite(x).all():
        raise ValueError(f"theta must hold {m} finite angles, got an array of shape {x.shape}")
    return x


def register_state(x, width: int | None = None, *, batch: bool = False, name: str = "state"):
    """x, when it is a (2^w,) state, or also a (2^w, B) batch when batch;
    w = width, or any w when width is None."""
    shape = np.shape(x)
    side = shape[0] if len(shape) == 1 or (batch and len(shape) == 2) else 0
    if side < 1 or side & (side - 1) or (width is not None and side != 2**width):
        want = "(2^w,) state" + (" or (2^w, B) batch" if batch else "")
        raise ValueError(f"{name} of shape {shape} is not a {want}" + ("" if width is None else f" for width {width}"))
    return x


def register_matrix(x, width: int | None = None, *, hermitian: bool = False, name: str = "density matrix"):
    """x, when it is a (2^w, 2^w) array, w = width or any w when width is None,
    and when hermitian also finite and Hermitian to _HERMITIAN_TOL of its largest entry."""
    shape = np.shape(x)
    side = shape[0] if len(shape) == 2 else 0
    if shape != (side, side) or side < 1 or side & (side - 1) or (width is not None and side != 2**width):
        want = "(2^w, 2^w)" if width is None else f"width {width}"
        raise ValueError(f"{name} of shape {shape} does not match {want}")
    if hermitian:
        scale = np.abs(x).max()  # NaN or inf when any entry is
        if not (np.isfinite(scale) and np.abs(x - x.conj().T).max() <= _HERMITIAN_TOL * scale):
            raise ValueError(f"{name} must be finite and Hermitian")
    return x


def dense(width: int) -> int:
    """width, when it is within MAX_DENSE_QUBITS, the cap that keeps every matrix diagonalizable."""
    if width > MAX_DENSE_QUBITS:
        raise DimensionError(f"width {width} exceeds the dense cap of {MAX_DENSE_QUBITS}")
    return width
