"""Shared exception types, and the input rules every entry point checks
its arguments with: real, integer, qubits, spectral_interval and entry
return their input unchanged or raise ValueError naming the argument,
register_state and register_matrix return a numeric array-like (a nested
list too) as np.asarray of it, which callers use in its place, or raise
ValueError, angles returns a real vector as a float array or raises
ValueError, and dense raises DimensionError."""
import math
from collections.abc import Sequence

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
    """qs, when it is a sequence (a tuple, list, range, ...) or a 1-D array of
    distinct integer qubit indices (not bools) in [0, width)."""
    is_sequence = isinstance(qs, Sequence) or isinstance(qs, np.ndarray) and qs.ndim == 1
    if not (is_sequence and all(_is_integer(q) and 0 <= q < width for q in qs) and len(set(qs)) == len(qs)):
        raise ValueError(f"{name} must be a sequence of distinct integers in [0, {width}), got {qs!r}")
    return qs


def entry(x, kind: type, name: str):
    """x, when it is an instance of kind: a Circuit's gate, a PauliSum's Pauli
    string, a Pauli string's letters, or a stage's structured argument (its
    Hamiltonian, bounds, encoding, plan, circuit, observable, noise model or
    config).  The message writes "an" before a type name that starts with a vowel."""
    if not isinstance(x, kind):
        article = "an" if kind.__name__[0] in "AEIOUaeiou" else "a"
        raise ValueError(f"{name} must be {article} {kind.__name__}, got {x!r}")
    return x


def spectral_interval(iv) -> tuple:
    """iv as (a, b), when it holds two finite reals with 0 <= a < b <= 1."""
    if not (np.shape(iv) == (2,) and all(map(_is_finite_real, iv)) and 0.0 <= iv[0] < iv[1] <= 1.0):
        raise ValueError(f"interval must hold two reals with 0 <= a < b <= 1, got {iv!r}")
    return iv[0], iv[1]


def angles(x, name: str, m: int | None = None) -> np.ndarray:
    """x as a float array, when it is a 1-D array of finite real numbers (an
    integer or float dtype, never bool, str or complex), of length m when m
    is given: a parameter vector, phases or an angle table."""
    v = np.asarray(x)
    if v.dtype.kind not in "iuf" or v.ndim != 1 or (m is not None and len(v) != m) or not np.isfinite(v).all():
        want = "be a finite 1-D array of real angles" if m is None else f"hold {m} finite angles"
        raise ValueError(f"{name} must {want}, got an array of shape {v.shape} and dtype {v.dtype}")
    return v.astype(float, copy=False)


def _numeric(x, name: str) -> np.ndarray:
    """np.asarray(x), when it holds integers, floats or complex numbers."""
    x = np.asarray(x)
    if x.dtype.kind not in "iufc":
        raise ValueError(f"{name} must hold numbers, got dtype {x.dtype}")
    return x


def register_state(x, width: int | None = None, *, batch: bool = False, name: str = "state") -> np.ndarray:
    """np.asarray(x), when it is a numeric (2^w,) state, or also a (2^w, B)
    batch when batch; w = width, or any w when width is None."""
    x = _numeric(x, name)
    shape = x.shape
    side = shape[0] if len(shape) == 1 or (batch and len(shape) == 2) else 0
    if side < 1 or side & (side - 1) or (width is not None and side != 2**width):
        want = "(2^w,) state" + (" or (2^w, B) batch" if batch else "")
        raise ValueError(f"{name} of shape {shape} is not a {want}" + ("" if width is None else f" for width {width}"))
    return x


def register_matrix(x, width: int | None = None, *, hermitian: bool = False,
                    name: str = "density matrix") -> np.ndarray:
    """np.asarray(x), when it is a numeric (2^w, 2^w) array, w = width or any w
    when width is None, and when hermitian also finite and Hermitian to
    _HERMITIAN_TOL of its largest entry."""
    x = _numeric(x, name)
    shape = x.shape
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
