"""Pauli-sum Hamiltonians, spectral bounds, rescaling, and dense oracles.

Conventions: qubit 0 is the leftmost (most significant) tensor factor, so
a computational basis index reads as the bitstring q0 q1 ... q_{n-1}.
Everything here is dense and exact; the hard cap MAX_DENSE_QUBITS keeps
matrices verifiable by direct diagonalization.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSpectrumError, DimensionError

MAX_DENSE_QUBITS = 12

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-qubit Paulis, e.g. "ZZI"."""

    letters: str

    def __post_init__(self):
        if not self.letters or any(c not in "IXYZ" for c in self.letters):
            raise ValueError(f"invalid Pauli letters: {self.letters!r}")

    @property
    def n(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return set(self.letters) == {"I"}

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(q for q, c in enumerate(self.letters) if c != "I")

    def to_matrix(self) -> np.ndarray:
        m = PAULI_1Q[self.letters[0]]
        for c in self.letters[1:]:
            m = np.kron(m, PAULI_1Q[c])
        return m

    @staticmethod
    def single(n: int, qubit: int, letter: str) -> "PauliString":
        if not 0 <= qubit < n:
            raise ValueError(f"qubit {qubit} outside [0, {n})")
        letters = ["I"] * n
        letters[qubit] = letter
        return PauliString("".join(letters))

    def __str__(self) -> str:
        return self.letters


@dataclass
class PauliSum:
    """Weighted sum of Pauli strings on a fixed register.

    Duplicate strings are permitted (the LCU padding relies on this);
    canonicalize() merges them.
    """

    n: int
    terms: list[tuple[float, PauliString]] = field(default_factory=list)

    def __post_init__(self):
        for coeff, ps in self.terms:
            self._check_term(coeff, ps)

    def _check_term(self, coeff: float, ps: PauliString) -> None:
        if ps.n != self.n:
            raise ValueError(f"term {ps} does not act on {self.n} qubits")
        if not np.isfinite(coeff):
            raise ValueError("coefficients must be finite reals")

    def add(self, coeff: float, letters: str) -> "PauliSum":
        term = (float(coeff), PauliString(letters))
        self._check_term(*term)
        self.terms.append(term)
        return self

    def canonicalize(self, drop_zero: bool = True, tol: float = 0.0) -> "PauliSum":
        """Merge duplicate strings; optionally drop (near-)zero coefficients."""
        merged: dict[str, float] = {}
        for coeff, ps in self.terms:
            merged[ps.letters] = merged.get(ps.letters, 0.0) + coeff
        terms = [
            (c, PauliString(s))
            for s, c in merged.items()
            if not (drop_zero and abs(c) <= tol)
        ]
        return PauliSum(self.n, terms)

    def scaled(self, factor: float) -> "PauliSum":
        return PauliSum(self.n, [(factor * c, p) for c, p in self.terms])

    def coefficient_one_norm(self) -> float:
        return float(sum(abs(c) for c, _ in self.terms))

    def to_matrix(self) -> np.ndarray:
        return to_matrix(self)


@dataclass(frozen=True)
class SpectralBounds:
    """Certified enclosure [lambda_minus, lambda_plus] of the spectrum."""

    lambda_minus: float
    lambda_plus: float
    method: str  # "triangle" or "exact"

    def __post_init__(self):
        if self.lambda_minus > self.lambda_plus:
            raise ValueError("lambda_minus must not exceed lambda_plus")
        if self.method not in ("triangle", "exact"):
            raise ValueError(f"unknown bound method {self.method!r}")


@dataclass
class RescaledHamiltonian:
    """Affinely rescaled Hamiltonian with spectrum inside [interval_a, interval_b].

    time_factor converts physical time t to the effective evolution time,
    and global_phase_rate gives the accumulated global phase per unit t:
    exp(-i * time_factor*t * H_rescaled) = exp(-i*t*global_phase_rate) * exp(-i*t*H).
    """

    h_tilde: PauliSum
    interval_a: float
    interval_b: float
    time_factor: float
    global_phase_rate: float

    def effective_time(self, t: float) -> float:
        return self.time_factor * t


def build_ising_chain(n: int, coupling: float, fields_x: list[float], field_z: float) -> PauliSum:
    """Open-boundary Ising chain: -J sum Z_i Z_{i+1} - sum h_i X_i - m sum Z_i."""
    if n < 1:
        raise ValueError("need at least one site")
    if len(fields_x) != n:
        raise ValueError(f"expected {n} transverse fields, got {len(fields_x)}")
    h = PauliSum(n)
    for i in range(n - 1):
        letters = ["I"] * n
        letters[i] = letters[i + 1] = "Z"
        h.add(-coupling, "".join(letters))
    for i in range(n):
        h.add(-float(fields_x[i]), PauliString.single(n, i, "X").letters)
    for i in range(n):
        h.add(-float(field_z), PauliString.single(n, i, "Z").letters)
    return h


def triangle_bounds(h: PauliSum) -> SpectralBounds:
    """lambda_pm = +- sum_k |c_k|; Pauli strings have unit spectral norm."""
    if not h.terms:
        raise ValueError("empty Hamiltonian")
    bound = h.coefficient_one_norm()
    return SpectralBounds(-bound, bound, "triangle")


def exact_extremes(h: PauliSum) -> SpectralBounds:
    """Extreme eigenvalues by dense diagonalization (desk-scale oracle)."""
    eigvals = np.linalg.eigvalsh(to_matrix(h))
    return SpectralBounds(float(eigvals[0]), float(eigvals[-1]), "exact")


def rescale(h: PauliSum, bounds: SpectralBounds, a: float = 0.0, b: float = 1.0) -> RescaledHamiltonian:
    """Map the spectrum into [a, b] via H -> (H - lambda_- I)(b-a)/(lambda_+ - lambda_-) + a I.

    The identity term is kept explicit in the output (the LCU stage needs it).
    """
    if not (0.0 <= a < b <= 1.0):
        raise ValueError(f"need 0 <= a < b <= 1, got [{a}, {b}]")
    span = bounds.lambda_plus - bounds.lambda_minus
    if span <= 0.0:
        raise DegenerateSpectrumError("spectral bounds coincide; cannot rescale")
    scale = (b - a) / span
    merged = h.canonicalize(drop_zero=False)
    identity = PauliString("I" * h.n)
    id_coeff = a - scale * bounds.lambda_minus
    terms: list[tuple[float, PauliString]] = []
    seen_identity = False
    for coeff, ps in merged.terms:
        if ps.is_identity:
            terms.append((scale * coeff + id_coeff, ps))
            seen_identity = True
        else:
            terms.append((scale * coeff, ps))
    if not seen_identity:
        terms.append((id_coeff, identity))
    return RescaledHamiltonian(
        h_tilde=PauliSum(h.n, terms),
        interval_a=a,
        interval_b=b,
        time_factor=span / (b - a),
        global_phase_rate=(a * bounds.lambda_plus - b * bounds.lambda_minus) / (b - a),
    )


def to_matrix(h: PauliSum) -> np.ndarray:
    """Dense Hermitian matrix of the Pauli sum."""
    if h.n > MAX_DENSE_QUBITS:
        raise DimensionError(f"{h.n} qubits exceeds the dense cap of {MAX_DENSE_QUBITS}")
    dim = 2**h.n
    m = np.zeros((dim, dim), dtype=complex)
    for coeff, ps in h.terms:
        m += coeff * ps.to_matrix()
    return m


def exact_propagator(h: PauliSum, t: float) -> np.ndarray:
    """exp(-i H t) via Hermitian eigendecomposition; ground truth everywhere."""
    eigvals, eigvecs = np.linalg.eigh(to_matrix(h))
    return (eigvecs * np.exp(-1j * t * eigvals)) @ eigvecs.conj().T
