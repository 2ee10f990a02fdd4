"""Pauli-sum Hamiltonians, spectral bounds, rescaling, and dense oracles.

Conventions: qubit 0 is the leftmost (most significant) tensor factor, so
a computational basis index reads as the bitstring q0 q1 ... q_{n-1}.
PauliString is the one definition of a Pauli operator: its binary
symplectic form (symplectic) and its signed permutation are what every
other module reads.  Everything here is dense and exact; the hard cap
errors.MAX_DENSE_QUBITS keeps matrices verifiable by direct diagonalization.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSpectrumError, dense, entry, integer, qubits, real, spectral_interval

_I_POWERS = np.array([1, 1j, -1, -1j])  # i^k for k mod 4
# a string's bits: 1 at the letters with an X part (X, Y), and at those with a Z part (Z, Y)
_X_BITS, _Z_BITS = str.maketrans("IXYZ", "0110"), str.maketrans("IXYZ", "0011")


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-qubit Paulis, e.g. "ZZI"."""

    letters: str

    def __post_init__(self):
        if not entry(self.letters, str, "Pauli letters") or any(c not in "IXYZ" for c in self.letters):
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

    def symplectic(self) -> tuple[int, int, int]:
        """(x, z, y): the bit masks of the letters with an X part (X, Y) and of
        those with a Z part (Z, Y), qubit 0 the most significant bit, and the
        number of Y letters, so that the string is i^y X^x Z^z."""
        return int(self.letters.translate(_X_BITS), 2), int(self.letters.translate(_Z_BITS), 2), self.letters.count("Y")

    def signed_permutation(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, entries): column j of the matrix holds its one nonzero entry,
        entries[j], in row rows[j]: P|j> = i^y (-1)^|j & z| |j ^ x>."""
        x, z, y = self.symplectic()
        j = np.arange(2**self.n)
        signs = 1.0 - 2.0 * (np.bitwise_count(j & z) % 2)  # in floats: bitwise_count is unsigned
        return j ^ x, _I_POWERS[y % 4] * signs

    def to_matrix(self) -> np.ndarray:
        rows, entries = self.signed_permutation()
        m = np.zeros((len(rows), len(rows)), dtype=complex)
        m[rows, np.arange(len(rows))] = entries
        return m

    @staticmethod
    def single(n: int, qubit: int, letter: str) -> "PauliString":
        qubits((qubit,), "qubit", integer(n, "n", positive=True))
        if letter not in ("I", "X", "Y", "Z"):
            raise ValueError(f"letter must be one of I, X, Y, Z, got {letter!r}")
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
        integer(self.n, "n", positive=True)
        self.terms = list(self.terms)
        for term in self.terms:
            if not (isinstance(term, tuple) and len(term) == 2):
                raise ValueError(f"term must be a (coefficient, PauliString) pair, got {term!r}")
            self._check_term(*term)

    def _check_term(self, coeff: float, ps: PauliString) -> None:
        if entry(ps, PauliString, "term").n != self.n:
            raise ValueError(f"term {ps} does not act on {self.n} qubits")
        real(coeff, "coefficient")

    def add(self, coeff: float, letters: str) -> "PauliSum":
        ps = PauliString(letters)
        self._check_term(coeff, ps)
        self.terms.append((float(coeff), ps))
        return self

    def canonicalize(self) -> "PauliSum":
        """Merge duplicate strings and drop exactly-zero coefficients."""
        merged: dict[str, float] = {}
        for coeff, ps in self.terms:
            merged[ps.letters] = merged.get(ps.letters, 0.0) + coeff
        return PauliSum(self.n, [(c, PauliString(s)) for s, c in merged.items() if c != 0.0])

    def scaled(self, factor: float) -> "PauliSum":
        real(factor, "factor")
        return PauliSum(self.n, [(factor * c, p) for c, p in self.terms])

    def coefficient_one_norm(self) -> float:
        return float(sum(abs(c) for c, _ in self.terms))

    def to_matrix(self) -> np.ndarray:
        """Dense Hermitian matrix of the Pauli sum."""
        dim = 2 ** dense(self.n)
        m = np.zeros((dim, dim), dtype=complex)
        columns = np.arange(dim)
        for coeff, ps in self.terms:
            rows, entries = ps.signed_permutation()
            m[rows, columns] += coeff * entries
        return m


@dataclass(frozen=True)
class SpectralBounds:
    """Certified enclosure [lambda_minus, lambda_plus] of the spectrum."""

    lambda_minus: float
    lambda_plus: float

    def __post_init__(self):
        if real(self.lambda_minus, "lambda_minus") > real(self.lambda_plus, "lambda_plus"):
            raise ValueError("lambda_minus must not exceed lambda_plus")


@dataclass
class RescaledHamiltonian:
    """Affinely rescaled Hamiltonian with spectrum inside [interval_a, interval_b].

    time_factor converts physical time t to the effective evolution time:
    exp(-i * time_factor*t * H_rescaled) = exp(-i*t*H) up to a global phase,
    which post-selected states, reduced density matrices and fidelities do
    not carry.
    """

    h_tilde: PauliSum
    interval_a: float
    interval_b: float
    time_factor: float


def build_ising_chain(n: int, coupling: float, fields_x: list[float], field_z: float) -> PauliSum:
    """Open-boundary Ising chain: -J sum Z_i Z_{i+1} - sum h_i X_i - m sum Z_i."""
    if integer(n, "n") == 0:
        raise ValueError("need at least one site")
    if np.shape(fields_x) != (n,):
        raise ValueError(f"fields_x must hold {n} transverse fields, got {fields_x!r}")
    h, coupling = PauliSum(n), real(coupling, "coupling")  # checked once: a 1-site chain has no ZZ term
    for i in range(n - 1):
        letters = ["I"] * n
        letters[i] = letters[i + 1] = "Z"
        h.add(-coupling, "".join(letters))
    for i in range(n):
        h.add(-real(fields_x[i], "fields_x"), PauliString.single(n, i, "X").letters)
    for i in range(n):
        h.add(-real(field_z, "field_z"), PauliString.single(n, i, "Z").letters)
    return h


def triangle_bounds(h: PauliSum) -> SpectralBounds:
    """lambda_pm = +- sum_k |c_k|; Pauli strings have unit spectral norm."""
    if not entry(h, PauliSum, "h").terms:
        raise ValueError("empty Hamiltonian")
    bound = h.coefficient_one_norm()
    return SpectralBounds(-bound, bound)


def exact_extremes(h: PauliSum) -> SpectralBounds:
    """Extreme eigenvalues by dense diagonalization (desk-scale oracle)."""
    eigvals = np.linalg.eigvalsh(entry(h, PauliSum, "h").to_matrix())
    return SpectralBounds(float(eigvals[0]), float(eigvals[-1]))


def rescale(h: PauliSum, bounds: SpectralBounds, a: float = 0.0, b: float = 1.0) -> RescaledHamiltonian:
    """Map the spectrum into [a, b] via H -> (H - lambda_- I)(b-a)/(lambda_+ - lambda_-) + a I.

    The output is canonical (PauliSum.canonicalize), and its identity term
    carries the shift a - lambda_- (b-a)/(lambda_+ - lambda_-).
    """
    entry(h, PauliSum, "h")
    a, b = spectral_interval((a, b))
    span = entry(bounds, SpectralBounds, "bounds").lambda_plus - bounds.lambda_minus
    if span <= 0.0:
        raise DegenerateSpectrumError("spectral bounds coincide; cannot rescale")
    scale = (b - a) / span
    shift = (a - scale * bounds.lambda_minus, PauliString("I" * h.n))
    terms = [(scale * c, p) for c, p in h.terms] + [shift]
    return RescaledHamiltonian(
        h_tilde=PauliSum(h.n, terms).canonicalize(),
        interval_a=a,
        interval_b=b,
        time_factor=span / (b - a),
    )


def exact_propagator(h: PauliSum, t: float) -> np.ndarray:
    """exp(-i H t) via Hermitian eigendecomposition; ground truth everywhere.
    A t that is not a finite real number raises ValueError."""
    real(t, "time")
    eigvals, eigvecs = np.linalg.eigh(entry(h, PauliSum, "h").to_matrix())
    return (eigvecs * np.exp(-1j * t * eigvals)) @ eigvecs.conj().T
