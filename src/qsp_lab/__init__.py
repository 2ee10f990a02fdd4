"""Quantum signal processing toolkit for Hamiltonian simulation at desk scale.

Everything is dense and exactly verifiable.  The modules are:

- operators: the one encoding of a Pauli string (its X/Z bit masks, Y
  count and signed permutation, which every other module reads),
  Pauli-sum Hamiltonians (Ising chains), spectral bounds, rescaling into
  an interval [a, b] inside [0, 1], and dense propagators.
- circuits: the gate-level circuit IR, decomposition into the native
  gate set, statevector and unitary simulation, density-matrix
  simulation under a NoiseModel (two-qubit depolarizing, per gate or
  global: the only way noise enters), and Pauli measurement sampling.
- lcu: block encoding by linear combination of unitaries, with a
  Gray-code compressed select oracle.
- variational: block encoding by a variationally optimized reflection
  ansatz, with exact gradients and Hessians.
- qsp: the scalar QSP product, phase factors for exp(-i x t) on an
  interval, and the QSP circuit of a block encoding.
- errors: the exception types and the input rules every entry point checks.
"""

__version__ = "0.1.0"
