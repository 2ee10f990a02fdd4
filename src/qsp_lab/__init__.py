"""Quantum signal processing toolkit for Hamiltonian simulation at desk scale.

Everything is dense and exactly verifiable.  The modules are:

- operators: Pauli-sum Hamiltonians (Ising chains), spectral bounds,
  rescaling into [0, 1], and dense propagators.
- circuits: the gate-level circuit IR, decomposition into the native
  gate set, statevector, unitary and density-matrix simulation under a
  two-qubit depolarizing noise model, and Pauli measurement sampling.
- lcu: block encoding by linear combination of unitaries, with a
  Gray-code compressed select oracle.
- variational: block encoding by a variationally optimized reflection
  ansatz, with exact gradients and Hessians.
- qsp: the scalar QSP product and phase factors for exp(-i x t) on an
  interval.
"""

__version__ = "0.1.0"
