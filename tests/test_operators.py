import numpy as np
import pytest
import scipy.linalg

from qsp_lab.errors import DegenerateSpectrumError, DimensionError
from qsp_lab.operators import (
    PauliString,
    PauliSum,
    SpectralBounds,
    build_ising_chain,
    exact_extremes,
    exact_propagator,
    rescale,
    to_matrix,
    triangle_bounds,
)


def ising3():
    # h_i/J = -1.05, m/J = 0.5
    return build_ising_chain(3, 1.0, [-1.05] * 3, 0.5)


def ising4():
    # h_1/J = 1, other fields zero
    return build_ising_chain(4, 1.0, [0.0, 1.0, 0.0, 0.0], 0.0)


class TestBuildIsingChain:
    def test_three_site_terms(self):
        h = ising3()
        zz = [(c, p) for c, p in h.terms if len(p.support) == 2]
        xs = [(c, p) for c, p in h.terms if p.letters.count("X") == 1]
        zs = [(c, p) for c, p in h.terms if len(p.support) == 1 and "Z" in p.letters]
        assert len(zz) == 2 and all(c == -1.0 for c, _ in zz)
        assert len(xs) == 3 and all(c == pytest.approx(1.05) for c, _ in xs)
        assert len(zs) == 3 and all(c == pytest.approx(-0.5) for c, _ in zs)

    def test_single_site(self):
        h = build_ising_chain(1, 1.0, [0.3], 0.0)
        nonzero = [(c, p) for c, p in h.canonicalize().terms]
        assert nonzero == [(-0.3, PauliString("X"))]

    def test_four_site_sparse_field(self):
        h = ising4().canonicalize()
        assert sorted(p.letters for _, p in h.terms) == sorted(["ZZII", "IZZI", "IIZZ", "IXII"])
        assert all(c == -1.0 for c, _ in h.terms)

    def test_field_length_mismatch(self):
        with pytest.raises(ValueError):
            build_ising_chain(3, 1.0, [1.0, 2.0], 0.0)

    def test_non_finite_coupling_rejected(self):
        with pytest.raises(ValueError):
            build_ising_chain(2, float("nan"), [1.0, 1.0], 0.0)


class TestPauliStringSingle:
    def test_qubit_past_end_rejected(self):
        with pytest.raises(ValueError):
            PauliString.single(3, 3, "X")

    def test_negative_qubit_rejected(self):
        with pytest.raises(ValueError):
            PauliString.single(3, -1, "Z")


class TestPauliSumAdd:
    def test_add_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            PauliSum(2).add(1.0, "XYZ")

    def test_add_rejects_non_finite_coefficient(self):
        with pytest.raises(ValueError):
            PauliSum(1).add(float("nan"), "X")


class TestBounds:
    def test_triangle_three_site(self):
        assert triangle_bounds(ising3()).lambda_plus == pytest.approx(6.65)
        assert triangle_bounds(ising3()).lambda_minus == pytest.approx(-6.65)

    def test_triangle_four_site(self):
        b = triangle_bounds(ising4())
        assert (b.lambda_minus, b.lambda_plus) == (-4.0, 4.0)

    def test_triangle_single_term(self):
        h = PauliSum(1).add(0.7, "X")
        b = triangle_bounds(h)
        assert (b.lambda_minus, b.lambda_plus) == (-0.7, 0.7)

    def test_exact_single_x(self):
        b = exact_extremes(PauliSum(1).add(0.7, "X"))
        assert b.lambda_minus == pytest.approx(-0.7, abs=1e-12)
        assert b.lambda_plus == pytest.approx(0.7, abs=1e-12)

    def test_exact_zz(self):
        b = exact_extremes(PauliSum(2).add(1.0, "ZZ"))
        assert (b.lambda_minus, b.lambda_plus) == pytest.approx((-1.0, 1.0))

    def test_triangle_encloses_exact(self):
        for h in (ising3(), ising4()):
            tri, ex = triangle_bounds(h), exact_extremes(h)
            assert tri.lambda_minus <= ex.lambda_minus <= ex.lambda_plus <= tri.lambda_plus


class TestRescale:
    def test_three_site_factor(self):
        r = rescale(ising3(), triangle_bounds(ising3()), 0.0, 1.0)
        assert r.time_factor == pytest.approx(13.3)
        ht = to_matrix(r.h_tilde)
        expected = (to_matrix(ising3()) + 6.65 * np.eye(8)) / 13.3
        assert np.allclose(ht, expected, atol=1e-12)

    def test_identity_rescaling(self):
        h = PauliSum(1).add(0.5, "I").add(0.5, "Z")  # spectrum {0, 1}
        r = rescale(h, SpectralBounds(0.0, 1.0, "exact"), 0.0, 1.0)
        assert r.time_factor == pytest.approx(1.0)
        assert np.allclose(to_matrix(r.h_tilde), to_matrix(h), atol=1e-12)

    def test_four_site_coefficients(self):
        r = rescale(ising4(), triangle_bounds(ising4()), 0.0, 1.0)
        coeffs = {p.letters: c for c, p in r.h_tilde.canonicalize(drop_zero=False).terms}
        assert coeffs["IIII"] == pytest.approx(0.5)
        for s in ("ZZII", "IZZI", "IIZZ", "IXII"):
            assert coeffs[s] == pytest.approx(-0.125)
        assert r.time_factor == pytest.approx(8.0)

    def test_spectrum_lands_in_interval(self):
        for a, b in ((0.0, 1.0), (0.1, 0.9)):
            r = rescale(ising3(), triangle_bounds(ising3()), a, b)
            eigs = np.linalg.eigvalsh(to_matrix(r.h_tilde))
            assert eigs.min() >= a - 1e-9 and eigs.max() <= b + 1e-9

    def test_phase_identity(self):
        # exp(-i t_eff H_tilde) = exp(-i phi) exp(-i t H)
        h = ising3()
        r = rescale(h, triangle_bounds(h), 0.2, 0.8)
        t = 0.37
        lhs = exact_propagator(r.h_tilde, r.effective_time(t))
        rhs = np.exp(-1j * t * r.global_phase_rate) * exact_propagator(h, t)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_degenerate_bounds(self):
        h = PauliSum(1).add(1.0, "I")
        with pytest.raises(DegenerateSpectrumError):
            rescale(h, SpectralBounds(1.0, 1.0, "exact"), 0.0, 1.0)


class TestDenseOracles:
    def test_identity_matrix(self):
        assert np.allclose(to_matrix(PauliSum(1).add(1.0, "I")), np.eye(2))

    def test_x_matrix(self):
        assert np.allclose(to_matrix(PauliSum(1).add(1.0, "X")), [[0, 1], [1, 0]])

    def test_trace_square_identity(self):
        for h in (ising3(), ising4()):
            m = to_matrix(h.canonicalize())
            lhs = np.trace(m @ m).real
            rhs = 2**h.n * sum(c**2 for c, _ in h.canonicalize().terms)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_dimension_cap(self):
        with pytest.raises(DimensionError):
            to_matrix(PauliSum(13).add(1.0, "I" * 13))

    def test_propagator_t0(self):
        assert np.allclose(exact_propagator(ising3(), 0.0), np.eye(8), atol=1e-12)

    def test_propagator_pauli_exponential(self):
        h = PauliSum(1).add(np.pi / 2.0, "X")
        u = exact_propagator(h, 1.0)
        assert np.allclose(u, -1j * np.array([[0, 1], [1, 0]]), atol=1e-12)

    def test_propagator_unitary_and_inverse(self):
        h = ising3()
        u, v = exact_propagator(h, 0.7), exact_propagator(h, -0.7)
        assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-10)
        assert np.allclose(u @ v, np.eye(8), atol=1e-10)

    def test_propagator_matches_expm(self):
        h = ising3()
        u = exact_propagator(h, 0.7)
        ref = scipy.linalg.expm(-1j * 0.7 * to_matrix(h))
        assert np.allclose(u, ref, atol=1e-10)
