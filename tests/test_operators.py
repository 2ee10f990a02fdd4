import itertools

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

    def test_zero_sites_rejected(self):
        with pytest.raises(ValueError, match="at least one site"):
            build_ising_chain(0, 1.0, [], 0.0)

    @pytest.mark.parametrize("args, match", [
        ((2, 1.0, [0.1, 1j], 0.0), "^fields_x must"),
        ((1.5, 1.0, [0.1], 0.0), "^n must"),
        ((1, float("nan"), [0.1], 0.0), "^coupling must"),
    ], ids=["complex-field", "fractional-n", "one-site-nan-coupling"])
    def test_bad_argument_named(self, args, match):
        with pytest.raises(ValueError, match=match):
            build_ising_chain(*args)


@pytest.mark.parametrize("letters", ["", "XA", "xz", "Z Z"])
def test_pauli_string_rejects_bad_letters(letters):
    with pytest.raises(ValueError, match="invalid Pauli letters"):
        PauliString(letters)


# each input below raised AttributeError or TypeError, or built a string of
# the wrong width, before it was checked through an input rule
REFUSED_BY_A_RULE = [
    pytest.param(lambda: PauliString.single(3, 1, ""), "^letter must", id="single-empty-letter"),
    pytest.param(lambda: PauliString.single(2, 0, "XX"), "^letter must", id="single-two-letters"),
    pytest.param(lambda: PauliSum(2, [(1.0, "XX")]), "^term must be a PauliString", id="sum-of-a-string"),
    pytest.param(lambda: PauliString(3), "^Pauli letters must be a str", id="letters-an-int"),
    pytest.param(lambda: PauliSum(1).add(1.0, 3), "^Pauli letters must be a str", id="add-letters-an-int"),
    pytest.param(lambda: PauliSum(2, [1.0]), r"^term must be a \(coefficient, PauliString\) pair", id="term-a-float"),
    pytest.param(lambda: PauliSum(1, [(1.0, PauliString("X"), 2)]), r"^term must be a \(coefficient, PauliString\) pair",
                 id="term-a-triple"),
    pytest.param(lambda: build_ising_chain(2, 1.0, 0.5, 0.1), "^fields_x must hold 2", id="fields-a-float"),
    # a str or None factor raised TypeError from the product, and a bool was taken as a number
    *(pytest.param(lambda factor=factor: ising3().scaled(factor), "^factor must", id=f"scaled-by-{name}")
      for name, factor in [("a-str", "2"), ("none", None), ("a-bool", True), ("a-complex", 1j), ("nan", np.nan)]),
    # an object of another type raised AttributeError
    pytest.param(lambda: rescale("x", triangle_bounds(ising3())), "^h must be a PauliSum", id="rescale-h-a-str"),
    pytest.param(lambda: rescale(ising3(), "x"), "^bounds must be a SpectralBounds", id="rescale-bounds-a-str"),
    pytest.param(lambda: triangle_bounds("x"), "^h must be a PauliSum", id="triangle-bounds-of-a-str"),
    pytest.param(lambda: exact_extremes("x"), "^h must be a PauliSum", id="exact-extremes-of-a-str"),
    pytest.param(lambda: exact_propagator("x", 1.0), "^h must be a PauliSum", id="propagator-of-a-str"),
]


@pytest.mark.parametrize("call, match", REFUSED_BY_A_RULE)
def test_input_refused_naming_the_argument(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_terms_stored_as_a_list():
    h = PauliSum(1, ((0.5, PauliString("X")),)).add(0.25, "Z")
    assert h.terms == [(0.5, PauliString("X")), (0.25, PauliString("Z"))]


def test_scaled_multiplies_each_coefficient():
    h = ising3()
    doubled = h.scaled(2.0)
    assert doubled.n == h.n and doubled.terms == [(2.0 * c, p) for c, p in h.terms]
    assert [p.letters for _, p in doubled.terms] == [p.letters for _, p in h.terms]


class TestPauliStringSingle:
    def test_qubit_past_end_rejected(self):
        with pytest.raises(ValueError):
            PauliString.single(3, 3, "X")

    def test_negative_qubit_rejected(self):
        with pytest.raises(ValueError):
            PauliString.single(3, -1, "Z")

    def test_fractional_qubit_rejected(self):
        with pytest.raises(ValueError, match="^qubit must"):
            PauliString.single(2, 1.5, "Z")


class TestPauliSumAdd:
    def test_add_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            PauliSum(2).add(1.0, "XYZ")

    def test_add_rejects_non_finite_coefficient(self):
        # add and the constructor take finite reals only: a complex one would
        # make a non-Hermitian matrix
        for bad in (float("nan"), 1j, None):
            with pytest.raises(ValueError):
                PauliSum(1).add(bad, "X")
            with pytest.raises(ValueError):
                PauliSum(1, [(bad, PauliString("X"))])
        assert PauliSum(1).add(np.float64(0.5), "X").terms[0][0] == 0.5
        assert PauliSum(1, [(np.float32(0.5), PauliString("X"))]).to_matrix()[0, 1] == 0.5

    @pytest.mark.parametrize("n", [0, -1, 1.5, 2.0, "2", None])
    def test_register_size_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            PauliSum(n)

    def test_numpy_integer_register_size_accepted(self):
        assert PauliSum(np.int64(2)).add(1.0, "ZZ").to_matrix().shape == (4, 4)


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

    @pytest.mark.parametrize("bounds", [(np.nan, 1.0), (-1.0, np.inf), (-np.inf, 1.0), (0.0, 1j)])
    def test_bounds_reject_non_finite(self, bounds):
        with pytest.raises(ValueError, match="lambda_"):
            SpectralBounds(*bounds)

    def test_bounds_reject_reversed_enclosure(self):
        with pytest.raises(ValueError, match="must not exceed lambda_plus"):
            SpectralBounds(1.0, -1.0)

    def test_triangle_of_empty_sum_rejected(self):
        with pytest.raises(ValueError, match="empty Hamiltonian"):
            triangle_bounds(PauliSum(2))

    def test_triangle_encloses_exact(self):
        for h in (ising3(), ising4()):
            tri, ex = triangle_bounds(h), exact_extremes(h)
            assert tri.lambda_minus <= ex.lambda_minus <= ex.lambda_plus <= tri.lambda_plus


class TestRescale:
    def test_three_site_factor(self):
        r = rescale(ising3(), triangle_bounds(ising3()), 0.0, 1.0)
        assert r.time_factor == pytest.approx(13.3)
        ht = r.h_tilde.to_matrix()
        expected = (ising3().to_matrix() + 6.65 * np.eye(8)) / 13.3
        assert np.allclose(ht, expected, atol=1e-12)

    def test_identity_rescaling(self):
        h = PauliSum(1).add(0.5, "I").add(0.5, "Z")  # spectrum {0, 1}
        r = rescale(h, SpectralBounds(0.0, 1.0), 0.0, 1.0)
        assert r.time_factor == pytest.approx(1.0)
        assert np.allclose(r.h_tilde.to_matrix(), h.to_matrix(), atol=1e-12)

    def test_four_site_coefficients(self):
        r = rescale(ising4(), triangle_bounds(ising4()), 0.0, 1.0)
        coeffs = {p.letters: c for c, p in r.h_tilde.terms}
        assert coeffs["IIII"] == pytest.approx(0.5)
        for s in ("ZZII", "IZZI", "IIZZ", "IXII"):
            assert coeffs[s] == pytest.approx(-0.125)
        assert r.time_factor == pytest.approx(8.0)

    def test_output_is_canonical(self):
        # duplicates merged, the zero term dropped, the shift on the existing identity
        h = PauliSum(2).add(0.5, "ZZ").add(0.0, "XI").add(0.25, "ZZ").add(0.3, "II")
        r = rescale(h, triangle_bounds(h), 0.0, 1.0)
        assert [p.letters for _, p in r.h_tilde.terms] == ["ZZ", "II"]
        assert np.allclose(r.h_tilde.to_matrix(), (h.to_matrix() + 1.05 * np.eye(4)) / 2.1, atol=1e-12)

    def test_spectrum_lands_in_interval(self):
        for a, b in ((0.0, 1.0), (0.1, 0.9)):
            r = rescale(ising3(), triangle_bounds(ising3()), a, b)
            eigs = np.linalg.eigvalsh(r.h_tilde.to_matrix())
            assert eigs.min() >= a - 1e-9 and eigs.max() <= b + 1e-9

    @pytest.mark.parametrize("t", [0.37, 1.0, 2.5])
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.2, 0.9)])
    @pytest.mark.parametrize("bounds", [triangle_bounds, exact_extremes])
    def test_time_map(self, bounds, a, b, t):
        # the docstring identity: exp(-i time_factor t H_tilde) exp(-i H t)^dag is a
        # unit-modulus multiple of I
        h = ising3()
        r = rescale(h, bounds(h), a, b)
        ratio = exact_propagator(r.h_tilde, r.time_factor * t) @ exact_propagator(h, t).conj().T
        phase = ratio[0, 0]
        assert abs(abs(phase) - 1.0) <= 1e-12
        assert np.abs(ratio - phase * np.eye(len(ratio))).max() <= 1e-12

    def test_degenerate_bounds(self):
        h = PauliSum(1).add(1.0, "I")
        with pytest.raises(DegenerateSpectrumError):
            rescale(h, SpectralBounds(1.0, 1.0), 0.0, 1.0)

    @pytest.mark.parametrize("a, b", [(0.5, 0.5), (0.8, 0.2), (-0.1, 1.0), (0.0, 1.5)])
    def test_target_interval_outside_unit_interval_rejected(self, a, b):
        with pytest.raises(ValueError, match="interval must hold two reals with 0 <= a < b <= 1"):
            rescale(ising3(), triangle_bounds(ising3()), a, b)

    def test_non_real_target_interval_rejected(self):
        with pytest.raises(ValueError, match="^interval must"):
            rescale(ising3(), triangle_bounds(ising3()), 1j, 1.0)


# the oracle's own single-qubit Paulis, independent of the code it checks
PAULI_2X2 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_of_letters(letters):
    """Independent oracle: the Kronecker product of the letters' 2x2 matrices."""
    m = np.eye(1)
    for c in letters:
        m = np.kron(m, PAULI_2X2[c])
    return m


def seeded_strings(width, count=30):
    rng = np.random.default_rng(60 + width)
    return ["".join(rng.choice(list("IXYZ"), width)) for _ in range(count)]


class TestDenseOracles:
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_every_string_matches_kron(self, width):
        columns = np.arange(2**width)
        for letters in map("".join, itertools.product("IXYZ", repeat=width)):
            oracle = kron_of_letters(letters)
            rows, entries = PauliString(letters).signed_permutation()
            assert np.array_equal(oracle[rows, columns], entries), letters
            assert np.array_equal(PauliString(letters).to_matrix(), oracle), letters

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_symplectic_form_reads_the_letters(self, width):
        for letters in map("".join, itertools.product("IXYZ", repeat=width)):
            x, z, y = PauliString(letters).symplectic()
            bits = [(x >> (width - 1 - q) & 1, z >> (width - 1 - q) & 1) for q in range(width)]
            assert bits == [(int(c in "XY"), int(c in "ZY")) for c in letters], letters
            assert y == letters.count("Y")
            x_part = kron_of_letters(["X" if bx else "I" for bx, _ in bits])
            z_part = kron_of_letters(["Z" if bz else "I" for _, bz in bits])
            assert np.array_equal(1j**y * x_part @ z_part, kron_of_letters(letters)), letters

    @pytest.mark.parametrize("width", [4, 5])
    def test_seeded_strings_match_kron(self, width):
        for letters in seeded_strings(width):
            assert np.array_equal(PauliString(letters).to_matrix(), kron_of_letters(letters)), letters

    def test_sum_with_repeated_strings_matches_kron(self):
        letters = seeded_strings(3, 6) * 2 + ["YYY", "YYY", "III"]
        coeffs = np.random.default_rng(66).normal(size=len(letters))
        expect = np.zeros((8, 8), dtype=complex)
        for c, s in zip(coeffs, letters):
            expect += c * kron_of_letters(s)
        h = PauliSum(3, [(float(c), PauliString(s)) for c, s in zip(coeffs, letters)])
        assert np.array_equal(h.to_matrix(), expect)

    def test_identity_matrix(self):
        assert np.allclose(PauliSum(1).add(1.0, "I").to_matrix(), np.eye(2))

    def test_x_matrix(self):
        assert np.allclose(PauliSum(1).add(1.0, "X").to_matrix(), [[0, 1], [1, 0]])

    def test_trace_square_identity(self):
        for h in (ising3(), ising4()):
            m = h.canonicalize().to_matrix()
            lhs = np.trace(m @ m).real
            rhs = 2**h.n * sum(c**2 for c, _ in h.canonicalize().terms)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_dimension_cap(self):
        with pytest.raises(DimensionError):
            PauliSum(13).add(1.0, "I" * 13).to_matrix()

    def test_propagator_takes_numpy_time(self):
        assert np.array_equal(exact_propagator(ising3(), np.float64(0.7)), exact_propagator(ising3(), 0.7))

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
        ref = scipy.linalg.expm(-1j * 0.7 * h.to_matrix())
        assert np.allclose(u, ref, atol=1e-10)

    @pytest.mark.parametrize("t", [float("nan"), np.inf, -np.inf, pytest.param(1j, id="non-real")])
    def test_propagator_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError):
            exact_propagator(ising3(), t)
