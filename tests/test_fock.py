import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqkdsim.fock import (
    TruncationError,
    X,
    Z,
    make_basis_state,
    channel_basis,
    floored,
    parity_state,
    x_expansion,
    z_vector,
)
from sqkdsim.joint import JointState

from oracles import (
    binomial_counts,
    symmetric_expansion,
    symmetric_mixed_state,
    transform_reference,
)

SQRT2 = math.sqrt(2.0)


def random_amps(rng, n_max=6, terms=5):
    amps = {}
    for _ in range(terms):
        n1 = int(rng.integers(0, n_max + 1))
        n0 = int(rng.integers(0, n_max + 1 - n1))
        amps[(n1, n0)] = complex(rng.normal(), rng.normal())
    return amps


def random_state(rng, n_max=6, basis=Z, terms=5):
    """Unit z vector of a random state given over occupations of ``basis``."""
    vec = z_vector(random_amps(rng, n_max, terms), basis, n_max)
    return vec / np.linalg.norm(vec)


def amplitudes(vec, n_max=6):
    """Nonzero entries of ``vec`` keyed by occupation."""
    occs = channel_basis(n_max).occupations
    return {occs[i]: complex(vec[i]) for i in np.flatnonzero(vec)}


def to_x(vec, n_max=6):
    return floored(vec @ channel_basis(n_max).hadamard)


def distribution(vec, basis):
    """Photon-count distribution of a pulse read in ``basis``."""
    return JointState.from_product(0, vec, 1).occupation_distribution(basis)


class TestBasisStates:
    def test_vacuum(self):
        s = make_basis_state((0, 0), Z)
        assert amplitudes(s) == {(0, 0): 1.0}
        assert np.linalg.norm(s) == 1.0

    def test_single_photon_is_bit_zero(self):
        s = make_basis_state((0, 1), Z)
        assert amplitudes(s) == {(0, 1): 1.0 + 0j}

    def test_minus_state_in_z(self):
        minus = amplitudes(make_basis_state((1, 0), X))
        assert minus[(0, 1)] == pytest.approx(1 / SQRT2)
        assert minus[(1, 0)] == pytest.approx(-1 / SQRT2)

    def test_cap_enforced(self):
        with pytest.raises(TruncationError):
            make_basis_state((4, 3), Z, n_max=6)
        with pytest.raises(ValueError):
            make_basis_state((-1, 0), Z)

    def test_z_amplitudes_are_placed_unchanged(self):
        # a z state is not rotated: each amplitude lands bit-equal
        for seed in range(5):
            amps = random_amps(np.random.default_rng(seed))
            assert amplitudes(z_vector(amps, Z)) == amps

    def test_rejects_unknown_basis(self):
        with pytest.raises(ValueError):
            z_vector({(0, 1): 1.0}, "y")


class TestInner:
    def test_orthogonal_basis_states(self):
        assert np.vdot(make_basis_state((0, 1)), make_basis_state((1, 0))) == 0

    def test_plus_with_bit_zero(self):
        plus = make_basis_state((0, 1), X)
        assert np.vdot(plus, make_basis_state((0, 1), Z)) == pytest.approx(1 / SQRT2)

    def test_two_minus_with_mixed(self):
        a = make_basis_state((2, 0), X)
        b = make_basis_state((1, 1), Z)
        assert np.vdot(a, b) == pytest.approx(-SQRT2 / 2)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = random_state(rng, basis=X), random_state(rng)
        assert np.vdot(a, b) == pytest.approx(np.vdot(b, a).conjugate())


class TestXExpansion:
    def test_two_minus_photons(self):
        row = x_expansion(2, -1)
        assert row == pytest.approx((0.5, -SQRT2 / 2, 0.5))

    def test_three_minus_photons(self):
        row = x_expansion(3, -1)
        expected = np.array([1, -math.sqrt(3), math.sqrt(3), -1]) / math.sqrt(8)
        assert row == pytest.approx(tuple(expected))

    def test_vacuum_row(self):
        assert x_expansion(0, 1) == (1.0,)
        assert x_expansion(0, -1) == (1.0,)

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_rows_are_normalized(self, n, sign):
        coeffs = x_expansion(n, sign)
        assert sum(c * c for c in coeffs) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(5))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_symmetrized_brute_force(self, n, sign):
        oracle = symmetric_expansion(n, sign)
        row = x_expansion(n, sign)
        assert np.allclose(row, oracle, atol=1e-12)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            x_expansion(2, 0)
        with pytest.raises(TruncationError):
            x_expansion(9, 1, n_max=6)
        with pytest.raises(ValueError, match="^photon number must be "
                           "non-negative$"):
            x_expansion(-1, 1)


class TestBasisChange:
    def test_single_plus(self):
        s = amplitudes(make_basis_state((0, 1), X))
        assert s[(0, 1)] == pytest.approx(1 / SQRT2)
        assert s[(1, 0)] == pytest.approx(1 / SQRT2)

    def test_two_plus_photons(self):
        s = amplitudes(make_basis_state((0, 2), X))
        assert s[(0, 2)] == pytest.approx(0.5)
        assert s[(1, 1)] == pytest.approx(SQRT2 / 2)
        assert s[(2, 0)] == pytest.approx(0.5)

    def test_one_of_each(self):
        # one minus and one plus photon interfere to (|0,2> - |2,0>)/sqrt(2)
        s = amplitudes(make_basis_state((1, 1), X))
        assert s[(0, 2)] == pytest.approx(1 / SQRT2)
        assert abs(s.get((1, 1), 0j)) < 1e-12
        assert s[(2, 0)] == pytest.approx(-1 / SQRT2)

    @pytest.mark.parametrize("n_minus,n_plus", [(1, 1), (2, 1), (1, 2), (2, 2),
                                                (3, 1), (0, 4)])
    def test_general_keys_match_symmetrized_oracle(self, n_minus, n_plus):
        s = amplitudes(make_basis_state((n_minus, n_plus), X))
        oracle = symmetric_mixed_state(n_minus, n_plus)
        for key in set(s) | set(oracle):
            assert s.get(key, 0j).real == pytest.approx(
                oracle.get(key, 0.0), abs=1e-12)
            assert abs(s.get(key, 0j).imag) < 1e-14

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_involution(self, seed):
        s = random_state(np.random.default_rng(seed))
        assert np.linalg.norm(to_x(to_x(s)) - s) < 1e-10

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_norm_and_inner_products_preserved(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_state(rng), random_state(rng)
        assert np.linalg.norm(to_x(a)) == pytest.approx(1.0, abs=1e-10)
        assert np.vdot(to_x(a), to_x(b)) == pytest.approx(
            np.vdot(a, b), abs=1e-10)

    @given(n1=st.integers(0, 6), n0=st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_photon_number_conserved(self, n1, n0):
        if n1 + n0 > 6:
            return
        s = make_basis_state((n1, n0), X)
        assert all(k[0] + k[1] == n1 + n0 for k in amplitudes(s))


class TestDenseBasisChange:
    """The ``hadamard`` matmul against the per-occupation dict loop."""

    @pytest.mark.parametrize("n_max", range(1, 7))
    def test_basis_states_bit_equal_to_reference(self, n_max):
        # the engine only ever rotates basis states: an x pulse to z when
        # it is built, and Bob's z occupations to x when he reads them
        for occ in channel_basis(n_max).occupations:
            placed = make_basis_state(occ, Z, n_max)
            want = transform_reference(placed, n_max)
            assert np.array_equal(make_basis_state(occ, X, n_max), want)
            assert np.array_equal(to_x(placed, n_max), want)

    @pytest.mark.parametrize("basis", [Z, X])
    def test_random_states_match_reference(self, basis):
        rng = np.random.default_rng(8)
        for _ in range(50):
            amps = random_amps(rng, terms=6)
            placed = z_vector(amps, Z)
            got = to_x(placed) if basis == Z else z_vector(amps, X)
            assert np.max(np.abs(got - transform_reference(placed, 6))) <= 1e-15


class TestParityStates:
    def test_even_two_photons_skips_mixed_key(self):
        x_rep = amplitudes(to_x(parity_state(2, "even", Z)))
        assert abs(x_rep.get((1, 1), 0j)) < 1e-12
        assert x_rep[(0, 2)] == pytest.approx(1 / SQRT2)
        assert x_rep[(2, 0)] == pytest.approx(1 / SQRT2)

    def test_odd_one_photon_in_x_inputs(self):
        z_rep = amplitudes(parity_state(1, "odd", X))
        assert z_rep[(1, 0)] == pytest.approx(1.0)
        assert abs(z_rep.get((0, 1), 0j)) < 1e-12

    def test_odd_two_photons_measures_only_odd(self):
        dist = distribution(parity_state(2, "odd", Z), X)
        assert dist[(1, 1)] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_opposite_basis_parity_law(self, n, parity):
        dist = distribution(parity_state(n, parity, Z), X)
        want = 0 if parity == "even" else 1
        for k in range(n + 1):
            p = dist.get((k, n - k), 0.0)
            if k % 2 == want:
                assert p == pytest.approx(2 * binomial_counts(n, k), abs=1e-12)
            else:
                assert p == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pair(self):
        assert abs(np.vdot(parity_state(3, "even"), parity_state(3, "odd"))) < 1e-14

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            parity_state(0, "even")
        with pytest.raises(ValueError):
            parity_state(2, "both")


class TestMeasureDistribution:
    """Photon counting of one pulse, read by ``occupation_distribution``."""

    def test_single_key(self):
        assert distribution(make_basis_state((0, 1), Z), Z) == {(0, 1): 1.0}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_x_pulse_gives_binomial(self, n):
        dist = distribution(make_basis_state((0, n), X), Z)
        for k in range(n + 1):
            assert dist.get((k, n - k), 0.0) == pytest.approx(
                binomial_counts(n, k), abs=1e-12)

    def test_distribution_sums_to_one(self):
        s = random_state(np.random.default_rng(5))
        assert sum(distribution(s, X).values()) == pytest.approx(
            1.0, abs=1e-10)


class TestStateArithmetic:
    def test_pruning_below_floor(self):
        s = z_vector({(0, 1): 1.0, (1, 0): 1e-16}, Z, 2)
        assert np.count_nonzero(s) == 1
