import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqkdsim import fock
from sqkdsim.fock import (
    FockState,
    NormalizationError,
    TruncationError,
    X,
    Z,
    inner,
    make_basis_state,
    measure_distribution,
    channel_basis,
    parity_state,
    x_expansion,
)

from oracles import (
    binomial_counts,
    symmetric_expansion,
    symmetric_mixed_state,
    transform_reference,
)

SQRT2 = math.sqrt(2.0)


def random_state(rng, n_max=6, basis=Z, terms=5):
    amps = {}
    for _ in range(terms):
        n1 = int(rng.integers(0, n_max + 1))
        n0 = int(rng.integers(0, n_max + 1 - n1))
        amps[(n1, n0)] = complex(rng.normal(), rng.normal())
    return FockState(amps, basis, n_max).normalized()


class TestBasisStates:
    def test_vacuum(self):
        s = make_basis_state((0, 0), Z)
        assert s.amplitude((0, 0)) == 1.0
        assert s.is_unit()

    def test_single_photon_is_bit_zero(self):
        s = make_basis_state((0, 1), Z)
        assert dict(s.items()) == {(0, 1): 1.0 + 0j}

    def test_minus_state_in_z(self):
        minus = make_basis_state((1, 0), X).to_z()
        assert minus.amplitude((0, 1)) == pytest.approx(1 / SQRT2)
        assert minus.amplitude((1, 0)) == pytest.approx(-1 / SQRT2)

    def test_cap_enforced(self):
        with pytest.raises(TruncationError):
            make_basis_state((4, 3), Z, n_max=6)
        with pytest.raises(ValueError):
            make_basis_state((-1, 0), Z)


class TestInner:
    def test_orthogonal_basis_states(self):
        assert inner(make_basis_state((0, 1)), make_basis_state((1, 0))) == 0

    def test_plus_with_bit_zero(self):
        plus = make_basis_state((0, 1), X)
        assert inner(plus, make_basis_state((0, 1), Z)) == pytest.approx(1 / SQRT2)

    def test_two_minus_with_mixed(self):
        a = make_basis_state((2, 0), X)
        b = make_basis_state((1, 1), Z)
        assert inner(a, b) == pytest.approx(-SQRT2 / 2)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = random_state(rng), random_state(rng)
        assert inner(a, b) == pytest.approx(inner(b, a).conjugate())


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


class TestBasisChange:
    def test_single_plus(self):
        s = make_basis_state((0, 1), X).to_z()
        assert s.amplitude((0, 1)) == pytest.approx(1 / SQRT2)
        assert s.amplitude((1, 0)) == pytest.approx(1 / SQRT2)

    def test_two_plus_photons(self):
        s = make_basis_state((0, 2), X).to_z()
        assert s.amplitude((0, 2)) == pytest.approx(0.5)
        assert s.amplitude((1, 1)) == pytest.approx(SQRT2 / 2)
        assert s.amplitude((2, 0)) == pytest.approx(0.5)

    def test_one_of_each(self):
        # one minus and one plus photon interfere to (|0,2> - |2,0>)/sqrt(2)
        s = make_basis_state((1, 1), X).to_z()
        assert s.amplitude((0, 2)) == pytest.approx(1 / SQRT2)
        assert abs(s.amplitude((1, 1))) < 1e-12
        assert s.amplitude((2, 0)) == pytest.approx(-1 / SQRT2)

    @pytest.mark.parametrize("n_minus,n_plus", [(1, 1), (2, 1), (1, 2), (2, 2),
                                                (3, 1), (0, 4)])
    def test_general_keys_match_symmetrized_oracle(self, n_minus, n_plus):
        s = make_basis_state((n_minus, n_plus), X).to_z()
        oracle = symmetric_mixed_state(n_minus, n_plus)
        keys = set(k for k, _ in s.items()) | set(oracle)
        for key in keys:
            assert s.amplitude(key).real == pytest.approx(
                oracle.get(key, 0.0), abs=1e-12)
            assert abs(s.amplitude(key).imag) < 1e-14

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_involution(self, seed):
        s = random_state(np.random.default_rng(seed))
        back = s.to_x().to_z()
        assert np.linalg.norm(back.amps - s.amps) < 1e-10

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_norm_and_inner_products_preserved(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_state(rng), random_state(rng)
        assert a.to_x().norm() == pytest.approx(1.0, abs=1e-10)
        assert inner(a.to_x(), b.to_x()) == pytest.approx(
            inner(a, b), abs=1e-10)

    @pytest.mark.parametrize("basis,convert", [(Z, FockState.to_z),
                                               (X, FockState.to_x)])
    def test_same_basis_returns_amplitudes_unchanged(self, basis, convert):
        # no round trip through the other basis: the amplitudes stay bit-equal
        for seed in range(5):
            s = random_state(np.random.default_rng(seed), basis=basis)
            out = convert(s)
            assert out.basis == basis
            assert list(out.items()) == list(s.items())

    @given(n1=st.integers(0, 6), n0=st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_photon_number_conserved(self, n1, n0):
        if n1 + n0 > 6:
            return
        s = make_basis_state((n1, n0), Z).to_x()
        assert all(k[0] + k[1] == n1 + n0 for k, _ in s.items())


class TestDenseBasisChange:
    """The ``hadamard`` matmul against the per-occupation dict loop."""

    @pytest.mark.parametrize("n_max", range(1, 7))
    def test_basis_states_bit_equal_to_reference(self, n_max):
        # the engine only ever rotates basis states
        for occ in channel_basis(n_max).occupations:
            for basis, target in ((Z, X), (X, Z)):
                s = make_basis_state(occ, basis, n_max)
                got = s.to_x() if target == X else s.to_z()
                want = transform_reference(s)
                assert got.basis == want.basis == target
                assert np.array_equal(got.amps, want.amps)

    @pytest.mark.parametrize("basis", [Z, X])
    def test_random_states_match_reference(self, basis):
        rng = np.random.default_rng(8)
        for _ in range(50):
            s = random_state(rng, basis=basis, terms=6)
            got = s.to_x() if basis == Z else s.to_z()
            assert np.max(np.abs(got.amps - transform_reference(s).amps)) <= 1e-15

    def test_inner_pads_the_lower_cap(self):
        rng = np.random.default_rng(9)
        a = random_state(rng, n_max=2)
        b = random_state(rng, n_max=5, basis=X)
        za, zb = a.to_z().amps, b.to_z().amps
        padded = np.concatenate([za, np.zeros(zb.size - za.size)])
        assert inner(a, b) == np.vdot(padded, zb)
        assert inner(b, a) == np.vdot(zb, padded)


class TestParityStates:
    def test_even_two_photons_skips_mixed_key(self):
        e2 = parity_state(2, "even", Z)
        x_rep = e2.to_x()
        assert abs(x_rep.amplitude((1, 1))) < 1e-12
        assert x_rep.amplitude((0, 2)) == pytest.approx(1 / SQRT2)
        assert x_rep.amplitude((2, 0)) == pytest.approx(1 / SQRT2)

    def test_odd_one_photon_in_x_inputs(self):
        o1 = parity_state(1, "odd", X)
        z_rep = o1.to_z()
        assert z_rep.amplitude((1, 0)) == pytest.approx(1.0)
        assert abs(z_rep.amplitude((0, 1))) < 1e-12

    def test_odd_two_photons_measures_only_odd(self):
        o2 = parity_state(2, "odd", Z)
        dist = measure_distribution(o2, X)
        assert dist[(1, 1)] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_opposite_basis_parity_law(self, n, parity):
        state = parity_state(n, parity, Z)
        dist = measure_distribution(state, X)
        want = 0 if parity == "even" else 1
        for k in range(n + 1):
            p = dist.get((k, n - k), 0.0)
            if k % 2 == want:
                assert p == pytest.approx(2 * binomial_counts(n, k), abs=1e-12)
            else:
                assert p == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pair(self):
        assert abs(inner(parity_state(3, "even"), parity_state(3, "odd"))) < 1e-14

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            parity_state(0, "even")
        with pytest.raises(ValueError):
            parity_state(2, "both")


class TestMeasureDistribution:
    def test_single_key(self):
        dist = measure_distribution(make_basis_state((0, 1), Z), Z)
        assert dist == {(0, 1): 1.0}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_x_pulse_gives_binomial(self, n):
        dist = measure_distribution(make_basis_state((0, n), X), Z)
        for k in range(n + 1):
            assert dist.get((k, n - k), 0.0) == pytest.approx(
                binomial_counts(n, k), abs=1e-12)

    def test_distribution_sums_to_one(self):
        s = random_state(np.random.default_rng(5))
        assert sum(measure_distribution(s, X).values()) == pytest.approx(
            1.0, abs=1e-10)

    def test_rejects_unnormalized(self):
        s = make_basis_state((0, 1)).scaled(0.5)
        with pytest.raises(NormalizationError):
            measure_distribution(s, Z)


class TestStateArithmetic:
    def test_pruning_below_floor(self):
        s = FockState({(0, 1): 1.0, (1, 0): 1e-16}, Z, 2)
        assert len(s) == 1

    def test_normalize_zero_state(self):
        with pytest.raises(NormalizationError):
            FockState({}, Z, 2).normalized()
