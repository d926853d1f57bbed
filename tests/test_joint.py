import math

import numpy as np
import pytest

import oracles
from sqkdsim.attacks import ProbeChannelMap
from sqkdsim.fock import TruncationError, X, Z, make_basis_state, parity_state
from sqkdsim.joint import (
    COUNTER,
    ChannelBasis,
    JointState,
    THRESHOLD,
    code_pattern,
    detector_pattern,
    pattern_code,
)

SQRT2 = math.sqrt(2.0)


def plus_with_probe(n_max=2, probe_dim=1):
    return JointState.from_product(0, make_basis_state((0, 1), X, n_max), probe_dim)


class TestChannelBasis:
    def test_dimension(self):
        assert ChannelBasis(2).dim == 6
        assert ChannelBasis(6).dim == 28

    def test_hadamard_is_symmetric_orthogonal_involution(self):
        h = ChannelBasis(5).hadamard
        assert np.allclose(h, h.T, atol=1e-12)
        assert np.allclose(h @ h, np.eye(h.shape[0]), atol=1e-12)

    def test_pattern_codes_roundtrip(self):
        for code in range(9):
            assert pattern_code(code_pattern(code)) == code
        assert detector_pattern((3, 0), THRESHOLD) == (1, 0)
        assert detector_pattern((3, 1), COUNTER) == (2, 1)


class TestSiftTransform:
    def test_plus_pulse_branches(self):
        branches = {pat: (p, resid)
                    for pat, p, resid in plus_with_probe().sift_branches()}
        assert set(branches) == {(0, 1), (1, 0)}
        p, resid = branches[(0, 1)]
        assert p == pytest.approx(0.5)
        assert dict(resid.items()) == {(0, (0, 1)): pytest.approx(1.0)}

    def test_vacuum_untouched(self):
        j = JointState.from_product(0, make_basis_state((0, 0), Z, 2), 1)
        branches = j.sift_branches()
        assert len(branches) == 1
        pat, p, resid = branches[0]
        assert pat == (0, 0) and p == pytest.approx(1.0)
        assert dict(resid.items()) == {(0, (0, 0)): pytest.approx(1.0)}

    def test_parity_pulse_keeps_both_photons(self):
        j = JointState.from_product(0, parity_state(2, "even", Z, 2), 1)
        branches = {pat: (p, resid) for pat, p, resid in
                    j.sift_branches()}
        assert branches[(0, 1)][0] == pytest.approx(0.5)
        # the reflected residual still carries two photons
        resid = branches[(0, 1)][1]
        assert list(k[1] for k, _ in resid.items()) == [(0, 2)]

    def test_two_plus_photons_fire_both_detectors(self):
        j = JointState.from_product(0, make_basis_state((0, 2), X, 2), 1)
        branches = {pat: p for pat, p, _ in j.sift_branches()}
        assert branches[(1, 1)] == pytest.approx(0.5)

    def test_branch_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            amps = {}
            for e in range(2):
                for occ in [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2)]:
                    amps[(e, occ)] = complex(rng.normal(), rng.normal())
            j = oracles.joint_state(2, 2, amps)
            j = JointState(j.amps / math.sqrt(j.norm_sq()))
            total = sum(p for _pat, p, _r in j.sift_branches())
            assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("model", [THRESHOLD, COUNTER])
    @pytest.mark.parametrize("probe_dim", [1, 2, 3, 4])
    def test_matches_dict_reference(self, model, probe_dim):
        rng = np.random.default_rng(100 + probe_dim)
        for n_max in range(5):
            basis = ChannelBasis(n_max)
            for _ in range(5):
                amps = rng.normal(size=(probe_dim, basis.dim)) * 1j
                amps += rng.normal(size=amps.shape)
                # drop some occupations so that not every pattern occurs
                amps[:, rng.random(basis.dim) < 0.4] = 0.0
                j = JointState(amps)
                got = j.sift_branches(model)
                want = oracles.sift_reference(j, model)
                assert [pat for pat, _p, _s in got] == [pat for pat, _p, _s in want]
                for (_pat, p, state), (_, q, ref) in zip(got, want):
                    assert p == pytest.approx(q, rel=1e-12)
                    have = dict(state.items())
                    assert set(have) == set(ref)
                    for key, amp in ref.items():
                        assert abs(have[key] - amp) <= 1e-12

    def test_reflection_preserves_photon_number_distribution(self):
        rng = np.random.default_rng(4)
        amps = {(0, occ): complex(rng.normal(), rng.normal())
                for occ in [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1)]}
        j = oracles.joint_state(1, 2, amps)
        j = JointState(j.amps / math.sqrt(j.norm_sq()))
        before = {}
        for occ, p in j.occupation_distribution(Z).items():
            before[occ[0] + occ[1]] = before.get(occ[0] + occ[1], 0.0) + p
        after = {}
        for _pat, p, resid in j.sift_branches():
            for occ, q in resid.occupation_distribution(Z).items():
                n = occ[0] + occ[1]
                after[n] = after.get(n, 0.0) + p * q
        for n in set(before) | set(after):
            assert after.get(n, 0.0) == pytest.approx(before.get(n, 0.0), abs=1e-10)


class TestCollapseAndCounting:
    def test_occupation_branches(self):
        j = JointState.from_product(0, parity_state(2, "even", Z, 2), 1)
        branches = {occ: p for occ, p, _vec in j.occupation_branches()}
        assert branches == {(0, 2): pytest.approx(0.5), (2, 0): pytest.approx(0.5)}

    def test_photon_count_branches(self):
        amps = {(0, (0, 0)): 0.6, (0, (0, 2)): 0.8}
        j = oracles.joint_state(1, 2, amps)
        counts = {c: p for c, p, _s in j.photon_count_branches()}
        assert counts == {0: pytest.approx(0.36), 2: pytest.approx(0.64)}

    def test_probe_component(self):
        j = oracles.joint_state(2, 2, {(0, (0, 1)): 0.6,
                                       (1, (0, 1)): 0.8j})
        vec = j.probe_component((0, 1))
        assert vec[0] == pytest.approx(0.6)
        assert vec[1] == pytest.approx(0.8j)


class TestBobDistributions:
    def test_mixed_key_is_illicit(self):
        j = JointState.from_product(0, make_basis_state((1, 1), Z, 2), 1)
        assert j.bob_distribution(Z) == {(1, 1): pytest.approx(1.0)}
        single = JointState.from_product(0, make_basis_state((0, 1), Z, 2), 1)
        assert single.bob_distribution(Z) == {(0, 1): pytest.approx(1.0)}

    def test_parity_pulse_threshold_vs_counter(self):
        j = JointState.from_product(0, parity_state(2, "even", Z, 2), 1)
        thresh = j.bob_distribution(Z, THRESHOLD)
        assert thresh[(0, 1)] == pytest.approx(0.5)
        assert thresh[(1, 0)] == pytest.approx(0.5)
        counted = j.bob_distribution(Z, COUNTER)
        assert counted[(0, 2)] == pytest.approx(0.5)
        assert counted[(2, 0)] == pytest.approx(0.5)

    def test_parity_pulse_minus_mode_click(self):
        j = JointState.from_product(0, parity_state(2, "even", Z, 2), 1)
        xdist = j.bob_distribution(X)
        assert xdist[(1, 0)] == pytest.approx(0.5)   # both photons in minus
        assert xdist[(0, 1)] == pytest.approx(0.5)

    def test_plus_never_clicks_minus(self):
        xdist = plus_with_probe().bob_distribution(X)
        assert xdist == {(0, 1): pytest.approx(1.0)}


class TestLossChannel:
    def test_branches_form_a_distribution(self):
        j = JointState.from_product(0, make_basis_state((2, 1), Z, 3), 1)
        branches = j.channel_loss_branches(0.7)
        assert sum(p for _k, p, _s in branches) == pytest.approx(1.0, abs=1e-12)

    def test_single_photon_survival(self):
        j = plus_with_probe()
        branches = {k: p for k, p, _s in j.channel_loss_branches(0.25)}
        # the x pulse lives in the second mode of its own basis but the map
        # is applied over z keys; total survival must still be 0.25
        survival = 0.0
        for (_k1, _k0), p, state in j.channel_loss_branches(0.25):
            for occ, q in state.occupation_distribution(Z).items():
                if occ[0] + occ[1] == 1:
                    survival += p * q
        assert survival == pytest.approx(0.25, abs=1e-12)

    def test_full_transmission_is_identity(self):
        j = plus_with_probe()
        branches = j.channel_loss_branches(1.0)
        assert len(branches) == 1
        assert branches[0][1] == pytest.approx(1.0)

    def test_two_photon_binomial(self):
        j = JointState.from_product(0, make_basis_state((0, 2), Z, 2), 1)
        by_count = {}
        for _k, p, state in j.channel_loss_branches(0.8):
            for occ, q in state.occupation_distribution(Z).items():
                n = occ[0] + occ[1]
                by_count[n] = by_count.get(n, 0.0) + p * q
        assert by_count[2] == pytest.approx(0.64)
        assert by_count[1] == pytest.approx(2 * 0.8 * 0.2)
        assert by_count[0] == pytest.approx(0.04)

    def test_rejects_bad_survival(self):
        with pytest.raises(ValueError):
            plus_with_probe().channel_loss_branches(1.5)


class TestJointValidation:
    def test_cap_enforced(self):
        # a map whose image leaves the state's photon cap
        raise_photons = ProbeChannelMap.from_occupation_rules(
            {(0, (0, 1)): [(0, (1, 1), 1.0)]})
        state = JointState.from_product(0, make_basis_state((0, 1), Z, 1), 1)
        with pytest.raises(TruncationError):
            raise_photons.apply(state)

    def test_probe_range(self):
        with pytest.raises(ValueError):
            JointState.from_product(2, make_basis_state((0, 1), Z, 2), 1)

    def test_numpy_integer_probe_is_an_index(self):
        pulse = make_basis_state((0, 1), Z, 2)
        j = JointState.from_product(np.int64(1), pulse, 3)
        assert j.norm_sq() == pytest.approx(1.0)
        assert dict(j.items()) == dict(JointState.from_product(1, pulse, 3).items())
        with pytest.raises(ValueError):
            JointState.from_product(np.int64(3), pulse, 3)

    def test_probe_vector_length(self):
        pulse = make_basis_state((0, 1), Z, 2)
        with pytest.raises(ValueError):
            JointState.from_product(np.ones(2) / SQRT2, pulse, 3)
        j = JointState.from_product(np.ones(3) / math.sqrt(3.0), pulse, 3)
        assert j.probe_dim == 3

    @pytest.mark.parametrize("shape", [(1, 9, 6), (6,), (1, 5), (2, 0)])
    def test_rejects_non_probe_channel_array(self, shape):
        with pytest.raises(ValueError):
            JointState(np.zeros(shape))
