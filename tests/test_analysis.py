import math

import numpy as np
import pytest

import oracles
from sqkdsim import analysis, verify
from sqkdsim.analysis import (
    b92_breakable,
    b92_conclusive_prob,
    b92_povm_breakable,
    check_constraints,
    eve_leakage,
    pns_feasibility,
)
from sqkdsim.attacks import (
    AttackDomainError,
    AttackSpec,
    constrained_random_attack,
    identity_attack,
    pns_attack,
    tagging_attack,
)
from sqkdsim.fock import X, Z, make_basis_state
from sqkdsim.joint import JointState

SQRT2 = math.sqrt(2.0)


def _plus_column(e=0):
    return {(e, (0, 1)): 1 / SQRT2, (e, (1, 0)): 1 / SQRT2}


def minus_sender() -> AttackSpec:
    """Replaces the outbound pulse by the minus state; maximally visible."""
    outbound = oracles.map_from_columns([(
        _plus_column(),
        {(0, (0, 1)): 1 / SQRT2, (0, (1, 0)): -1 / SQRT2},
    )], 1, 1)
    spec = AttackSpec(name="minus-sender", outbound=outbound)
    spec.validate()
    return spec


def one_sided_attack() -> AttackSpec:
    """Sends only the bit-0 photon on, so the bit-1 branch never occurs."""
    outbound = oracles.map_from_columns(
        [(_plus_column(), {(0, (0, 1)): 1.0})], 1, 1)
    spec = AttackSpec(name="one-sided", outbound=outbound)
    spec.validate()
    return spec


class TestCheckConstraints:
    def test_identity_all_zero(self):
        report = check_constraints(identity_attack(), n_max=3)
        assert report.alice_11_prob == 0.0
        assert report.bob_minus_click_prob == 0.0
        assert report.bit_probe_distance == 0.0
        assert report.sift_conflict_prob == 0.0
        assert report.verdict == "undetectable"

    def test_tagging_undetectable(self):
        report = check_constraints(tagging_attack(), n_max=3)
        assert report.verdict == "undetectable"
        assert report.bob_minus_click_prob <= 1e-12
        assert all(v <= 1e-12 for v in report.multiphoton_return_norms.values())

    def test_minus_sender_caught_with_certainty(self):
        report = check_constraints(minus_sender(), n_max=2)
        assert report.bob_minus_click_prob == pytest.approx(1.0, abs=1e-12)
        assert report.verdict == "detectable"

    def test_multiphoton_return_caught_both_ways(self):
        spec = constrained_random_attack(21, 4, n_max=3,
                                         violation="multi-photon-return",
                                         violation_level=2)
        report = check_constraints(spec, n_max=3)
        # equal two-photon components: invisible on the mixed x key but
        # caught on the two-minus key, so the total stays positive
        assert report.bob_minus_click_prob > 1e-6
        assert report.verdict == "detectable"

    def test_probabilities_in_range(self):
        for seed in range(5):
            spec = constrained_random_attack(seed, 3, n_max=3)
            report = check_constraints(spec, n_max=3)
            assert 0.0 <= report.alice_11_prob <= 1.0
            assert 0.0 <= report.bob_minus_click_prob <= 1.0

    def test_counter_detectors_refused_by_name(self):
        # the return map covers threshold SIFT patterns only
        with pytest.raises(AttackDomainError, match=(
                r"^the constrained-random attack cannot run with counter "
                r"detectors: input component .* outside the attack map's "
                r"domain$")):
            check_constraints(constrained_random_attack(5, 4, n_max=3),
                              n_max=3, detector_model="counter")


class TestEveLeakage:
    def test_identity_fidelity_one(self):
        leak = eve_leakage(identity_attack(), n_max=2)
        assert leak.conditional_fidelity == pytest.approx(1.0)
        assert leak.trace_distance == pytest.approx(0.0)

    def test_constrained_fidelity_one(self):
        for seed in range(4):
            spec = constrained_random_attack(seed + 40, 4, n_max=3)
            leak = eve_leakage(spec, n_max=3)
            assert leak.conditional_fidelity >= 1 - 1e-9

    def test_splitting_on_two_photon_pulses_leaks_fully(self):
        """In either basis the splitter leaves Bob the one-photon pulse of
        the bit and keeps a probe state per bit, the two orthogonal."""
        attack = pns_attack(n_max=2)
        for basis in (Z, X):
            probes = []
            for occ in ((0, 1), (1, 0)):
                one, two = (make_basis_state((occ[0] * m, occ[1] * m), basis, 2)
                            for m in (1, 2))
                split = attack.apply_outbound(
                    JointState.from_product(0, two, attack.probe_dim))
                probe = split.amps @ one.conj()
                assert np.allclose(split.amps, np.outer(probe, one),
                                   rtol=0, atol=1e-15)
                assert np.linalg.norm(probe) == pytest.approx(1.0, abs=1e-15)
                probes.append(probe)
            assert abs(np.vdot(*probes)) == pytest.approx(0.0, abs=1e-15)

    def test_fidelity_trace_distance_consistency(self):
        spec = constrained_random_attack(77, 4, n_max=3)
        leak = eve_leakage(spec, n_max=3)
        assert leak.trace_distance == pytest.approx(
            math.sqrt(1 - leak.conditional_fidelity ** 2), abs=1e-9)

    def test_zero_probability_branch_reported(self):
        leak = eve_leakage(one_sided_attack(), n_max=2)
        assert leak.conditional_fidelity is None

    def test_probe_rotation_invariance(self):
        base = constrained_random_attack(5, 3, n_max=3)
        rng = np.random.default_rng(6)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        w, _ = np.linalg.qr(m)

        def rotate(vec):
            out = {}
            by_occ = {}
            for (e, occ), amp in vec.items():
                by_occ.setdefault(occ, np.zeros(3, dtype=complex))[e] = amp
            for occ, v in by_occ.items():
                rv = w @ v
                for e in range(3):
                    if abs(rv[e]) > 1e-15:
                        out[(e, occ)] = rv[e]
            return out

        # a probe-basis rotation maps U -> (W x 1)U and V -> (W x 1)V(W+ x 1),
        # so the return map's domain vectors rotate along with all images
        rotated = AttackSpec(
            name="rotated",
            outbound=oracles.map_from_columns(
                [(dom, rotate(img))
                 for dom, img in oracles.columns_of(base.outbound)], 3, 3),
            returning=oracles.map_from_columns(
                [(rotate(dom), rotate(img))
                 for dom, img in oracles.columns_of(base.returning)], 3, 3))
        rotated.validate()
        a = eve_leakage(base, n_max=3).conditional_fidelity
        b = eve_leakage(rotated, n_max=3).conditional_fidelity
        assert a == pytest.approx(b, abs=1e-10)


class TestLemmaVerify:
    """``verify``'s lemma suite drives the exact checks above at other photon
    caps than the CLI's 4."""

    @pytest.mark.parametrize("n_max", [3, 4, 5])
    def test_forward_and_converse(self, n_max):
        rows = verify.run_lemma(seed=n_max, trials=40, n_max=n_max)
        assert [row.name for row in rows] == [
            "forward-no-minus-clicks", "forward-zero-leakage",
            "converse-always-visible", "single-photon-click-magnitude",
            "parity-decomposition"]
        assert all(row.passed for row in rows), rows

    def test_rejects_tiny_cap(self):
        with pytest.raises(ValueError,
                           match="^n_max must be at least 2 to exercise"):
            verify.run_lemma(0, trials=1, n_max=1)

    def test_rejects_no_trials(self):
        with pytest.raises(ValueError,
                           match="^trials must be at least 1, not 0$"):
            verify.run_lemma(0, trials=0)


class TestThresholds:
    def test_conclusive_probability(self):
        assert b92_conclusive_prob(0.0) == 0.5
        assert b92_conclusive_prob(0.5) == pytest.approx(0.375)
        with pytest.raises(ValueError):
            b92_conclusive_prob(1.0)

    def test_loss_threshold(self):
        assert b92_breakable(0.625, 0.5)
        assert not b92_breakable(0.6249, 0.5)
        assert b92_povm_breakable(0.5, 0.5)
        assert not b92_povm_breakable(0.49, 0.5)

    def test_paper_point_expected_count(self):
        feas = pns_feasibility(0.89, 0.1, 0.01, 0.01, 10 ** 6)
        assert feas.expected_count == pytest.approx(1199.0, abs=1e-9)
        assert feas.threshold_ratio == pytest.approx(0.01 / 0.9801)
        assert feas.feasible  # 0.01/0.1 = 0.1 >= 0.0102...

    def test_flip_exactly_at_threshold(self):
        # F = 0.5 makes the division-free comparison exact in floats
        assert pns_feasibility(0.25, 0.25, 0.5, 0.5, 100).feasible
        assert not pns_feasibility(0.2500001, 0.25, 0.4999999, 0.5, 100).feasible

    def test_no_loss_and_total_loss(self):
        assert pns_feasibility(0.9, 0.0, 0.1, 0.0, 100).expected_count == 0.0
        assert pns_feasibility(0.9, 0.0, 0.1, 0.0, 100).feasible
        assert not pns_feasibility(0.8, 0.1, 0.1, 1.0, 100).feasible

    def test_no_single_photons(self):
        feas = pns_feasibility(0.9, 0.0, 0.1, 0.3, 1000)
        assert feas.feasible
        assert feas.expected_count == pytest.approx((1 - 0.7 ** 2) * 0.1 * 1000)

    def test_no_two_photons_infeasible(self):
        assert not pns_feasibility(0.9, 0.1, 0.0, 0.3, 1000).feasible

    def test_first_order_approximation(self):
        # near the flip point the two-photon share of the pulses is F + O(F^2)
        p1 = 0.1
        for f in (1e-4, 1e-3, 1e-2):
            p2_star = p1 * f / (1 - f) ** 2
            share = p2_star / (p1 + p2_star)
            assert abs(share - f) <= 5 * f * f

    def test_bad_stats_rejected(self):
        with pytest.raises(ValueError):
            pns_feasibility(0.5, 0.2, 0.2, 0.5, 100)
        with pytest.raises(ValueError):
            pns_feasibility(math.nan, 1, 0, 0.5, 100)
        with pytest.raises(ValueError):
            pns_feasibility(0.8, 0.1, 0.1, 1.5, 100)
