import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

import oracles
from sqkdsim.attacks import (
    AttackDomainError,
    AttackSpec,
    PnsStrategy,
    ProbeChannelMap,
    constrained_random_attack,
    general_attack,
    identity_attack,
    pns_attack,
    tagging_attack,
    usd_attack_b92,
)
from sqkdsim.fock import TruncationError, X, Z, make_basis_state, parity_state
from sqkdsim.joint import COUNTER, THRESHOLD, JointState, code_pattern
from sqkdsim.protocol import (
    TWO_WAY,
    VARIANTS,
    ConfigError,
    ProtocolConfig,
    _aggregate,
    alice_sift,
    build_bb84_tables,
    check_runs_on,
    run,
)

def three_sigma_binomial(p, n):
    return 3 * math.sqrt(p * (1 - p) / n)


class TestAliceOps:
    def test_sift_on_plus(self):
        j = JointState.from_product(0, make_basis_state((0, 1), X, 2), 1)
        branches = {pat: (p, r) for pat, p, r in alice_sift(j)}
        assert branches[(0, 1)][0] == pytest.approx(0.5)
        assert branches[(1, 0)][0] == pytest.approx(0.5)
        resid = branches[(0, 1)][1]
        assert [k[1] for k, _ in resid.items()] == [(0, 1)]

    def test_sift_on_vacuum(self):
        j = JointState.from_product(0, make_basis_state((0, 0), Z, 2), 1)
        branches = alice_sift(j)
        assert len(branches) == 1
        pat, p, resid = branches[0]
        assert pat == (0, 0) and p == pytest.approx(1.0)
        assert [k[1] for k, _ in resid.items()] == [(0, 0)]

    def test_sift_reflects_two_photons(self):
        j = JointState.from_product(0, parity_state(2, "even", Z, 2), 1)
        branches = {pat: r for pat, _p, r in alice_sift(j, policy="reflect-occupation")}
        assert [k[1] for k, _ in branches[(0, 1)].items()] == [(0, 2)]
        assert [k[1] for k, _ in branches[(1, 0)].items()] == [(2, 0)]

    def test_sift_measure_resend_collapses(self):
        j = JointState.from_product(0, parity_state(2, "even", Z, 2), 1)
        branches = {}
        for pat, p, r in alice_sift(j, policy="measure-resend"):
            branches[pat] = [k[1] for k, _ in r.items()]
        assert branches[(0, 1)] == [(0, 1)]
        assert branches[(1, 0)] == [(1, 0)]

    def test_two_plus_photons_double_click(self):
        j = JointState.from_product(0, make_basis_state((0, 2), X, 2), 1)
        branches = {pat: p for pat, p, _r in alice_sift(j)}
        assert branches[(1, 1)] == pytest.approx(0.5)

    def test_sift_rejects_unknown_policy(self):
        j = JointState.from_product(0, make_basis_state((0, 1), X, 2), 1)
        with pytest.raises(ConfigError,
                           match="^unknown residual policy 'nope'$"):
            alice_sift(j, policy="nope")


class TestAggregate:
    """The one evaluator of leaf masks, on a synthetic histogram."""

    w = np.array([3, 0, 5, 2, 4])
    rec = {"x": np.array([0, 1, 1, 0, 2], dtype=np.int8)}

    def evaluate(self, rows, meta=None):
        x = self.rec["x"]
        cats = {"zero": x == 0, "one": x == 1}
        return _aggregate(self.w, self.rec, cats, rows, meta or {})

    def test_counts_ratios_and_values(self):
        x = self.rec["x"]
        every = np.ones(x.size, dtype=bool)
        metrics, counts, fields = self.evaluate([
            ("rounds", every),
            ("ones", x == 1),
            ("one_fraction", x == 1, every, 0.0),
            ("value", 0.25),
        ])
        assert metrics == {"rounds": 14, "ones": 5, "one_fraction": 5 / 14,
                           "value": 0.25}
        assert [type(metrics[k]) for k in metrics] == [int, int, float, float]
        assert counts == {"zero": 5, "one": 5}
        assert all(type(c) is int for c in counts.values())
        # a leaf in no category is -1; the rest follow the declared order
        assert fields["category"].tolist() == [0, 1, 1, 0, -1]
        assert fields["x"] is self.rec["x"]

    def test_empty_denominator(self):
        x = self.rec["x"]
        # the second leaf is a one with no rounds, so the mask counts none
        unvisited = self.w == 0
        metrics, _counts, _fields = self.evaluate([
            ("fallback", x == 1, unvisited, 1.0),
            ("absent", x == 1, unvisited, None),
            ("none_at_all", x == 1, np.zeros(x.size, dtype=bool), 0.0),
        ])
        assert metrics == {"fallback": 1.0, "none_at_all": 0.0}

    def test_meta_keeps_placed_keys_and_appends_new_ones(self):
        metrics, _counts, _fields = self.evaluate(
            [("first", 1.5), ("ones", self.rec["x"] == 1)],
            meta={"late": 2.0, "first": 1.5})
        assert list(metrics) == ["first", "ones", "late"]
        assert metrics["first"] == 1.5 and metrics["late"] == 2.0


class TestRunProtocolIdeal:
    def test_no_eve_no_loss(self):
        cfg = ProtocolConfig(rounds=10_000, transmission=1.0, rng_seed=1, n_max=2)
        rep = run(cfg, identity_attack())
        assert rep.metrics["ctrl_errors"] == 0
        assert rep.metrics["test_errors"] == 0
        assert rep.metrics["alice_double_clicks"] == 0
        assert rep.metrics["sifted_agreement"] == 1.0
        assert rep.metrics["losses"] == 0

    def test_partition_covers_all_rounds(self):
        cfg = ProtocolConfig(rounds=5_000, transmission=0.6, rng_seed=2, n_max=2)
        rep = run(cfg, identity_attack(), keep_codes=True)
        assert sum(rep.categories.values()) == rep.rounds
        assert (rep.records["category"] >= 0).all()

    def test_loss_statistics(self):
        cfg = ProtocolConfig(rounds=40_000, transmission=0.5, rng_seed=3, n_max=2)
        rep = run(cfg, identity_attack())
        p_loss = 1 - 0.5 ** 2
        assert rep.metrics["ctrl_errors"] == 0
        assert rep.metrics["test_errors"] == 0
        assert abs(rep.metrics["loss_fraction"] - p_loss) <= \
            three_sigma_binomial(p_loss, cfg.rounds)

    # the limited tests run the paper's loss-only setting: single photons
    # on a channel capped at one photon
    def test_limited_variant_runs(self):
        cfg = ProtocolConfig(rounds=2_000, transmission=0.8, rng_seed=4,
                             n_max=1)
        rep = run(cfg, identity_attack())
        assert rep.metrics["ctrl_errors"] == 0
        assert rep.metrics["test_errors"] == 0

    def test_limited_variant_rejects_multiphoton_attack(self):
        cfg = ProtocolConfig(rounds=100, rng_seed=4, n_max=1)
        with pytest.raises(TruncationError):
            run(cfg, tagging_attack())

    def test_limited_variant_constrained_attack_invisible(self):
        # the loss-only statement: attacks confined to the one-photon space
        # that respect the rules trigger nothing and learn nothing
        cfg = ProtocolConfig(rounds=20_000, rng_seed=45, n_max=1)
        attack = constrained_random_attack(31, probe_dim=3, n_max=1)
        rep = run(cfg, attack)
        assert rep.metrics["ctrl_errors"] == 0
        assert rep.metrics["test_errors"] == 0
        assert rep.metrics["eve_fidelity"] >= 1 - 1e-9


class TestRunProtocolTagging:
    def test_reflecting_policy_hides_and_starves_eve(self):
        cfg = ProtocolConfig(rounds=30_000, rng_seed=5, n_max=2,
                             residual_policy="reflect-occupation")
        rep = run(cfg, tagging_attack())
        assert rep.metrics["ctrl_errors"] == 0
        assert rep.metrics["test_errors"] == 0
        assert rep.metrics["alice_double_clicks"] == 0
        assert rep.metrics["eve_fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert rep.metrics["eve_known_fraction"] == 0.0
        # photon counting is uninformative: the guess is a coin flip
        assert abs(rep.metrics["eve_guess_success"] - 0.5) <= \
            three_sigma_binomial(0.5, cfg.rounds)

    def test_measure_resend_policy_is_decoded(self):
        cfg = ProtocolConfig(rounds=30_000, rng_seed=6, n_max=2,
                             residual_policy="measure-resend")
        rep = run(cfg, tagging_attack())
        assert rep.metrics["eve_guess_success"] == 1.0
        assert rep.metrics["eve_known_fraction"] == 1.0
        assert rep.metrics["ctrl_errors"] == 0
        assert rep.metrics["test_errors"] == 0


class TestRunProtocolConstrained:
    def test_constrained_attack_invisible_over_many_rounds(self):
        cfg = ProtocolConfig(rounds=20_000, rng_seed=7, n_max=3)
        attack = constrained_random_attack(99, probe_dim=4, n_max=3)
        rep = run(cfg, attack)
        assert rep.metrics["ctrl_errors"] == 0
        assert rep.metrics["alice_double_clicks"] == 0
        assert rep.metrics["test_errors"] == 0
        assert rep.metrics["alice_11_prob_exact"] <= 1e-10
        assert rep.metrics["eve_fidelity"] >= 1 - 1e-9

    def test_counter_detectors_refused_by_name(self):
        # the return map covers threshold SIFT patterns only
        cfg = ProtocolConfig(rounds=100, n_max=3, detector_model=COUNTER)
        with pytest.raises(AttackDomainError, match=(
                r"^the constrained-random attack cannot run with counter "
                r"detectors and the reflect-occupation policy: input "
                r"component .* outside the attack map's domain$")):
            run(cfg, constrained_random_attack(5, 4, n_max=3))


class TestRunProtocolGeneral:
    def test_dense_attack_at_dim_168_runs(self):
        # n_max 5 has 21 channel occupations; with probe_dim 8 each map
        # is a dense 168 x 168 unitary over probe x channel
        rng = np.random.default_rng(168)
        outbound, returning = (oracles.haar_unitary(rng, 168) for _ in "ab")
        attack = general_attack(outbound, returning, probe_dim=8, n_max=5)
        cfg = ProtocolConfig(rounds=400, rng_seed=5, n_max=5,
                             source_stats=(0.1, 0.8, 0.1), transmission=0.9)
        rep = run(cfg, attack)
        assert rep.rounds == 400
        assert sum(rep.categories.values()) == rep.rounds
        assert 0.0 < rep.metrics["alice_11_prob_exact"] < 1.0


class TestStrengthenings:
    def test_two_photon_source_double_click_rate(self):
        cfg = ProtocolConfig(rounds=20_000, rng_seed=8, n_max=2,
                             source_stats=(0.0, 0.0, 1.0))
        rep = run(cfg, identity_attack())
        n_sift = rep.metrics["sift_rounds"]
        assert abs(rep.metrics["double_click_fraction"] - 0.5) <= \
            three_sigma_binomial(0.5, n_sift)
        assert rep.metrics["ctrl_errors"] == 0

    def test_counters_see_two_photon_pulses(self):
        cfg = ProtocolConfig(rounds=20_000, rng_seed=9, n_max=2,
                             source_stats=(0.0, 0.0, 1.0),
                             detector_model=COUNTER)
        rep = run(cfg, identity_attack())
        # the double-click statistic is unchanged, and counters additionally
        # resolve the single-mode two-photon readouts (the other half)
        n_sift = rep.metrics["sift_rounds"]
        assert abs(rep.metrics["double_click_fraction"] - 0.5) <= \
            three_sigma_binomial(0.5, n_sift)
        frac = rep.metrics["alice_multiphoton_readouts"] / n_sift
        assert abs(frac - 0.5) <= three_sigma_binomial(0.5, n_sift)

    def test_threshold_detectors_report_no_multiphoton(self):
        cfg = ProtocolConfig(rounds=5_000, rng_seed=9, n_max=2,
                             source_stats=(0.0, 0.0, 1.0))
        rep = run(cfg, identity_attack())
        assert rep.metrics["alice_multiphoton_readouts"] == 0

    def test_cross_basis_tests_flag_two_photon_source(self):
        cfg = ProtocolConfig(rounds=40_000, rng_seed=10, n_max=2,
                             source_stats=(0.0, 0.0, 1.0),
                             cross_basis_fraction=0.3)
        rep = run(cfg, identity_attack())
        assert rep.metrics["cross_ctrl_rounds"] > 0
        # reflected two-photon plus pulses read (1,1) in z half the time
        frac = rep.metrics["cross_ctrl_double"] / rep.metrics["cross_ctrl_rounds"]
        assert abs(frac - 0.5) <= three_sigma_binomial(
            0.5, rep.metrics["cross_ctrl_rounds"])

    def test_extra_bob_states_compare_clean(self):
        cfg = ProtocolConfig(rounds=20_000, rng_seed=11, n_max=2,
                             extra_state_fraction=0.3)
        rep = run(cfg, identity_attack())
        assert rep.metrics["extra_test_rounds"] > 0
        assert rep.metrics["extra_test_errors"] == 0
        assert sum(rep.categories.values()) == rep.rounds

    def test_extra_bob_states_catch_the_tag(self):
        # Eve's fixed tag cannot match three non-orthogonal emissions
        cfg = ProtocolConfig(rounds=20_000, rng_seed=12, n_max=2,
                             extra_state_fraction=0.4)
        rep = run(cfg, tagging_attack())
        n = rep.metrics["extra_test_rounds"]
        assert n > 0
        # the tag erases Bob's bit: Alice's readout agrees only half the time
        frac = rep.metrics["extra_test_errors"] / n
        assert abs(frac - 0.5) <= three_sigma_binomial(0.5, n)


class TestOptionInteractions:
    def test_cross_basis_tests_do_not_catch_the_tag(self):
        # reflected tags are folded back to the plus state before Bob ever
        # measures, so the added cross-basis tests stay silent
        cfg = ProtocolConfig(rounds=20_000, rng_seed=41, n_max=2,
                             cross_basis_fraction=0.3)
        rep = run(cfg, tagging_attack())
        assert rep.metrics["ctrl_errors"] == 0
        assert rep.metrics["cross_ctrl_double"] == 0
        assert rep.metrics["test_errors"] == 0
        assert rep.metrics["cross_sift_rounds"] > 0
        assert sum(rep.categories.values()) == rep.rounds

    def test_counters_with_measure_resend(self):
        cfg = ProtocolConfig(rounds=20_000, rng_seed=42, n_max=2,
                             residual_policy="measure-resend",
                             detector_model=COUNTER,
                             source_stats=(0.0, 0.0, 1.0))
        rep = run(cfg, identity_attack())
        n_sift = rep.metrics["sift_rounds"]
        frac = rep.metrics["alice_multiphoton_readouts"] / n_sift
        assert abs(frac - 0.5) <= three_sigma_binomial(0.5, n_sift)
        assert rep.metrics["test_errors"] == 0

    def test_extra_states_catch_tag_but_not_the_decoding(self):
        # Eve still decodes CTRL/SIFT perfectly, but the added bit
        # comparison disagrees half the time and exposes her
        cfg = ProtocolConfig(rounds=20_000, rng_seed=43, n_max=2,
                             residual_policy="measure-resend",
                             extra_state_fraction=0.3)
        rep = run(cfg, tagging_attack())
        assert rep.metrics["eve_guess_success"] == 1.0
        n = rep.metrics["extra_test_rounds"]
        frac = rep.metrics["extra_test_errors"] / n
        assert abs(frac - 0.5) <= three_sigma_binomial(0.5, n)

    def test_constrained_attack_survives_cross_basis_tests(self):
        cfg = ProtocolConfig(rounds=20_000, rng_seed=44, n_max=3,
                             cross_basis_fraction=0.25)
        attack = constrained_random_attack(7, probe_dim=4, n_max=3)
        rep = run(cfg, attack)
        assert rep.metrics["ctrl_errors"] == 0
        assert rep.metrics["cross_ctrl_double"] == 0
        assert rep.metrics["test_errors"] == 0


class TestRunB92:
    def test_no_attack_conclusive_fraction(self):
        for c in (0.0, 0.5):
            cfg = ProtocolConfig(variant="b92", rounds=40_000, rng_seed=13,
                                 transmission=0.9, b92_overlap=c)
            rep = run(cfg, identity_attack())
            want = 0.5 * (1 - c * c)
            arrived = rep.metrics["delivered"]
            assert abs(rep.metrics["conclusive_fraction"] - want) <= \
                three_sigma_binomial(want, arrived)
            assert rep.metrics["errors"] == 0

    def test_usd_attack_hides_in_loss(self):
        c = 0.5
        cfg = ProtocolConfig(variant="b92", rounds=40_000, rng_seed=14,
                             transmission=0.1, b92_overlap=c)
        rep = run(cfg, usd_attack_b92())
        want = 0.5 * (1 - c * c)
        assert rep.metrics["attack_attempted"] == 1.0
        assert abs(rep.metrics["delivered_fraction"] - want) <= \
            three_sigma_binomial(want, cfg.rounds)
        assert rep.metrics["errors"] == 0
        assert rep.metrics["eve_known_fraction"] == 1.0

    def test_attack_not_attempted_below_threshold(self):
        cfg = ProtocolConfig(variant="b92", rounds=5_000, rng_seed=15,
                             transmission=0.5, b92_overlap=0.5)
        rep = run(cfg, usd_attack_b92())
        assert rep.metrics["attack_attempted"] == 0.0
        assert rep.metrics["eve_known_fraction"] == 0.0

    def test_partition(self):
        cfg = ProtocolConfig(variant="b92", rounds=5_000, rng_seed=16,
                             transmission=0.4, b92_overlap=0.3)
        rep = run(cfg, identity_attack())
        assert sum(rep.categories.values()) == rep.rounds


class TestRunBb84:
    def test_no_attack_received_count(self):
        cfg = ProtocolConfig(variant="bb84", rounds=10 ** 6, rng_seed=17,
                             source_stats=(0.89, 0.1, 0.01), transmission=0.01)
        rep = run(cfg, identity_attack())
        x = rep.metrics["expected_received"]
        sigma = math.sqrt(x * (1 - x / cfg.rounds))
        assert abs(rep.metrics["received_pulses"] - x) <= 3 * sigma
        assert rep.metrics["error_rate"] == 0.0
        assert rep.metrics["eve_known_fraction"] == 0.0

    def test_splitting_attack_exact_budget(self):
        cfg = ProtocolConfig(variant="bb84", rounds=10 ** 6, rng_seed=17,
                             source_stats=(0.89, 0.1, 0.01), transmission=0.01)
        rep = run(cfg, pns_attack())
        assert rep.metrics["received_pulses"] == rep.metrics["pns_quota"]
        assert rep.metrics["pns_feasible"] == 1.0
        assert rep.metrics["pns_quota_met"] == 1.0
        assert rep.metrics["sifted_errors"] == 0
        assert rep.metrics["eve_known_fraction"] == 1.0

    def test_starved_attack_flagged(self):
        cfg = ProtocolConfig(variant="bb84", rounds=50_000, rng_seed=18,
                             source_stats=(0.9, 0.1, 0.0), transmission=0.05)
        rep = run(cfg, pns_attack())
        assert rep.metrics["pns_feasible"] == 0.0
        assert rep.metrics["pns_quota_met"] == 0.0
        assert rep.metrics["received_pulses"] == 0

    def test_partition(self):
        cfg = ProtocolConfig(variant="bb84", rounds=20_000, rng_seed=19,
                             source_stats=(0.5, 0.4, 0.1), transmission=0.6)
        rep = run(cfg, identity_attack())
        assert sum(rep.categories.values()) == rep.rounds

    def test_bob_reads_the_pulse_the_splitter_leaves(self):
        """A splitter that forwards its photon in the other mode flips
        every z-basis bit and leaves x-basis pulses alone: half the sifted
        bits are wrong."""
        r = 1.0 / math.sqrt(2.0)
        keep0, keep1 = 1, 2
        flipped = AttackSpec(
            name="flipped-pns",
            outbound=ProbeChannelMap.from_occupation_rules({
                (0, (0, 2)): [(keep0, (1, 0), 1.0)],
                (0, (2, 0)): [(keep1, (0, 1), 1.0)],
                (0, (1, 1)): [(keep1, (1, 0), r), (keep0, (0, 1), r)],
            }, [(0, occ) for occ in ((0, 0), (0, 1), (1, 0))]),
            strategy=PnsStrategy())
        cfg = ProtocolConfig(variant="bb84", rounds=20_000, rng_seed=23,
                             source_stats=(0.0, 0.0, 1.0), transmission=0.5)
        rep = run(cfg, flipped, keep_codes=True)
        rec = rep.records
        sifted = (rec["pattern"] != 0) & (rec["basis"] == rec["bob_basis"])
        assert rep.metrics["sifted_bits"] == sifted.sum() > 0
        wrong = rep.categories["sift_error"]
        assert wrong == (sifted & (rec["basis"] == 0)).sum()
        assert abs(rep.metrics["error_rate"] - 0.5) <= three_sigma_binomial(
            0.5, rep.metrics["sifted_bits"])
        assert rep.metrics["eve_known_fraction"] == 1.0


class TestBb84Rows:
    """Bob's rows, one per node (m, bit, basis, bob_basis) in that order."""

    NODES = list(itertools.product((1, 2), (0, 1), (0, 1), (0, 1)))

    @staticmethod
    def rows(model):
        cfg = ProtocolConfig(variant="bb84", rounds=100, detector_model=model)
        tab, _meta = build_bb84_tables(cfg, identity_attack())
        assert tab.meas_off.size == 17
        rows = []
        for lo, hi in zip(tab.meas_off[:-1], tab.meas_off[1:]):
            probs = np.diff(tab.meas_cum[lo:hi], prepend=0.0)
            rows.append([(code_pattern(int(c)), p) for c, p
                         in zip(tab.meas_pat[lo:hi], probs)])
        return rows

    def test_threshold_rows_match_the_reference(self):
        for (m, bit, basis, bob_basis), row in zip(self.NODES,
                                                   self.rows(THRESHOLD)):
            ref = oracles.BB84_THRESHOLD_ROWS[(m - 1) * 2
                                              + (basis == bob_basis)]
            # bit 1 mirrors bit 0's patterns, in the same order
            assert [pat for pat, _p in row] == [
                pat[::-1] if bit else pat for pat, _p in ref]
            assert np.allclose([p for _pat, p in row],
                               [p for _pat, p in ref], rtol=0, atol=1e-15)

    def test_counter_rows(self):
        for (m, bit, basis, bob_basis), row in zip(self.NODES,
                                                   self.rows(COUNTER)):
            if m == 1:
                ref = [((0, 1), 0.5), ((1, 0), 0.5)]
            else:
                ref = [((0, 2), 0.25), ((1, 1), 0.5), ((2, 0), 0.25)]
            if basis == bob_basis:
                ref = ref[:1]
            ref = [(pat[::-1] if bit else pat, p / sum(q for _, q in ref))
                   for pat, p in ref]
            assert [pat for pat, _p in row] == [pat for pat, _p in ref]
            assert np.allclose([p for _pat, p in row],
                               [p for _pat, p in ref], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("model", [THRESHOLD, COUNTER])
    def test_split_rows_are_the_one_photon_rows(self, model):
        """Under the splitting attack Bob's rows of a two-photon pulse are
        those of a one-photon pulse without it, bit for bit."""
        cfg = ProtocolConfig(variant="bb84", rounds=100, detector_model=model)
        plain, _meta = build_bb84_tables(cfg, identity_attack())
        split, _meta = build_bb84_tables(cfg, pns_attack())
        one = slice(0, plain.meas_off[8])
        two = slice(split.meas_off[8], split.meas_off[16])
        assert np.array_equal(np.diff(split.meas_off[8:]),
                              np.diff(plain.meas_off[:9]))
        assert split.meas_cum[two].tobytes() == plain.meas_cum[one].tobytes()
        assert np.array_equal(split.meas_pat[two], plain.meas_pat[one])

    def test_counters_see_both_photons_of_a_pulse(self):
        cfg = ProtocolConfig(variant="bb84", rounds=20_000, rng_seed=21,
                             source_stats=(0.0, 0.0, 1.0), transmission=1.0)
        threshold = run(cfg, identity_attack(), keep_codes=True)
        counter = run(dataclasses.replace(cfg, detector_model=COUNTER),
                      identity_attack(), keep_codes=True)
        seen = {model: set(map(code_pattern, rep.records["pattern"].tolist()))
                for model, rep in ((THRESHOLD, threshold), (COUNTER, counter))}
        assert seen[THRESHOLD] == {(0, 1), (1, 0), (1, 1)}
        assert seen[COUNTER] == {(0, 2), (1, 1), (2, 0)}
        # a pulse in Bob's basis reads the same bit under both models, and
        # one in the other basis is a basis mismatch whatever he reads
        assert counter.categories == threshold.categories


class TestDispatchAndValidation:
    @pytest.mark.parametrize("variant,n_max", [
        pytest.param(variant, 2, id=variant) for variant in VARIANTS] + [
        pytest.param("classical-alice-full", 1, id="loss-only")])
    def test_run_dispatches_by_variant(self, variant, n_max):
        cfg = ProtocolConfig(variant=variant, rounds=500, rng_seed=20,
                             transmission=0.5, n_max=n_max)
        rep = run(cfg, identity_attack())
        assert (rep.variant, rep.rounds, rep.seed) == (variant, 500, 20)
        assert sum(rep.categories.values()) == 500

    def test_one_way_attack_rejected_on_two_way_protocol(self):
        cfg = ProtocolConfig(rounds=100, n_max=2)
        with pytest.raises(ConfigError):
            run(cfg, pns_attack())

    def test_builders_refuse_what_the_rule_refuses(self):
        # the splitter runs on BB84 and the intercept on B92 alone, the
        # attack with no map and no strategy everywhere, any other two-way
        attacks = {
            "identity": (identity_attack(), VARIANTS),
            "pns": (pns_attack(), ("bb84",)),
            "usd-b92": (usd_attack_b92(), ("b92",)),
            "tagging": (tagging_attack(), TWO_WAY),
            "constrained-random": (
                constrained_random_attack(3, 2, n_max=2), TWO_WAY),
            "general": (general_attack(
                np.eye(6), np.eye(6), probe_dim=1, n_max=2), TWO_WAY),
        }
        for name, (attack, runs_on) in attacks.items():
            for variant in VARIANTS:
                cfg = ProtocolConfig(variant=variant, rounds=100, n_max=2)
                if variant in runs_on:
                    check_runs_on(attack, variant)
                    continue
                with pytest.raises(ConfigError) as refused:
                    check_runs_on(attack, variant)
                assert str(refused.value).startswith(f"the {name} attack runs "
                                                     f"on ")
                with pytest.raises(ConfigError,
                                   match=re.escape(str(refused.value))):
                    run(cfg, attack)

    def test_bad_configs(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(source_stats=(0.5, 0.2, 0.2)).validate()
        with pytest.raises(ConfigError):
            ProtocolConfig(source_stats=(math.nan, 1.0, 0.0)).validate()
        with pytest.raises(ConfigError):
            ProtocolConfig(transmission=1.2).validate()
        with pytest.raises(ConfigError):
            ProtocolConfig(variant="e91").validate()
        with pytest.raises(ConfigError):
            ProtocolConfig(rounds=0).validate()
        for variant in ("classical-alice-full", "bb84"):
            with pytest.raises(ConfigError, match="^two-photon pulses need a "
                                                  "photon cap of at least 2$"):
                ProtocolConfig(variant=variant, n_max=1,
                               source_stats=(0.3, 0.5, 0.2)).validate()
