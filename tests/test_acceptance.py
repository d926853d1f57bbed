"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run as ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the lines
while passing).  Tolerances are fixed here, not configurable.
"""

import math
from importlib import resources

import numpy as np
import pytest

from sqkdsim import analysis, cli, fock
from sqkdsim.attacks import (
    constrained_random_attack,
    identity_attack,
    pns_attack,
    tagging_attack,
    usd_attack_b92,
)
from sqkdsim.fock import X, Z, channel_basis, make_basis_state, parity_state, z_vector
from sqkdsim.joint import JointState
from sqkdsim.protocol import ProtocolConfig, run

from oracles import binomial_counts, symmetric_expansion

SQRT2 = math.sqrt(2.0)


def criterion(num: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {label} {detail}"


def random_states(count: int, n_max: int, seed: int):
    """Unit z vectors of ``count`` random states."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        amps = {}
        for _t in range(6):
            n1 = int(rng.integers(0, n_max + 1))
            n0 = int(rng.integers(0, n_max + 1 - n1))
            amps[(n1, n0)] = complex(rng.normal(), rng.normal())
        vec = z_vector(amps, Z, n_max)
        out.append(vec / np.linalg.norm(vec))
    return out


def test_criterion_1_expansion_exactness():
    explicit = {
        (1, +1): [1 / SQRT2, 1 / SQRT2],
        (1, -1): [1 / SQRT2, -1 / SQRT2],
        (2, +1): [0.5, SQRT2 / 2, 0.5],
        (2, -1): [0.5, -SQRT2 / 2, 0.5],
        (3, +1): [c / math.sqrt(8) for c in
                  (1, math.sqrt(3), math.sqrt(3), 1)],
        (3, -1): [c / math.sqrt(8) for c in
                  (1, -math.sqrt(3), math.sqrt(3), -1)],
    }
    worst = 0.0
    for (n, sign), row in explicit.items():
        got = fock.x_expansion(n, sign)
        worst = max(worst, max(abs(g - r) for g, r in zip(got, row)))
    oracle_worst = 0.0
    for n in range(5):
        for sign in (+1, -1):
            got = fock.x_expansion(n, sign)
            want = symmetric_expansion(n, sign)
            oracle_worst = max(oracle_worst,
                               max(abs(g - w) for g, w in zip(got, want)))
    criterion(1, "expansion rows exact and oracle-matched",
              worst <= 1e-12 and oracle_worst <= 1e-12,
              f"explicit {worst:.2e}, oracle {oracle_worst:.2e}")


def test_criterion_2_involution_and_isometry():
    had = channel_basis(6).hadamard
    a = np.stack(random_states(500, 6, seed=1002))
    b = a @ had
    worst_round_trip = float(np.max(np.linalg.norm(b @ had - a, axis=1)))
    gram_err = float(np.max(np.abs(a.conj() @ a.T - b.conj() @ b.T)))
    criterion(2, "double transform and all pairwise inner products",
              worst_round_trip <= 1e-10 and gram_err <= 1e-10,
              f"round trip {worst_round_trip:.2e}, gram {gram_err:.2e}")


def test_criterion_3_parity_laws():
    worst = 0.0
    for n in range(1, 7):
        for parity, keep in (("even", 0), ("odd", 1)):
            dist = JointState.from_product(
                0, parity_state(n, parity, Z), 1).occupation_distribution(X)
            for k in range(n + 1):
                p = dist.get((k, n - k), 0.0)
                want = 2 * binomial_counts(n, k) if k % 2 == keep else 0.0
                worst = max(worst, abs(p - want))
    criterion(3, "even/odd pulse parity laws to n=6", worst <= 1e-12,
              f"max deviation {worst:.2e}")


def test_criterion_4_split_sector_identities():
    spec = pns_attack(n_max=2)
    worst = 0.0
    for occ_in, keep_mode in (((0, 2), (0, 1)), ((2, 0), (1, 0))):
        pulse = make_basis_state(occ_in, X, 2)
        got = spec.apply_outbound(JointState.from_product(0, pulse, 3))
        # Eve's probe, indexed like the one-photon occupations, keeps one
        # photon of the pulse's mode and Bob gets the other
        kept = make_basis_state(keep_mode, X, 1)
        expected = np.outer(kept, make_basis_state(keep_mode, X, 2))
        worst = max(worst, float(np.max(np.abs(got.amps - expected))))
    criterion(4, "two-photon split invisible in the rotated basis",
              worst <= 1e-12, f"max amplitude deviation {worst:.2e}")


def test_criterion_5_undetectable_attacks_leak_nothing():
    combos = [(d, n) for d in (1, 2, 3, 4) for n in (2, 3, 4)]
    worst_minus = 0.0
    worst_fid = 1.0
    for t in range(1000):
        d, n = combos[t % len(combos)]
        attack = constrained_random_attack(50_000 + t, probe_dim=d, n_max=n)
        report = analysis.check_constraints(attack, n_max=n)
        worst_minus = max(worst_minus, report.bob_minus_click_prob)
        leak = analysis.eve_leakage(attack, n_max=n)
        worst_fid = min(worst_fid, leak.conditional_fidelity)
    criterion(5, "1000 rule-abiding attacks: invisible and information-free",
              worst_minus <= 1e-10 and worst_fid >= 1 - 1e-9,
              f"max minus prob {worst_minus:.2e}, min fidelity {worst_fid:.12f}")


def test_criterion_6_violations_always_visible():
    combos = [(d, n) for d in (1, 2, 3, 4) for n in (2, 3, 4)]
    min_minus = math.inf
    worst_pred = 0.0
    for t in range(1000):
        d, n = combos[t % len(combos)]
        if t % 2 == 0:
            attack = constrained_random_attack(
                90_000 + t, probe_dim=d, n_max=n,
                violation="single-photon-mismatch")
        else:
            level = 2 + (t // 2) % (n - 1)
            attack = constrained_random_attack(
                90_000 + t, probe_dim=d, n_max=n,
                violation="multi-photon-return", violation_level=level)
        report = analysis.check_constraints(attack, n_max=n)
        min_minus = min(min_minus, report.bob_minus_click_prob)
        if t % 2 == 0:
            predicted = report.bit_probe_distance ** 2 / 2
            worst_pred = max(worst_pred,
                             abs(report.bob_minus_click_prob - predicted))
    criterion(6, "1000 single-rule violations: always visible, "
                 "single-photon magnitude exact",
              min_minus > 0.0 and worst_pred <= 1e-9,
              f"min minus prob {min_minus:.2e}, magnitude err {worst_pred:.2e}")


def test_criterion_7_tagging_attack_both_policies():
    reflect = run(
        ProtocolConfig(rounds=100_000, rng_seed=701, n_max=2,
                       residual_policy="reflect-occupation"),
        tagging_attack())
    resend = run(
        ProtocolConfig(rounds=100_000, rng_seed=702, n_max=2,
                       residual_policy="measure-resend"),
        tagging_attack())
    ok = (reflect.metrics["ctrl_errors"] == 0
          and abs(reflect.metrics["eve_fidelity"] - 1.0) <= 1e-9
          and resend.metrics["eve_guess_success"] == 1.0)
    criterion(7, "tag invisible when reflecting, decoded when resending", ok,
              f"ctrl errors {reflect.metrics['ctrl_errors']}, "
              f"fidelity {reflect.metrics['eve_fidelity']:.12f}, "
              f"discrimination {resend.metrics['eve_guess_success']}")


def test_criterion_8_bb84_splitting_end_to_end():
    cfg = ProtocolConfig(variant="bb84", rounds=10 ** 6, rng_seed=801,
                         source_stats=(0.89, 0.1, 0.01), transmission=0.01)
    rep = run(cfg, pns_attack())
    x = 1199.0
    sigma = math.sqrt(x * (1 - x / cfg.rounds))
    count_ok = abs(rep.metrics["received_pulses"] - x) <= 3 * sigma
    clean = (rep.metrics["error_rate"] == 0.0
             and rep.metrics["eve_known_fraction"] == 1.0)
    # the viability predicate flips exactly at p2/p1 = F/(1-F)^2;
    # F = 1/2 makes the comparison exact in floating point
    at = analysis.pns_feasibility(0.25, 0.25, 0.5, 0.5, 1000).feasible
    above = analysis.pns_feasibility(0.249, 0.25, 0.501, 0.5, 1000).feasible
    below = analysis.pns_feasibility(0.251, 0.25, 0.499, 0.5, 1000).feasible
    flip_ok = at and above and not below
    criterion(8, "splitting attack delivers the expected count, cleanly",
              count_ok and clean and flip_ok,
              f"received {rep.metrics['received_pulses']} vs {x:.0f} "
              f"(3 sigma = {3 * sigma:.1f}), flip {at}/{above}/{below}")


def test_criterion_9_b92_conclusive_intercept():
    results = []
    for i, c in enumerate((0.0, 0.5, 0.8)):
        cfg = ProtocolConfig(variant="b92", rounds=200_000, rng_seed=901 + i,
                             transmission=0.1, b92_overlap=c)
        rep = run(cfg, usd_attack_b92())
        want = 0.5 * (1 - c * c)
        sigma = math.sqrt(want * (1 - want) / cfg.rounds)
        results.append(
            abs(rep.metrics["delivered_fraction"] - want) <= 3 * sigma
            and rep.metrics["errors"] == 0
            and rep.metrics["eve_known_fraction"] == 1.0
            and rep.metrics["attack_attempted"] == 1.0)
    # below the loss budget the intercept must not be attempted
    cfg = ProtocolConfig(variant="b92", rounds=1_000, rng_seed=904,
                         transmission=0.5, b92_overlap=0.5)
    gated = run(cfg, usd_attack_b92()).metrics["attack_attempted"] == 0.0
    criterion(9, "conclusive intercept exact at three overlaps, loss-gated",
              all(results) and gated,
              f"overlaps ok {results}, gated {gated}")


def test_criterion_10_two_photon_source_statistic():
    cfg = ProtocolConfig(rounds=40_000, rng_seed=1001, n_max=2,
                         source_stats=(0.0, 0.0, 1.0), transmission=1.0)
    rep = run(cfg, identity_attack())
    nonempty = rep.metrics["sift_rounds"]  # no loss: every sift round counts
    frac = rep.metrics["double_click_fraction"]
    band = 3 * math.sqrt(0.25 / nonempty)
    criterion(10, "two-photon source fires both detectors on half the "
                  "measured rounds",
              abs(frac - 0.5) <= band,
              f"fraction {frac:.4f}, band {band:.4f}")


def test_criterion_11_byte_identical_reports(tmp_path):
    scn = str(resources.files("sqkdsim") / "scenarios"
              / "classical-alice-ideal.scn")
    blobs = []
    for sub, jobs in (("r1", "1"), ("r2", "1"), ("r3", "4")):
        out = tmp_path / sub
        assert cli.main(["run", scn, "--out-dir", str(out),
                         "--jobs", jobs]) == 0
        blobs.append((out / "classical-alice-ideal.report.txt").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    criterion(11, "machine reports byte-identical across runs and workers",
              ok, f"{len(blobs[0])} bytes each")
