"""The vectorized round engine against per-round reference walks.

``tests/oracles.py`` walks the same branch tables one round at a time,
scanning each row for the first cumulative threshold above the uniform.
The engine must produce bit-identical records from the same tables and
uniforms, hence identical metrics and categories, for any worker count and
across its fixed-size blocks.
"""

import numpy as np
import pytest

import oracles
from sqkdsim import kernels, protocol
from sqkdsim.attacks import (
    constrained_random_attack,
    identity_attack,
    pns_attack,
    tagging_attack,
    usd_attack_b92,
)
from sqkdsim.protocol import ProtocolConfig, run_b92, run_bb84, run_protocol


def assert_identical(a, b):
    assert set(a.records) == set(b.records)
    for key in a.records:
        assert np.array_equal(a.records[key], b.records[key]), key
    assert a.metrics == b.metrics
    assert a.categories == b.categories


def engine_and_reference(run, monkeypatch):
    """(engine report, reference report) of ``run()``."""
    engine = run()
    with monkeypatch.context() as m:
        m.setattr(protocol, "simulate_ca",
                  lambda tab, u, jobs=1: oracles.ca_walk(tab, u))
        m.setattr(protocol, "simulate_bb84",
                  lambda tab, u, jobs=1: oracles.bb84_walk(
                      tab, u, kernels.MIRROR_CODE))
        m.setattr(protocol, "simulate_b92",
                  lambda tab, u, jobs=1: oracles.b92_walk(tab, u))
        reference = run()
    return engine, reference


CA_CASES = [
    ("ideal", ProtocolConfig(rounds=4000, rng_seed=21, n_max=2),
     identity_attack),
    ("lossy", ProtocolConfig(rounds=4000, rng_seed=22, transmission=0.4,
                             n_max=2), identity_attack),
    ("tag-reflect", ProtocolConfig(rounds=4000, rng_seed=23, n_max=2),
     tagging_attack),
    ("tag-resend", ProtocolConfig(rounds=4000, rng_seed=24, n_max=2,
                                  residual_policy="measure-resend"),
     tagging_attack),
    ("strengthened", ProtocolConfig(rounds=4000, rng_seed=25, n_max=2,
                                    cross_basis_tests=True,
                                    extra_bob_states=True,
                                    source_stats=(0.1, 0.8, 0.1),
                                    transmission=0.7,
                                    detector_model="counter"),
     identity_attack),
    ("constrained", ProtocolConfig(rounds=4000, rng_seed=26, n_max=3),
     lambda: constrained_random_attack(5, 4, n_max=3)),
]


@pytest.mark.parametrize("name,cfg,mk", CA_CASES, ids=[c[0] for c in CA_CASES])
def test_two_way_matches_reference_walk(name, cfg, mk, monkeypatch):
    assert_identical(*engine_and_reference(lambda: run_protocol(cfg, mk()),
                                           monkeypatch))


def test_bb84_matches_reference_walk(monkeypatch):
    cfg = ProtocolConfig(variant="bb84", rounds=50_000, rng_seed=27,
                         source_stats=(0.89, 0.1, 0.01), transmission=0.05)
    for attack in (pns_attack, identity_attack):
        assert_identical(*engine_and_reference(
            lambda: run_bb84(cfg, attack()), monkeypatch))


def test_b92_matches_reference_walk(monkeypatch):
    cfg = ProtocolConfig(variant="b92", rounds=50_000, rng_seed=28,
                         transmission=0.1, b92_overlap=0.5)
    for attack in (lambda: usd_attack_b92(0.5), identity_attack):
        assert_identical(*engine_and_reference(
            lambda: run_b92(cfg, attack()), monkeypatch))


#: several full blocks and a ragged last one
BLOCKED_ROUNDS = 3 * (1 << 16) + 17


@pytest.mark.parametrize("jobs", [2, 3, 7])
def test_worker_count_does_not_change_results(jobs):
    cfg = ProtocolConfig(rounds=BLOCKED_ROUNDS, rng_seed=29, transmission=0.6,
                         n_max=2)
    base = run_protocol(cfg, identity_attack(), jobs=1)
    split = run_protocol(cfg, identity_attack(), jobs=jobs)
    assert_identical(base, split)


def test_block_edges_match_reference_walk():
    cfg = ProtocolConfig(rounds=BLOCKED_ROUNDS, rng_seed=31, transmission=0.6,
                         n_max=2)
    tables, _meta = protocol.build_ca_tables(cfg, tagging_attack())
    u = kernels.round_uniforms(cfg.rng_seed, cfg.rounds)
    rec = kernels.simulate_ca(tables, u, jobs=2)
    for edge in (1 << 16, 2 << 16, 3 << 16, BLOCKED_ROUNDS):
        window = slice(edge - 40, edge + 40)
        ref = oracles.ca_walk(tables, u[window])
        for key in ref:
            assert np.array_equal(rec[key][window], ref[key]), (edge, key)


@pytest.mark.parametrize("rounds", [1, 7])
def test_tiny_runs_match_reference_walk(rounds, monkeypatch):
    cfg = ProtocolConfig(rounds=rounds, rng_seed=32, transmission=0.6,
                         n_max=2, cross_basis_tests=True,
                         extra_bob_states=True)
    assert_identical(*engine_and_reference(
        lambda: run_protocol(cfg, identity_attack(), jobs=3), monkeypatch))


def test_uniforms_are_a_pure_function_of_seed():
    a = kernels.round_uniforms(123, 1000)
    b = kernels.round_uniforms(123, 1000)
    assert np.array_equal(a, b)
    # a longer run has the same prefix: rounds own fixed counter blocks
    c = kernels.round_uniforms(123, 2000)
    assert np.array_equal(a, c[:1000])
    assert not np.array_equal(a, kernels.round_uniforms(124, 1000))
