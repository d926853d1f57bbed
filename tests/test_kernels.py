"""The vectorized round engine against per-round reference walks.

``tests/oracles.py`` walks the same branch tables one round at a time,
scanning each row for the first cumulative threshold above the uniform,
and aggregates the records with one boolean mask per quantity.  The engine
must produce bit-identical records from the same tables and uniforms, and
its histogram aggregation the same metrics and categories, for any worker
count and across its fixed-size blocks, also where it folds a level or a
coin that needs no draw into its tables.  The engine compares each raw
64-bit draw with integer thresholds, which must agree exactly with the
reference's comparisons of doubles.  The two-way tables must chain: each
level has a row per branch of the level before it.
"""

import dataclasses
import math
import threading
import types
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sqkdsim import kernels, protocol
from sqkdsim.attacks import (
    constrained_random_attack,
    general_attack,
    identity_attack,
    pns_attack,
    tagging_attack,
    usd_attack_b92,
)
from sqkdsim.protocol import ProtocolConfig, run
from sqkdsim.scenario import load_scenario

SCENARIOS = resources.files("sqkdsim") / "scenarios"


def assert_identical(a, b):
    assert a.record_fields == b.record_fields
    for key, value in a.records.items():
        assert np.array_equal(value, b.records[key]), key
    assert a.metrics == b.metrics
    assert a.categories == b.categories


def reference(cfg, attack):
    """(records, metrics, categories) of the reference walk and aggregator."""
    u = kernels.round_uniforms(cfg.rng_seed, 0, cfg.rounds)
    if cfg.variant == "bb84":
        tables, meta = protocol.build_bb84_tables(cfg, attack)
        rec = oracles.bb84_walk(tables, u)
        metrics, counts, cat = oracles.bb84_aggregate(cfg, tables, meta, rec)
    elif cfg.variant == "b92":
        tables, _meta = protocol.build_b92_tables(cfg, attack)
        rec = oracles.b92_walk(tables, u)
        metrics, counts, cat = oracles.b92_aggregate(cfg, tables, rec)
    else:
        tables, meta = protocol.build_ca_tables(cfg, attack)
        rec = oracles.ca_walk(tables, u)
        metrics, counts, cat = oracles.ca_aggregate(
            cfg, attack, tables, meta["alice_11_prob_exact"], rec)
    rec["category"] = cat
    return rec, metrics, counts


def assert_matches_reference(cfg, mk, jobs=1, expected=None):
    report = protocol.run(cfg, mk(), jobs=jobs, keep_codes=True)
    rec, metrics, counts = expected or reference(cfg, mk())
    records = report.records
    assert list(records) == list(rec)
    for key, value in rec.items():
        assert np.array_equal(records[key], value), key
    # same keys in the same order, with the same Python types
    assert ([(k, type(v), v) for k, v in report.metrics.items()]
            == [(k, type(v), v) for k, v in metrics.items()])
    assert report.categories == counts
    return report


#: outbound and return maps of a ``general`` attack, probe dimension 2 and
#: photon cap 2 (2 x 6 channel states)
HAAR_MAPS = [oracles.haar_unitary(np.random.default_rng(41), 2 * 6),
             oracles.haar_unitary(np.random.default_rng(42), 2 * 6)]

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
                                    cross_basis_fraction=0.25,
                                    extra_state_fraction=0.25,
                                    source_stats=(0.1, 0.8, 0.1),
                                    transmission=0.7,
                                    detector_model="counter"),
     identity_attack),
    ("constrained", ProtocolConfig(rounds=4000, rng_seed=26, n_max=3),
     lambda: constrained_random_attack(5, 4, n_max=3)),
    ("general-haar", ProtocolConfig(rounds=4000, rng_seed=41,
                                    transmission=0.8, n_max=2),
     lambda: general_attack(*HAAR_MAPS, probe_dim=2, n_max=2)),
    # every SIFT round a test, and nothing lost: the loss levels and the
    # test coin fold away
    ("all-tests", ProtocolConfig(rounds=4000, rng_seed=42, transmission=1.0,
                                 test_fraction=1.0, n_max=2),
     identity_attack),
]


@pytest.mark.parametrize("name,cfg,mk", CA_CASES, ids=[c[0] for c in CA_CASES])
def test_two_way_matches_reference_walk(name, cfg, mk):
    assert_matches_reference(cfg, mk)


def test_bb84_matches_reference_walk():
    cfg = ProtocolConfig(variant="bb84", rounds=50_000, rng_seed=27,
                         source_stats=(0.89, 0.1, 0.01), transmission=0.05)
    for attack in (pns_attack, identity_attack):
        assert_matches_reference(cfg, attack)


@pytest.mark.usefixtures("many_cpus")
@pytest.mark.parametrize("jobs", [1, 3])
def test_bb84_lossless_hits_match_reference_walk(jobs):
    """Without loss most rounds reach Bob, a third of them as two-photon
    pulses, so most codes take the detector branch."""
    cfg = ProtocolConfig(variant="bb84", rounds=BLOCKED_ROUNDS, rng_seed=37,
                         source_stats=(0.2, 0.5, 0.3), transmission=1.0)
    report = assert_matches_reference(cfg, identity_attack, jobs=jobs)
    received = report.records["pattern"] != 0
    assert received.mean() > 0.75
    assert (received & (report.records["pulse_size"] == 2)).mean() > 0.25


def test_b92_matches_reference_walk():
    cfg = ProtocolConfig(variant="b92", rounds=50_000, rng_seed=28,
                         transmission=0.1, b92_overlap=0.5)
    for attack in (usd_attack_b92, identity_attack):
        assert_matches_reference(cfg, attack)


#: several full blocks and a ragged last one
BLOCKED_ROUNDS = 3 * kernels.BLOCK + 17


@pytest.mark.usefixtures("many_cpus")
@pytest.mark.parametrize("jobs", [2, 3, 7])
def test_worker_count_does_not_change_results(jobs):
    cfg = ProtocolConfig(rounds=BLOCKED_ROUNDS, rng_seed=29, transmission=0.6,
                         n_max=2)
    base = run(cfg, identity_attack(), jobs=1, keep_codes=True)
    split = run(cfg, identity_attack(), jobs=jobs, keep_codes=True)
    assert_identical(base, split)


#: tables whose levels or coins the walks fold into constants: the two-way
#: cases above, a BB84 source that never sends vacuum (a pulse-size branch
#: of probability 0), a BB84 channel that loses every photon, and a B92
#: channel that loses none
FOLD_CASES = [
    *(case for case in CA_CASES if case[0] in ("general-haar", "all-tests")),
    ("bb84-no-vacuum", ProtocolConfig(variant="bb84", rng_seed=43,
                                      source_stats=(0.0, 0.7, 0.3),
                                      transmission=0.3), identity_attack),
    ("bb84-pns-no-vacuum", ProtocolConfig(variant="bb84", rng_seed=44,
                                          source_stats=(0.0, 0.7, 0.3),
                                          transmission=0.3), pns_attack),
    ("bb84-dark", ProtocolConfig(variant="bb84", rng_seed=45,
                                 source_stats=(0.6, 0.3, 0.1),
                                 transmission=0.0), identity_attack),
    ("b92-lossless", ProtocolConfig(variant="b92", rng_seed=46,
                                    transmission=1.0, b92_overlap=0.5),
     identity_attack),
]


@pytest.mark.usefixtures("many_cpus")
@pytest.mark.parametrize("jobs", [1, 3])
@pytest.mark.parametrize("name,cfg,mk", FOLD_CASES,
                         ids=[c[0] for c in FOLD_CASES])
def test_folds_match_reference_walk(name, cfg, mk, jobs):
    cfg = dataclasses.replace(cfg, rounds=BLOCKED_ROUNDS)
    assert_matches_reference(cfg, mk, jobs=jobs)


def walker(cfg, attack):
    """A run's tables, the chain that plans its walk, its walker and its
    reference walk of uniforms."""
    if cfg.variant == "bb84":
        tab, _meta = protocol.build_bb84_tables(cfg, attack)
        return (tab, protocol._bb84_chain, protocol.simulate_bb84,
                lambda u: oracles.bb84_walk(tab, u))
    if cfg.variant == "b92":
        tab, _meta = protocol.build_b92_tables(cfg, attack)
        return (tab, protocol._b92_chain, protocol.simulate_b92,
                lambda u: oracles.b92_walk(tab, u))
    tab, _meta = protocol.build_ca_tables(cfg, attack)
    return (tab, protocol._ca_chain, protocol.simulate_ca,
            lambda u: oracles.ca_walk(tab, u))


def walk_chain(cfg, attack):
    """The draws of a run's walk and its record fields per leaf."""
    tab, chain, _walk, _reference = walker(cfg, attack)
    return chain(tab)


@pytest.mark.parametrize("name,slots", [
    # Alice's action and her SIFT branch: no loss, one emission, Eve's
    # return and Bob's click are certain, and every SIFT round is a test
    ("all-tests", [2, 3]),
    # both losses draw; Bob's click on a photon that arrives is certain
    ("lossy", [1, 2, 3, 6, 9]),
    # three emissions, and cross-basis tests that reach Bob's random rows
    ("strengthened", [0, 1, 2, 3, 6, 7, 8, 9]),
    # the bundled one-way scenarios: the pulse size, then the fair coins;
    # the splitter draws no loss
    ("bb84-pns", [2, 0, 1, 4, 5]),
    ("bb84-baseline", [2, 0, 1, 4, 3, 5]),
    ("b92-usd-c05", [0, 1, 2, 4, 5]),
    # orthogonal states: both conclusive results are certain
    ("b92-usd-c00", [0, 1, 4]),
    # nothing lost: the transmission coin folds
    ("b92-lossless", [0, 4, 5]),
])
def test_two_way_walk_draws_only_what_it_needs(name, slots):
    cfg, mk = next(((cfg, mk) for case, cfg, mk in CA_CASES + FOLD_CASES
                    if case == name), (None, None))
    if cfg is None:
        scenario = load_scenario(str(SCENARIOS / f"{name}.scn"))
        cfg, mk = scenario.config, scenario.build_attack
    plan, _fields = walk_chain(cfg, mk())
    assert [slot for slot, _step in plan] == slots


@pytest.mark.parametrize("jobs", [1, 3])
@pytest.mark.parametrize("variant", ["classical-alice-full", "bb84", "b92"])
def test_zero_rounds_walk_nothing(variant, jobs):
    cfg = ProtocolConfig(variant=variant, rounds=1, n_max=2)
    tables, chain, walk, _reference = walker(cfg, identity_attack())
    _plan, leaves = chain(tables)
    size = leaves["bit" if variant in ("bb84", "b92") else "emit"].size
    for keep_codes in (False, True):
        codes, counts, fields = walk(tables, 7, 0, jobs=jobs,
                                     keep_codes=keep_codes)
        assert counts.shape == (size,) and counts.dtype == np.int64
        assert not counts.any()
        assert list(fields) == list(leaves)
        if keep_codes:
            assert codes.shape == (0,) and codes.dtype == np.uint8
        else:
            assert codes is None


def test_block_edges_match_reference_walk(pns_references):
    """Records around the walk's block edges, read from the record fields
    per leaf that the walker returns, are the reference walk's: two-way at
    two jobs, B92, and BB84 under the splitting quota, which the third
    block crosses, walked by the reference from round 0."""
    cases = [
        (ProtocolConfig(rounds=BLOCKED_ROUNDS, rng_seed=31, transmission=0.6,
                        n_max=2), tagging_attack, 2),
        (ProtocolConfig(variant="b92", rounds=BLOCKED_ROUNDS, rng_seed=30,
                        transmission=0.1, b92_overlap=0.5),
         usd_attack_b92, 3),
        (PNS_CASES["third-block"], pns_attack, 1),
    ]
    for cfg, attack, jobs in cases:
        tables, _chain, walk, walk_reference = walker(cfg, attack())
        codes, counts, fields = walk(tables, cfg.rng_seed, cfg.rounds,
                                     jobs=jobs, keep_codes=True)
        assert np.array_equal(counts,
                              np.bincount(codes, minlength=counts.size))
        for edge in (kernels.BLOCK, 2 * kernels.BLOCK, 3 * kernels.BLOCK,
                     BLOCKED_ROUNDS):
            lo, hi = edge - 40, min(edge + 40, cfg.rounds)
            if cfg.variant == "bb84":
                ref = {key: value[lo:hi] for key, value
                       in pns_references["third-block"][0].items()}
            else:
                ref = walk_reference(
                    kernels.round_uniforms(cfg.rng_seed, lo, hi))
            for key in fields:
                assert np.array_equal(fields[key][codes[lo:hi]], ref[key]), \
                    (cfg.variant, edge, key)


def test_bb84_twins_are_the_forwarded_leaves():
    """Under the splitting quota each forwarded leaf has one blocked twin
    appended to the leaves: the same bit, bases and pulse size, with
    nothing forwarded, no click and no bit for Eve.  One tail leaf follows
    the twins, blocked too and -1 in the fields not drawn; a run that keeps
    its codes walks every round, so the tail holds none.  Rounds land on
    the twins only past the quota."""
    cfg = PNS_CASES["third-block"]
    tables, _meta = protocol.build_bb84_tables(cfg, pns_attack())
    _plan, leaves = protocol._bb84_chain(tables)
    codes, counts, fields = protocol.simulate_bb84(
        tables, cfg.rng_seed, cfg.rounds, keep_codes=True)
    size = leaves["forwarded"].size
    forwarded = np.flatnonzero(leaves["forwarded"] == 1)
    assert forwarded.size > 0 and counts.size == size + forwarded.size + 1
    assert counts[-1] == 0
    assert np.array_equal(counts, np.bincount(codes, minlength=counts.size))
    blocked = {"forwarded": 0, "pattern": 0, "evebit": -1}
    for name, values in leaves.items():
        assert np.array_equal(fields[name][:size], values), name
        twin = values[forwarded] if name not in blocked else blocked[name]
        assert np.array_equal(fields[name][size:-1],
                              np.broadcast_to(twin, forwarded.size)), name
        assert fields[name][-1] == blocked.get(name, -1), name
    two = np.cumsum(fields["pulse_size"][codes] == 2)
    assert np.array_equal(codes >= size,
                          (fields["pulse_size"][codes] == 2)
                          & (two > tables.quota))


def leaf_cases():
    """(id, config, attack maker) of every bundled scenario and of a seeded
    Haar ``general`` attack of dimension 60 (probe 4, photon cap 4)."""
    cases = []
    for path in sorted(SCENARIOS.iterdir()):
        if path.name.endswith(".scn"):
            scenario = load_scenario(str(path))
            cases.append((scenario.name, scenario.config,
                          scenario.build_attack))
    rng = np.random.default_rng(60)
    maps = [oracles.haar_unitary(rng, 4 * 15) for _leg in range(2)]
    cases.append(("general-haar-60", ProtocolConfig(n_max=4),
                  lambda: general_attack(*maps, probe_dim=4, n_max=4)))
    return cases


LEAF_CASES = leaf_cases()


@pytest.mark.parametrize("name,cfg,mk", LEAF_CASES,
                         ids=[c[0] for c in LEAF_CASES])
def test_walks_keep_one_byte_per_round(name, cfg, mk):
    """Every bundled walk, BB84's blocked twins included, ends on at most
    256 leaves, so a logged run keeps one byte per round."""
    report = protocol.run(dataclasses.replace(cfg, rounds=100), mk(),
                          keep_codes=True)
    assert report.code_fields["category"].size <= 256
    assert report.codes.dtype == np.uint8


def two_way_table_cases():
    """(id, config, attack maker) of every bundled two-way scenario and of
    a seeded Haar ``general`` attack."""
    cases = []
    for path in sorted(SCENARIOS.iterdir()):
        if path.name.endswith(".scn"):
            scenario = load_scenario(str(path))
            if scenario.config.variant.startswith("classical-alice"):
                cases.append((scenario.name, scenario.config,
                              scenario.build_attack))
    rng = np.random.default_rng(4)
    maps = [oracles.haar_unitary(rng, 2 * 6) for _leg in range(2)]
    cases.append(("general-haar",
                  ProtocolConfig(rounds=10, transmission=0.8, n_max=2),
                  lambda: general_attack(*maps, probe_dim=2, n_max=2)))
    return cases


TABLE_CASES = two_way_table_cases()


@pytest.mark.parametrize("name,cfg,mk", TABLE_CASES,
                         ids=[c[0] for c in TABLE_CASES])
def test_two_way_levels_chain(name, cfg, mk):
    """Each level has a row per branch of the level before it; the return
    level's rows are the outbound nodes, then the SIFT branches, and Bob's
    level has a row per measured node in each basis.  Every row's
    cumulative probability ends at 1."""
    tab, _meta = protocol.build_ca_tables(cfg, mk())
    outbound = tab.oloss_cum.size
    chain = [
        (tab.oloss_off, tab.emission_cum.size),
        (tab.sift_off, outbound),
        (tab.ret_off, outbound + tab.sift_cum.size),
        (tab.rloss_off, tab.ret_cum.size),
        (tab.bob_off, 2 * tab.rloss_cum.size),
    ]
    for off, rows in chain:
        assert off.size - 1 == rows
    assert abs(tab.emission_cum[-1] - 1.0) <= 1e-12
    for off, cum in ((tab.oloss_off, tab.oloss_cum),
                     (tab.sift_off, tab.sift_cum),
                     (tab.ret_off, tab.ret_cum),
                     (tab.rloss_off, tab.rloss_cum),
                     (tab.bob_off, tab.bob_cum)):
        assert off[-1] == cum.size and np.all(np.diff(off) >= 1)
        assert np.max(np.abs(cum[off[1:] - 1] - 1.0)) <= 1e-12


@pytest.mark.usefixtures("many_cpus")
@pytest.mark.parametrize("rounds", [1, 7])
def test_tiny_runs_match_reference_walk(rounds):
    cfg = ProtocolConfig(rounds=rounds, rng_seed=32, transmission=0.6,
                         n_max=2, cross_basis_fraction=0.25,
                         extra_state_fraction=0.25)
    assert_matches_reference(cfg, identity_attack, jobs=3)


#: the splitter's quota falls in the third block: every block before it
#: forwards all its two-photon pulses, every block after it none
PNS_CFG = ProtocolConfig(variant="bb84", rounds=BLOCKED_ROUNDS, rng_seed=33,
                         source_stats=(0.6, 0.3, 0.1), transmission=0.2)

#: PNS_CFG's quota, a quota of 0 (nothing is expected through a dark
#: channel), which blocks every two-photon pulse from round 0, and a quota
#: above the run's two-photon count (most pulses are expected through),
#: which is never met
PNS_CASES = {
    "third-block": PNS_CFG,
    "zero": dataclasses.replace(PNS_CFG, rng_seed=47, transmission=0.0),
    "unmet": dataclasses.replace(PNS_CFG, rng_seed=48, transmission=0.9),
}


@pytest.fixture(scope="module")
def pns_references():
    return {name: reference(cfg, pns_attack())
            for name, cfg in PNS_CASES.items()}


@pytest.mark.usefixtures("many_cpus")
@pytest.mark.parametrize("jobs", [1, 3, 7])
def test_bb84_quota_carries_across_blocks(jobs, pns_references):
    for name, cfg in PNS_CASES.items():
        report = assert_matches_reference(cfg, pns_attack, jobs=jobs,
                                          expected=pns_references[name])
        two = np.cumsum(report.records["pulse_size"] == 2)
        quota = report.metrics["pns_quota"]
        forwarded = report.metrics["pns_forwarded"]
        if name == "third-block":
            assert two[kernels.BLOCK - 1] < quota <= two[-1]
            assert forwarded == quota
        elif name == "zero":
            assert quota == 0 < two[-1] and forwarded == 0
        else:
            assert quota > two[-1] > 0 and forwarded == two[-1]
        assert report.metrics["pns_quota_met"] == (
            1.0 if two[-1] >= quota else 0.0), name
        # a run that keeps no codes walks the quota in spans
        bare = protocol.run(cfg, pns_attack(), jobs=jobs)
        assert bare.metrics == report.metrics, name
        assert bare.categories == report.categories, name


@pytest.mark.usefixtures("many_cpus")
@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("name", PNS_CASES)
def test_bb84_runs_have_the_same_leaves_with_or_without_codes(name, jobs):
    """A BB84 run under the splitter has the same leaves whether or not it
    keeps its codes: the walked leaves, their twins and the tail leaf, so
    the same record fields per leaf, metrics and categories.  The kept
    run's histogram counts its kept codes."""
    cfg = PNS_CASES[name]
    logged = protocol.run(cfg, pns_attack(), jobs=jobs, keep_codes=True)
    bare = protocol.run(cfg, pns_attack(), jobs=jobs)
    assert list(bare.code_fields) == list(logged.code_fields)
    for key, values in logged.code_fields.items():
        assert np.array_equal(bare.code_fields[key], values), key
        assert bare.code_fields[key].dtype == values.dtype, key
    assert bare.metrics == logged.metrics
    assert bare.categories == logged.categories
    tab, _meta = protocol.build_bb84_tables(cfg, pns_attack())
    codes, counts, _fields = protocol.simulate_bb84(tab, cfg.rng_seed,
                                                    cfg.rounds, jobs, True)
    assert np.array_equal(codes, logged.codes)
    assert np.array_equal(np.bincount(codes, minlength=counts.size), counts)


BUNDLED_PNS = load_scenario(str(SCENARIOS / "bb84-pns.scn")).config

#: BB84 under the splitter: the bundled scenario with either detector, and
#: source and transmission points from a weak lossy source to a lossless
#: one and a dark channel
PNS_POINTS = {
    "bundled": BUNDLED_PNS,
    "bundled-counter": dataclasses.replace(BUNDLED_PNS,
                                           detector_model="counter"),
    "weak": dataclasses.replace(PNS_CFG, source_stats=(0.8, 0.15, 0.05),
                                transmission=0.05),
    "lossless-counter": dataclasses.replace(
        PNS_CFG, source_stats=(0.2, 0.5, 0.3), transmission=1.0,
        detector_model="counter"),
    "dark": dataclasses.replace(PNS_CFG, source_stats=(0.5, 0.0, 0.5),
                                transmission=0.0),
}


@pytest.mark.parametrize("cfg", PNS_POINTS.values(), ids=PNS_POINTS)
def test_bb84_blocked_rounds_never_click(cfg):
    """A run that keeps no codes stops walking after the span that meets
    the splitter's quota and counts the later rounds at one leaf: exact
    only while a blocked round cannot click.  Every leaf a blocked round
    can take, each leaf not forwarded and each twin, has no pattern,
    nothing forwarded and no bit for Eve, and the aggregator counts a round
    there as one at that unwalked leaf."""
    tables, meta = protocol.build_bb84_tables(cfg, pns_attack())
    _plan, leaves = protocol._bb84_chain(tables)
    size = leaves["forwarded"].size
    _codes, _counts, fields = protocol.simulate_bb84(
        tables, cfg.rng_seed, 1, keep_codes=True)
    blocked = np.append(np.flatnonzero(leaves["forwarded"] != 1),
                        np.arange(size, fields["pattern"].size))
    for name, value in (("pattern", 0), ("forwarded", 0), ("evebit", -1)):
        assert (fields[name][blocked] == value).all(), name
    # a quota of 0 walks nothing: the one round is at the unwalked leaf,
    # and the run has the kept run's leaves
    _codes, tail, tail_fields = protocol.simulate_bb84(
        dataclasses.replace(tables, quota=0), cfg.rng_seed, 1)
    assert tail[-1] == 1 == tail.sum()
    assert {name: int(values[-1]) for name, values in tail_fields.items()} \
        == {"bit": -1, "basis": -1, "pulse_size": -1, "forwarded": 0,
            "bob_basis": -1, "pattern": 0, "evebit": -1}
    for name, values in tail_fields.items():
        assert np.array_equal(values, fields[name]), name
        assert values.dtype == fields[name].dtype, name
    unwalked = protocol._bb84_aggregate(tables, meta, tail, tail_fields)[:2]
    assert unwalked[1]["no_click"] == 1
    for leaf in blocked:
        w = np.zeros(fields["pattern"].size, dtype=np.int64)
        w[leaf] = 1
        assert protocol._bb84_aggregate(tables, meta, w,
                                        fields)[:2] == unwalked, leaf


def block_finder(seed, n):
    """The block index of a block's raw words, read from its first round's
    words."""
    first = {kernels._draw(seed, lo, 1)[0].tobytes(): b
             for b, lo in enumerate(range(0, n, kernels.BLOCK))}
    return lambda raw: first[raw[0].tobytes()]


@pytest.mark.usefixtures("many_cpus")
def test_bb84_quota_folds_blocks_walked_on_threads(monkeypatch):
    # under the splitting attack at 3 jobs the quota, met in the third
    # block, walks one span of 3 blocks, block t on thread t, the calling
    # thread being thread 0, and counts the last block's rounds unwalked; a
    # run that keeps its codes walks the same span and then the span of the
    # last block, alone on the calling thread
    cfg = PNS_CASES["third-block"]
    base = protocol.run(cfg, pns_attack(), keep_codes=True)
    block = block_finder(cfg.rng_seed, cfg.rounds)
    walked, spans = {}, []
    walk_chain, walk = kernels._walk_chain, protocol._walk

    def spy_chain(plan, raw):
        # the thread objects, not their idents, which a new thread may reuse
        walked[block(raw)] = threading.current_thread()
        return walk_chain(plan, raw)

    def spy_walk(plan, fields, seed, n, jobs, keep_codes, lo=0):
        spans.append((lo, n, keep_codes))
        return walk(plan, fields, seed, n, jobs, keep_codes, lo)

    monkeypatch.setattr(kernels, "_walk_chain", spy_chain)
    monkeypatch.setattr(protocol, "_walk", spy_walk)
    report = protocol.run(cfg, pns_attack(), jobs=3)
    caller = threading.current_thread()
    assert spans == [(0, 3 * kernels.BLOCK, True)]
    assert sorted(walked) == [0, 1, 2]
    assert walked[0] is caller
    assert len({caller, walked[1], walked[2]}) == 3
    assert report.metrics == base.metrics
    assert report.categories == base.categories
    spans.clear()
    walked.clear()
    report = protocol.run(cfg, pns_attack(), jobs=3, keep_codes=True)
    assert spans == [(0, 3 * kernels.BLOCK, True),
                     (3 * kernels.BLOCK, cfg.rounds, True)]
    assert sorted(walked) == [0, 1, 2, 3]
    assert walked[0] is caller and walked[3] is caller
    assert len({caller, walked[1], walked[2]}) == 3
    assert np.array_equal(report.codes, base.codes)
    assert report.metrics == base.metrics


@pytest.fixture(scope="module")
def pns_free():
    """PNS_CFG's tables, the leaves of its walk without a quota, each
    leaf's forwarded flag and the run's forwarded rounds so far."""
    tab, _meta = protocol.build_bb84_tables(PNS_CFG, pns_attack())
    plan, leaves = protocol._bb84_chain(tab)
    forwarded = leaves["forwarded"] == 1
    free, _counts, _fields = kernels._walk(plan, leaves, PNS_CFG.rng_seed,
                                           PNS_CFG.rounds, 1, True)
    return tab, free, forwarded, np.cumsum(forwarded[free])


def assert_quota_matches_reference_fold(pns_free, quota, jobs):
    """Codes and histogram of PNS_CFG's run under ``quota`` at ``jobs``
    are those of the reference fold of the quota-free leaves.  A run that
    keeps no codes counts the reference fold's rounds up to the end of the
    span that meets the quota, none for a quota of 0 and all for one never
    met, and the rounds after it at the tail leaf after the twins, which
    holds no round of the kept run; both have the same fields.  Returns
    the reference fold and the fields."""
    tab, free, forwarded, two = pns_free
    rounds = PNS_CFG.rounds
    tab = dataclasses.replace(tab, quota=quota)
    expected = oracles.bb84_quota(free, forwarded, quota)
    size = forwarded.size + forwarded.sum() + 1
    codes, counts, fields = protocol.simulate_bb84(
        tab, PNS_CFG.rng_seed, rounds, jobs, True)
    assert np.array_equal(codes, expected), jobs
    assert np.array_equal(counts, np.bincount(expected, minlength=size))
    assert counts[-1] == 0
    # the walk ends with the span of jobs blocks that meets the quota
    reached = int(np.searchsorted(two, quota)) + 1 if quota else 0
    span = jobs * kernels.BLOCK
    lo = min(rounds, -(-reached // span) * span)
    bare, bare_counts, bare_fields = protocol.simulate_bb84(
        tab, PNS_CFG.rng_seed, rounds, jobs, False)
    assert bare is None
    walked = np.bincount(expected[:lo], minlength=size)
    walked[-1] = rounds - lo
    assert np.array_equal(bare_counts, walked), jobs
    for key, value in fields.items():
        assert np.array_equal(bare_fields[key], value), key
    return expected, fields


@pytest.mark.parametrize("edge", ["first-block", "first-span", "one"])
def test_bb84_quota_edges_match_reference_fold(edge, pns_free):
    """A quota met at a span's edge or at once matches the reference fold
    at 1, 2 and 3 jobs, whose records are the reference walk's."""
    tab, _free, _forwarded, two = pns_free
    # the quota is met at the end of the first block, at the end of the
    # first span at two jobs, or at the run's first two-photon pulse
    met = {"first-block": kernels.BLOCK, "first-span": 2 * kernels.BLOCK,
           "one": int(np.argmax(two > 0)) + 1}[edge]
    quota = int(two[met - 1])
    assert 0 < quota < two[-1]
    for jobs in (1, 2, 3):
        expected, fields = assert_quota_matches_reference_fold(
            pns_free, quota, jobs)
    rec = oracles.bb84_walk(dataclasses.replace(tab, quota=quota),
                            kernels.round_uniforms(PNS_CFG.rng_seed, 0,
                                                   PNS_CFG.rounds))
    for key, value in rec.items():
        assert np.array_equal(fields[key][expected], value), key


@given(data=st.data(), jobs=st.sampled_from([1, 2, 3]))
@settings(deadline=None, derandomize=True)
def test_bb84_quota_at_any_round_matches_reference_fold(data, jobs, pns_free):
    """The quota may be met at any round, or never: every quota from 0 to
    one past the run's two-photon pulses matches the reference fold, also
    one that a block's last round meets, or misses by one."""
    two = pns_free[3]
    ends = two[np.arange(kernels.BLOCK, PNS_CFG.rounds, kernels.BLOCK) - 1]
    edges = sorted({int(q) + d for q in ends for d in (-1, 0, 1)})
    quota = data.draw(st.integers(0, int(two[-1]) + 1) | st.sampled_from(edges),
                      label="quota")
    assert_quota_matches_reference_fold(pns_free, quota, jobs)


@pytest.mark.parametrize("name", ["third-block", "unmet"])
def test_bb84_quota_folds_only_spans_past_it(name, monkeypatch):
    """A span whose forwarded rounds stay within the quota adds the walk's
    histogram as it is; only a span that reaches past the quota is folded
    round by round.  At one job a run without codes folds only the span
    that meets the quota, a kept run that span and every span after it,
    and a run whose quota is never met no span."""
    cfg = PNS_CASES[name]
    base = protocol.run(cfg, pns_attack(), keep_codes=True)
    spans, folded = [], []
    walk, cumsum = protocol._walk, np.cumsum

    def spy_walk(plan, fields, seed, n, jobs, keep_codes, lo=0):
        spans.append((lo, n))
        return walk(plan, fields, seed, n, jobs, keep_codes, lo)

    def spy_cumsum(a, *args, **kwargs):
        # the fold's running count of a span's forwarded rounds
        if spans and np.size(a) == spans[-1][1] - spans[-1][0]:
            folded.append(spans[-1])
        return cumsum(a, *args, **kwargs)

    monkeypatch.setattr(protocol, "_walk", spy_walk)
    monkeypatch.setattr(np, "cumsum", spy_cumsum)
    ends = [(lo, min(cfg.rounds, lo + kernels.BLOCK))
            for lo in range(0, cfg.rounds, kernels.BLOCK)]
    for keep_codes in (False, True):
        spans.clear()
        folded.clear()
        report = protocol.run(cfg, pns_attack(), keep_codes=keep_codes)
        assert report.metrics == base.metrics
        assert report.categories == base.categories
        if name == "unmet":
            assert spans == ends and not folded
        elif keep_codes:
            assert spans == ends and folded == ends[2:]
        else:
            assert spans == ends[:3] and folded == ends[2:3]


@pytest.mark.parametrize("cfg", [
    ProtocolConfig(rounds=10, n_max=2),
    dataclasses.replace(PNS_CFG, rounds=10),
    ProtocolConfig(variant="b92", rounds=10),
], ids=["two-way", "bb84-pns", "b92"])
def test_nonpositive_jobs_are_refused(cfg):
    attack = pns_attack if cfg.variant == "bb84" else identity_attack
    for jobs in (0, -2):
        with pytest.raises(ValueError) as raised:
            protocol.run(cfg, attack(), jobs=jobs)
        assert str(raised.value) == f"jobs must be at least 1, not {jobs}"


def test_jobs_are_capped_at_the_cpus(monkeypatch):
    """On 2 CPUs a run at 64 jobs walks as one at 2 jobs: a two-way run of
    5 blocks starts one thread beside the calling one, and BB84 under the
    splitting quota walks spans of 2 blocks; both give the 1-job output."""
    monkeypatch.setattr(protocol, "_cpus", lambda: 2)
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(kernels, "threading",
                        types.SimpleNamespace(Thread=Counted))
    cfg = ProtocolConfig(rounds=5 * kernels.BLOCK, rng_seed=49,
                         transmission=0.6, n_max=2)
    base = run(cfg, identity_attack(), jobs=1, keep_codes=True)
    assert not started
    assert_identical(base, run(cfg, identity_attack(), jobs=64,
                               keep_codes=True))
    assert len(started) == 1

    cfg = PNS_CASES["third-block"]
    base = run(cfg, pns_attack())
    spans = []
    walk = protocol._walk

    def spy_walk(plan, fields, seed, n, jobs, keep_codes, lo=0):
        spans.append((lo, n, jobs))
        return walk(plan, fields, seed, n, jobs, keep_codes, lo)

    monkeypatch.setattr(protocol, "_walk", spy_walk)
    capped = run(cfg, pns_attack(), jobs=64)
    # the quota is met in the third block, so in the second span
    assert spans == [(0, 2 * kernels.BLOCK, 2),
                     (2 * kernels.BLOCK, cfg.rounds, 2)]
    assert capped.metrics == base.metrics
    assert capped.categories == base.categories


class WalkFault(Exception):
    pass


#: enough blocks that each of three threads walks four
LONG_ROUNDS = 12 * kernels.BLOCK + 5


def coin_walk():
    """The plan and fields of a walk of one coin."""
    return kernels._chain([(0, kernels._coin(0.3))], leaf=np.arange(3))


def walk_within(*args, **kwargs):
    """``kernels._walk(*args, **kwargs)`` on a thread of its own that must
    end within a minute, so that a walk that never returns, such as one
    left joining a thread that never ends, fails the test; its result, or
    its exception raised here."""
    done = {}

    def run():
        try:
            done["result"] = kernels._walk(*args, **kwargs)
        except Exception as exc:
            done["error"] = exc

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    if "error" in done:
        raise done["error"]
    return done["result"]


@pytest.mark.parametrize("jobs", [2, 3])
def test_walk_leaves_no_thread_behind(jobs):
    plan, fields = coin_walk()
    before = threading.active_count()
    _codes, counts, _ = walk_within(plan, fields, 5, LONG_ROUNDS, jobs, False)
    assert counts.sum() == LONG_ROUNDS
    assert threading.active_count() == before


@pytest.mark.parametrize("jobs", [2, 3])
def test_worker_error_is_raised_in_the_calling_thread(monkeypatch, jobs):
    # block 1 is the first block of thread 1
    plan, fields = coin_walk()
    block = block_finder(5, LONG_ROUNDS)
    walk_chain = kernels._walk_chain

    def faulty(plan, raw):
        if block(raw) == 1:
            raise WalkFault(threading.current_thread())
        return walk_chain(plan, raw)

    monkeypatch.setattr(kernels, "_walk_chain", faulty)
    before = threading.active_count()
    with pytest.raises(WalkFault) as raised:
        walk_within(plan, fields, 5, LONG_ROUNDS, jobs, True)
    walker, = raised.value.args
    assert walker is not threading.current_thread()
    assert not walker.is_alive()
    assert threading.active_count() == before


def test_thread_that_will_not_start_is_raised(monkeypatch):
    # thread 2 of 3 cannot start; the walk raises that error once thread 1
    # is joined
    plan, fields = coin_walk()
    started = []

    class Unstartable(threading.Thread):
        def start(self):
            started.append(self)
            if len(started) == 2:
                raise RuntimeError("can't start new thread")
            super().start()

    # only the walk's threads: walk_within's own starts as usual
    monkeypatch.setattr(kernels, "threading",
                        types.SimpleNamespace(Thread=Unstartable))
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="can't start"):
        walk_within(plan, fields, 5, LONG_ROUNDS, 3, True)
    assert len(started) == 2 and not started[0].is_alive()
    assert threading.active_count() == before


@pytest.mark.parametrize("cfg", [
    ProtocolConfig(rounds=BLOCKED_ROUNDS, rng_seed=34, transmission=0.6,
                   n_max=2),
    dataclasses.replace(PNS_CFG, rng_seed=35),
    ProtocolConfig(variant="b92", rounds=BLOCKED_ROUNDS, rng_seed=36,
                   transmission=0.1, b92_overlap=0.5),
], ids=["two-way", "bb84-pns", "b92"])
def test_runs_keep_codes_only_on_request(cfg):
    attack = pns_attack if cfg.variant == "bb84" else identity_attack
    kept = protocol.run(cfg, attack(), jobs=2, keep_codes=True)
    bare = protocol.run(cfg, attack(), jobs=2)
    assert kept.codes.shape == (cfg.rounds,) and bare.codes is None
    assert bare.metrics == kept.metrics
    assert bare.categories == kept.categories


def test_uniforms_are_a_pure_function_of_seed():
    starts = (0, 1, 2, 3, 7, 99_999, kernels.BLOCK - 1, kernels.BLOCK,
              2 * kernels.BLOCK + 1)
    # full covers every window below
    n = max(starts) + 50
    full = kernels.round_uniforms(123, 0, n)
    assert np.array_equal(full, kernels.round_uniforms(123, 0, n))
    # any window is the same rows: rounds own fixed counter blocks, whatever
    # the offset of the window within Philox's four-double counter steps
    for lo in starts:
        assert full[lo:lo + 20].shape == (20, kernels.SLOTS), lo
        assert np.array_equal(kernels.round_uniforms(123, lo, lo + 20),
                              full[lo:lo + 20]), lo
    assert not np.array_equal(full[:1000],
                              kernels.round_uniforms(124, 0, 1000))
    # the walk's raw words are the same draws: raw >> 11 is the word k of
    # the double k * 2**-53
    for lo in starts:
        raw = kernels._draw(123, lo, 20)
        words = raw >> np.uint64(kernels.RAW_SHIFT)
        assert np.array_equal(words * 2.0 ** -kernels.WORD_BITS,
                              full[lo:lo + 20]), lo
    # each window's words are those of one stream keyed at round 0 and
    # moved on to round lo by Philox.advance, also far beyond full's rounds:
    # at the last full block of a 4e6-round run, and past round 2**40
    for lo in (*starts, 244 * kernels.BLOCK, 2 ** 40 + 1):
        bits = np.random.Philox(key=np.uint64(123))
        bits.advance(kernels.SLOTS * lo // 4)
        bits.random_raw(kernels.SLOTS * lo % 4)
        assert np.array_equal(kernels._draw(123, lo, 20),
                              bits.random_raw((20, kernels.SLOTS))), lo


def test_word_thresholds_are_exact():
    """A word passes its threshold exactly when its double passes ``p``,
    checked at the threshold and on either side of it; and a raw word
    passes its raw threshold, in every stage and coin, exactly when its
    word passes ``K``."""
    rng = np.random.default_rng(38)
    word_one = 2 ** kernels.WORD_BITS
    thresholds = {0, word_one}
    for p in [0.0, 2.0 ** -53, 2.0 ** -54, 5e-324, np.nextafter(0.5, 0.0),
              0.5, np.nextafter(0.5, 1.0), 1.0 - 2.0 ** -53, 1.0, np.inf,
              *rng.random(64)]:
        threshold = kernels.word_thresholds(p)[()]
        assert threshold.dtype == np.uint64
        thresholds.add(int(threshold))
        k = np.array([w for w in (int(threshold) - 1, int(threshold),
                                  int(threshold) + 1)
                      if 0 <= w < word_one], dtype=np.uint64)
        u = k * 2.0 ** -kernels.WORD_BITS
        assert np.array_equal(k >= threshold, u >= p), p
        assert np.array_equal(k < threshold, u < p), p

    half = int(kernels.word_thresholds(0.5))
    for K in sorted(thresholds):
        edge = K << kernels.RAW_SHIFT
        raw = np.array([w for w in (edge - 1, edge, edge + 2047, 0,
                                    2 ** 64 - 1) if 0 <= w < 2 ** 64],
                       dtype=np.uint64)
        passes = (raw >> np.uint64(kernels.RAW_SHIFT)) >= np.uint64(K)
        # K * 2**-53 is exact, and its word threshold is K
        p = K * 2.0 ** -kernels.WORD_BITS
        assert int(kernels.word_thresholds(p)) == K
        # row 0 leads with a branch of probability 0, which the stage counts
        # into the row's start; row 1 is [0, p), [p, 1)
        stage = kernels.Stage.of(np.array([0, 3, 5]),
                                 np.array([0.0, p, 1.0, p, 1.0]),
                                 np.array([0, 1]))
        assert np.array_equal(stage.pick(raw, np.zeros(raw.size, np.intp)),
                              1 + passes), K
        assert np.array_equal(stage.pick(raw, np.ones(raw.size, np.intp)),
                              3 + passes), K
        one_row = np.array([0, 3]), np.array([0.0, p, 1.0])
        stage = kernels.Stage.of(*one_row, np.array([0]))
        assert np.array_equal(stage.pick(raw, np.zeros(raw.size, np.intp)),
                              1 + passes), K
        # a walk counts the thresholds a word passes, or folds the stage
        plan, leaves = kernels._chain([(0, one_row)], path=np.arange(3))
        assert np.array_equal(
            leaves["path"][kernels._walk_chain(plan, raw[:, None])],
            1 + passes), K
        # a coin u < p hits on branch 0, and folds into a constant when K
        # is 0 or 2**53
        plan, leaves = kernels._chain([(0, kernels._coin(p))],
                                      path=np.arange(3))
        branch = leaves["path"][kernels._walk_chain(plan, raw[:, None])]
        assert np.array_equal(branch == 0, ~passes), K
        assert (len(plan) == 0) == (K in (0, word_one)), K
        if K == half:
            # the fair coin misses exactly on the words with the top bit set
            assert np.array_equal(branch == 1, raw >= np.uint64(2 ** 63))


def test_nan_threshold_raises():
    with pytest.raises(ValueError, match="NaN"):
        kernels.word_thresholds(np.nan)
    with pytest.raises(ValueError, match="NaN"):
        kernels._chain([(0, (np.array([0, 3]), np.array([0.2, np.nan, 1.0])))])


def test_walk_draws_whole_blocks(monkeypatch):
    # each block is drawn from its own first round's words, whatever the
    # thread count; only the last block is ragged
    n = BLOCKED_ROUNDS
    block = block_finder(5, n)
    seen = []
    walk_chain = kernels._walk_chain
    monkeypatch.setattr(kernels, "_walk_chain", lambda plan, raw: (
        seen.append((block(raw), raw.shape[0])) or walk_chain(plan, raw)))
    fields = {"leaf": np.zeros(1)}
    for jobs in (1, 2, 3, 10 ** 6):
        seen.clear()
        codes, counts, _ = walk_within([], fields, 5, n, jobs, True)
        assert codes.size == n and counts.tolist() == [n]
        assert sorted(seen) == [(0, kernels.BLOCK), (1, kernels.BLOCK),
                                (2, kernels.BLOCK), (3, 17)]
    with pytest.raises(ValueError):
        walk_within([], fields, 5, n, 0, False)


#: rounds of each G-test, walked from seed 1 on 2 jobs
LAW_ROUNDS = 10 ** 6


def law_cases():
    """(config, attack factory) of every bundled scenario and of
    ``general`` attacks from two Haar unitaries of dim 60 (probe 4 x 15
    occupations at n_max 4), seeds 1-3, each with its name as its id."""
    cases = []
    for path in sorted(SCENARIOS.iterdir()):
        if path.name.endswith(".scn"):
            scenario = load_scenario(str(path))
            cases.append(pytest.param(scenario.config, scenario.build_attack,
                                      id=scenario.name))
    for seed in (1, 2, 3):
        def dense(seed=seed):
            rng = np.random.default_rng(seed)
            maps = [oracles.haar_unitary(rng, 60) for _ in "ab"]
            return general_attack(*maps, probe_dim=4, n_max=4)
        cases.append(pytest.param(ProtocolConfig(n_max=4), dense,
                                  id=f"dense-attack-{seed}"))
    return cases


@pytest.mark.parametrize("cfg,mk", law_cases())
def test_compiled_thresholds_follow_the_float_rows(monkeypatch, cfg, mk):
    """The law of the compiled plan, summed over the leaves of each path,
    is the law of the levels' float rows to within the thresholds'
    rounding of each probability to a multiple of 2**-53."""
    steps = []
    chain = kernels._chain
    monkeypatch.setattr(protocol, "_chain", lambda levels, **fields: (
        steps.extend(levels) or chain(levels, **fields)))
    walk_chain(cfg, mk())
    law = oracles.path_law(steps)
    plan, leaves = kernels._chain(steps, path=np.arange(law.size))
    compiled = np.bincount(leaves["path"], weights=oracles.plan_law(plan),
                           minlength=law.size)
    assert np.abs(compiled - law).max() <= 1e-15


@pytest.mark.parametrize("cfg,mk", law_cases())
def test_sampled_leaves_follow_the_exact_law(cfg, mk):
    # bb84-pns walks without its quota, so its law is the pre-quota one
    plan, fields = walk_chain(cfg, mk())
    law = oracles.plan_law(plan)
    assert law.size == next(iter(fields.values())).size
    assert abs(math.fsum(law) - 1.0) <= 1e-12
    assert (law > 0).all()
    _codes, counts, _fields = walk_within(plan, fields, 1, LAW_ROUNDS, 2,
                                          keep_codes=False)
    assert counts[law == 0].sum() == 0
    seen = counts > 0
    g = 2.0 * np.sum(counts[seen] * np.log(counts[seen]
                                            / (LAW_ROUNDS * law[seen])))
    df = np.count_nonzero(law) - 1
    assert g <= df + 6 * math.sqrt(2 * df), (g, df)


#: rounds and seeds of each quota's check of BB84's leaf counts
QUOTA_ROUNDS, QUOTA_SEEDS = 250_000, range(1, 41)


def excess_moments(n, q, quota):
    """``E[B]``, ``Var B`` and ``Var K`` of the rounds the splitter blocks,
    ``B = (T - Q)+``, and forwards, ``K = min(T, Q) = Q - D``, for
    ``T ~ Bin(n, q)`` two-photon rounds and ``D = (Q - T)+``.  Both read
    ``E[D]`` and ``E[D^2]``, sums over ``t < Q`` only: ``B D = 0``, so
    ``E[B^2] = E[(T - Q)^2] - E[D^2]``."""
    def pmf(t):
        return math.exp(math.lgamma(n + 1) - math.lgamma(t + 1)
                        - math.lgamma(n - t + 1) + t * math.log(q)
                        + (n - t) * math.log1p(-q))
    d1 = math.fsum((quota - t) * pmf(t) for t in range(quota))
    d2 = math.fsum((quota - t) ** 2 * pmf(t) for t in range(quota))
    mean = n * q - quota + d1
    var = n * q * (1 - q) - d2 - 2 * (n * q - quota) * d1 - d1 * d1
    return mean, var, d2 - d1 * d1


@pytest.mark.parametrize("at", ["1199", "n q"])
def test_bb84_quota_counts_follow_the_closed_form(at):
    """BB84's leaf counts under the splitting quota are not i.i.d. rounds,
    yet their mean is closed: ``E[h] = n p + E[B] (blocked(p_F) - p_F)``,
    with ``p`` the quota-free law, ``q`` its forwarded mass and ``p_F`` the
    law given a forwarded round.  Given ``T``, the forwarded rounds kept
    and blocked are ``Bin(K, p_F)`` and ``Bin(B, p_F)`` per leaf, which
    gives each count's variance.  Over 40 seeds each leaf's mean count is
    within 4.5 sigma of its expectation; the 2 x 64 z-scores of a correct
    walk all stay there but for a chance of about 1e-3."""
    scenario = load_scenario(str(SCENARIOS / "bb84-pns.scn"))
    tab, _meta = protocol.build_bb84_tables(scenario.config,
                                            scenario.build_attack())
    plan, fields = protocol._bb84_chain(tab)
    n, p = QUOTA_ROUNDS, oracles.plan_law(plan)
    forwarded = np.flatnonzero(fields["forwarded"] == 1)
    q = math.fsum(p[forwarded])
    p_f = p[forwarded] / q
    quota = 1199 if at == "1199" else round(n * q)
    blocked, var_b, var_k = excess_moments(n, q, quota)
    kept = n * q - blocked

    expected = np.append(n * p, np.zeros(forwarded.size))
    expected[forwarded] -= blocked * p_f
    expected[p.size:] += blocked * p_f
    var = np.append(n * p * (1 - p),
                    blocked * p_f * (1 - p_f) + p_f ** 2 * var_b)
    var[forwarded] = kept * p_f * (1 - p_f) + p_f ** 2 * var_k
    assert np.allclose(expected[forwarded], kept * p_f, rtol=1e-12)

    tab = dataclasses.replace(tab, quota=quota)
    # kept codes walk every round, so each walked leaf keeps its own count
    # and the tail leaf, which holds the rounds never walked, holds none
    counts = np.array([protocol.simulate_bb84(tab, seed, n,
                                              keep_codes=True)[1]
                       for seed in QUOTA_SEEDS])
    assert (counts[:, -1] == 0).all()
    counts = counts[:, :-1]
    assert (counts.sum(axis=1) == n).all()
    z = (counts.mean(axis=0) - expected) / np.sqrt(var / len(QUOTA_SEEDS))
    assert np.abs(z).max() <= 4.5, z
