"""Protocol state machines: two-way classical-Alice rounds, BB84 and B92.

The two-way engine enumerates one round's full branch structure exactly
(emission, per-leg loss, Eve's outbound map, Alice's CTRL/SIFT, Eve's
return behaviour, Bob's detector statistics) into flat categorical tables,
then hands the per-round sampling walk to the round engine in
``kernels``.  All quantum amplitudes are therefore evaluated once per run;
the Monte-Carlo loop only draws branch indices.  Every table is built
level by level with ``_level``: a row per node, and a branch per node of
the next level, in order, so no table maps branches to nodes.

``run`` is the one driver: each variant has a builder (``build_*_tables``,
which validates the config and returns the tables and the run's exact
values; the attack checked its maps when it was built), a walker
(``kernels.simulate_*``) and an aggregator.  The walker returns the number
of rounds at each leaf of its walk, each record field's value per leaf,
and one leaf per round when the caller keeps them (``keep_codes``, for a
round log).  Every category and metric is a count, or a ratio of counts,
of the rounds at a set of leaves, so each aggregator only declares leaf
masks over the record fields: its categories, keyed by name, and its
metric rows.  ``_aggregate`` alone weights them by the histogram.

Loss is independent per-photon survival applied on each leg in transit
(suppressed entirely when the attack substitutes a lossless channel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from . import analysis
from .attacks import (
    AttackSpec,
    AttackDomainError,
    CountDecodeStrategy,
    PnsStrategy,
    UsdStrategy,
)
from .fock import FockState, X, Z, make_basis_state
from .joint import (
    COUNTER,
    JointState,
    THRESHOLD,
    detector_pattern,
    pattern_code,
)
from .kernels import (
    B92Tables,
    Bb84Tables,
    CaTables,
    round_uniforms,  # noqa: F401  kept importable here for run tracers
    simulate_b92,
    simulate_bb84,
    simulate_ca,
)

CLASSICAL_ALICE_FULL = "classical-alice-full"
CLASSICAL_ALICE_LIMITED = "classical-alice-limited"
BB84 = "bb84"
B92 = "b92"

REFLECT = "reflect-occupation"
MEASURE_RESEND = "measure-resend"

VARIANTS = (CLASSICAL_ALICE_FULL, CLASSICAL_ALICE_LIMITED, BB84, B92)


class ConfigError(ValueError):
    """A protocol configuration is inconsistent or incomplete."""


@dataclass
class ProtocolConfig:
    """Run parameters for any protocol variant; unused fields are ignored."""
    variant: str = CLASSICAL_ALICE_FULL
    rounds: int = 10_000
    source_stats: Tuple[float, float, float] = (0.0, 1.0, 0.0)
    transmission: float = 1.0
    detector_model: str = THRESHOLD
    residual_policy: str = REFLECT
    cross_basis_tests: bool = False
    cross_basis_fraction: float = 0.25
    extra_bob_states: bool = False
    extra_state_fraction: float = 0.25
    test_fraction: float = 0.5
    b92_overlap: float = 0.5
    rng_seed: int = 0
    n_max: int = 4

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown protocol variant {self.variant!r}")
        if self.rounds < 1:
            raise ConfigError("rounds must be positive")
        p0, p1, p2 = self.source_stats
        # written so that a NaN fails it
        if not (min(p0, p1, p2) >= 0 and abs(p0 + p1 + p2 - 1.0) <= 1e-12):
            raise ConfigError("pulse-size probabilities must be non-negative "
                              "and sum to 1")
        if not 0.0 <= self.transmission <= 1.0:
            raise ConfigError("transmission must lie in [0, 1]")
        if self.detector_model not in (THRESHOLD, COUNTER):
            raise ConfigError(f"unknown detector model {self.detector_model!r}")
        if self.residual_policy not in (REFLECT, MEASURE_RESEND):
            raise ConfigError(f"unknown residual policy {self.residual_policy!r}")
        if not 0.0 <= self.test_fraction <= 1.0:
            raise ConfigError("test fraction must lie in [0, 1]")
        if not 0.0 <= self.cross_basis_fraction < 1.0:
            raise ConfigError("cross-basis fraction must lie in [0, 1)")
        if not 0.0 <= self.extra_state_fraction < 1.0:
            raise ConfigError("extra-state fraction must lie in [0, 1)")
        if not 0.0 <= self.b92_overlap < 1.0:
            raise ConfigError("signal-state overlap must lie in [0, 1)")
        if self.n_max < 1:
            raise ConfigError("photon cap must be at least 1")
        if self.variant == CLASSICAL_ALICE_LIMITED and self.source_stats[2] > 0:
            raise ConfigError("the loss-only variant has no multi-photon pulses")

    def channel_n_max(self) -> int:
        return 1 if self.variant == CLASSICAL_ALICE_LIMITED else self.n_max


@dataclass
class RunReport:
    """Aggregate metrics, the outcome partition and per-round record codes.

    A round's code is the leaf its walk ended on: round ``i``'s record is
    code ``codes[i]``, and ``code_fields[f][c]`` is the value of record
    field ``f`` (``category`` included) at code ``c``.  ``codes`` is None
    when the run kept no per-round codes (the default).
    """
    variant: str
    rounds: int
    seed: int
    metrics: Dict[str, float]
    categories: Dict[str, int]
    record_fields: Tuple[str, ...]
    codes: Optional[np.ndarray]
    code_fields: Dict[str, np.ndarray]

    @property
    def records(self) -> Dict[str, np.ndarray]:
        """Per-round records, one array per field."""
        codes = self.round_codes()
        return {f: self.code_fields[f][codes] for f in self.record_fields}

    def round_codes(self) -> np.ndarray:
        """``codes``; a ValueError when the run kept none."""
        if self.codes is None:
            raise ValueError("the run kept no per-round codes; run it with "
                             "keep_codes=True for per-round records")
        return self.codes


# ---------------------------------------------------------------------------
# Alice's SIFT branches (a building block of the tables)


SiftBranch = Tuple[Tuple[int, int], float, JointState]


def alice_sift(joint: JointState, detector_model: str = THRESHOLD,
               policy: str = REFLECT) -> List[SiftBranch]:
    """Alice's measure branch: (readout, probability, residual) per outcome.

    Reflecting policy: the probe records only threshold/counter values, so
    the channel occupation (and its coherence within a readout class) is
    sent back exactly as received.  Measure-resend: detection is
    destructive; the occupation collapses and a fresh pulse with one photon
    per clicked detector goes back.
    """
    sifted = joint.apply_sift(detector_model)
    if policy == REFLECT:
        return list(sifted.alice_branches())
    if policy != MEASURE_RESEND:
        raise ConfigError(f"unknown residual policy {policy!r}")
    branches: List[SiftBranch] = []
    for occ, p, probe_vec in sifted.occupation_branches():
        readout = detector_pattern(occ, detector_model)
        resend = (min(occ[0], 1), min(occ[1], 1))
        resid = JointState.from_product(
            probe_vec, make_basis_state(resend, Z, joint.n_max), joint.probe_dim)
        branches.append((readout, p, resid))
    return branches


# ---------------------------------------------------------------------------
# table construction for the two-way protocol


def _level(nodes: Iterable, branches: Callable[..., Iterable[tuple]]) -> tuple:
    """One level of the branch tree: a row per node of ``nodes``.

    ``branches(node)`` yields ``(p, child, *payload)`` per branch.  Returns
    the row offsets, the cumulative probabilities, the children in branch
    order (branch ``i`` is node ``i`` of the next level) and one int8 array
    per payload field.
    """
    off, cum, children, payload = [0], [], [], []
    for node in nodes:
        acc = 0.0
        for p, child, *extra in branches(node):
            acc += p
            cum.append(acc)
            children.append(child)
            payload.append(extra)
        off.append(len(cum))
    return (np.array(off, dtype=np.int64), np.array(cum, dtype=np.float64),
            children, *(np.array(f, dtype=np.int8) for f in zip(*payload)))


def _emissions(config: ProtocolConfig) -> List[Tuple[float, FockState, int]]:
    """(probability, pulse, kind) per emission; kind 0 is an x pulse, 1 and
    2 the extra z states of bit 0 and 1."""
    n_max = config.channel_n_max()
    p0, p1, p2 = config.source_stats
    if p2 > 0 and n_max < 2:
        raise ConfigError("two-photon pulses need a photon cap of at least 2")
    scale = 1.0 - config.extra_state_fraction if config.extra_bob_states else 1.0
    out: List[Tuple[float, FockState, int]] = []
    for size, p in enumerate((p0, p1, p2)):
        if p > 0.0:
            out.append((p * scale, make_basis_state((0, size), X, n_max), 0))
    if config.extra_bob_states:
        half = config.extra_state_fraction / 2.0
        out.append((half, make_basis_state((0, 1), Z, n_max), 1))
        out.append((half, make_basis_state((1, 0), Z, n_max), 2))
    return out


def _loss_branches(state: JointState, survival: float, active: bool
                   ) -> List[Tuple[float, JointState]]:
    if not active or survival >= 1.0:
        return [(1.0, state)]
    return [(p, st) for _lost, p, st in state.channel_loss_branches(survival)]


def build_ca_tables(config: ProtocolConfig, attack: AttackSpec
                    ) -> Tuple[CaTables, Dict[str, float]]:
    """Evaluate the exact per-round branch tree of the two-way protocol,
    and the run's exact values: the probability that both of Alice's modes
    are occupied, and Eve's leakage where ``analysis.eve_leakage`` defines
    it.

    The levels are emission, outbound loss, Alice's SIFT readout, Eve's
    return, return loss and Bob's patterns.  Alice's residual nodes, the
    rows of the return level, are the outbound nodes (reflected on CTRL)
    followed by the SIFT branches; Bob's rows are the measured nodes in z,
    then in x.
    """
    config.validate()
    if isinstance(attack.strategy, (UsdStrategy, PnsStrategy)):
        raise ConfigError(
            f"attack {attack.name!r} targets a one-way protocol and cannot "
            f"run on {config.variant}")
    n_max = config.channel_n_max()
    model = config.detector_model
    lossy = not attack.lossless_channel
    f = config.transmission

    emissions = _emissions(config)
    # one root row whose branches are the emissions themselves
    _off, emission_cum, _pulses, emission_kind = _level([emissions], iter)

    alice_11 = 0.0

    def outbound(emission):
        nonlocal alice_11
        p_emit, pulse, _kind = emission
        base = JointState.from_product(0, pulse, attack.probe_dim)
        for p, lost_state in _loss_branches(base, f, lossy):
            node = attack.apply_outbound(lost_state)
            alice_11 += p_emit * p * sum(
                q for occ, q in node.occupation_distribution(Z).items()
                if occ[0] >= 1 and occ[1] >= 1)
            yield p, node

    oloss_off, oloss_cum, outbound_nodes = _level(emissions, outbound)

    sift_off, sift_cum, sifted, sift_readout = _level(
        outbound_nodes,
        lambda node: ((p, resid, pattern_code(readout)) for readout, p, resid
                      in alice_sift(node, model, config.residual_policy)))

    strategy = attack.strategy if isinstance(attack.strategy,
                                             CountDecodeStrategy) else None

    def returned(resid):
        """(p, returned node, Eve's action guess, Eve's bit) per branch."""
        if strategy is None:
            yield 1.0, attack.apply_return(resid), -1, -1
            return
        for count, p_c, projected in resid.photon_count_branches():
            label, act = strategy.action(count)
            guess = 0 if label == "ctrl" else 1
            if act == "apply_map":
                yield p_c, attack.apply_return(projected), guess, -1
                continue
            for occ, p_z, probe_vec in projected.occupation_branches():
                if occ[0] >= 1 and occ[1] == 0:
                    bit = 1
                elif occ[1] >= 1 and occ[0] == 0:
                    bit = 0
                else:
                    bit = -1
                back = JointState.from_product(
                    probe_vec, make_basis_state(occ, Z, n_max), resid.probe_dim)
                yield p_c * p_z, back, guess, bit

    ret_off, ret_cum, returned_nodes, ret_guess, ret_evebit = _level(
        outbound_nodes + sifted, returned)

    rloss_off, rloss_cum, measured_nodes = _level(
        returned_nodes, lambda node: _loss_branches(node, f, lossy))

    def patterns(row):
        basis, node = row
        dist = node.bob_distribution(basis, model)
        return ((dist[pat], None, pattern_code(pat)) for pat in sorted(dist))

    bob_off, bob_cum, _leaves, bob_pat = _level(
        [(basis, node) for basis in (Z, X) for node in measured_nodes],
        patterns)

    tables = CaTables(
        emission_cum=emission_cum,
        emission_kind=emission_kind,
        oloss_off=oloss_off,
        oloss_cum=oloss_cum,
        sift_off=sift_off,
        sift_cum=sift_cum,
        sift_readout=sift_readout,
        ret_off=ret_off,
        ret_cum=ret_cum,
        ret_guess=ret_guess,
        ret_evebit=ret_evebit,
        rloss_off=rloss_off,
        rloss_cum=rloss_cum,
        bob_off=bob_off,
        bob_cum=bob_cum,
        bob_pat=bob_pat,
        test_fraction=float(config.test_fraction),
        cross_fraction=(float(config.cross_basis_fraction)
                        if config.cross_basis_tests else 0.0),
    )
    meta: Dict[str, float] = {"alice_11_prob_exact": alice_11}
    try:
        leak = analysis.eve_leakage(attack, n_max=n_max)
        if leak.conditional_fidelity is not None:
            meta["eve_fidelity"] = leak.conditional_fidelity
            meta["eve_trace_distance"] = leak.trace_distance
    except AttackDomainError:
        pass
    return tables, meta


# ---------------------------------------------------------------------------
# outcome classification and aggregation


CA_CATEGORIES = (
    "ctrl_clean", "ctrl_error", "cross_ctrl_z", "cross_sift_x",
    "sift_illicit", "test_ok", "test_error", "test_loss",
    "key_ok", "key_mismatch", "key_loss", "key_anomaly",
    "extra_test_ok", "extra_test_error", "extra_discard",
)


def _bits_from_codes(codes: np.ndarray) -> Tuple[np.ndarray, ...]:
    first = np.where(codes >= 0, codes // 3, 0)
    second = np.where(codes >= 0, codes % 3, 0)
    valid = codes >= 0
    double = valid & (first >= 1) & (second >= 1)
    bit = np.full(codes.shape, -1, dtype=np.int8)
    bit[valid & (first == 0) & (second >= 1)] = 0
    bit[valid & (first >= 1) & (second == 0)] = 1
    vacuum = valid & (codes == 0)
    return first, second, double, bit, vacuum


#: an aggregator's (metrics, categories, code fields with ``category``)
Aggregate = Tuple[Dict[str, float], Dict[str, int], Dict[str, np.ndarray]]


def _aggregate(w: np.ndarray, rec: Dict[str, np.ndarray],
               categories: Dict[str, np.ndarray], rows: List[tuple],
               meta: Dict[str, float]) -> Aggregate:
    """Metrics, categories and code fields of the leaves, whose record
    fields are ``rec``, given the rounds ``w`` at each leaf.

    ``categories`` maps each category, in report order, to its leaf mask;
    they are counted from the ``category`` field the round log shows.  A
    row ``(name, mask)`` counts rounds (an int), ``(name, num, den,
    empty)`` is a ratio of two counts (a float), or ``empty`` when ``den``
    counts none (no metric if None), and ``(name, value)`` is a value of
    the run.  The keys of ``meta`` that no row placed come last.
    """
    def count(mask: np.ndarray) -> int:
        return int(w[mask].sum())

    cat = np.full(w.size, -1, dtype=np.int8)
    for i, mask in enumerate(categories.values()):
        cat[mask] = i
    counts = {name: count(cat == i) for i, name in enumerate(categories)}
    metrics: Dict[str, float] = {}
    for name, value, *ratio in rows:
        if isinstance(value, np.ndarray):
            value = count(value)
        if ratio:
            den, empty = count(ratio[0]), ratio[1]
            value = value / den if den else empty
        if value is not None:
            metrics[name] = value
    metrics.update(meta)
    return metrics, counts, {**rec, "category": cat}


def _ca_aggregate(config: ProtocolConfig, tables: CaTables,
                  meta: Dict[str, float], w: np.ndarray,
                  rec: Dict[str, np.ndarray]) -> Aggregate:
    """Two-way categories and metrics as leaf masks over the record
    fields ``rec``, evaluated at the rounds ``w`` per leaf."""
    action = rec["action"]
    basis = rec["basis"]
    pattern = rec["pattern"]
    guess = rec["guess"]
    kind = tables.emission_kind[rec["emit"]]
    emit_bit = kind - 1          # the bit an extra z state announces

    a1, a0, a_double, a_bit, a_vacuum = _bits_from_codes(rec["readout"])
    b1, _b0, b_double, b_bit_raw, _ = _bits_from_codes(pattern)
    b_click = pattern != 0
    b_bit = np.where(basis == 0, b_bit_raw, -1)
    minus_click = (basis == 1) & (b1 >= 1)

    every = np.ones(w.size, dtype=bool)
    ctrl = action == 0
    sift = ~ctrl
    std = kind == 0
    std_ctrl_x = std & ctrl & (basis == 1)
    std_sift = std & sift & (basis == 0)
    live = std_sift & ~a_double
    err = (b_double
           | ((a_bit >= 0) & (b_bit >= 0) & (a_bit != b_bit))
           | (a_vacuum & b_click))
    lost = ~err & (~b_click | a_vacuum)
    test = rec["test"].astype(bool)
    tested = live & test
    key = live & ~test
    good = key & (a_bit >= 0) & (b_bit >= 0)
    extra_sift = ~std & sift & (a_bit >= 0)
    guessed = guess >= 0

    cats = dict(zip(CA_CATEGORIES, (
        std_ctrl_x & ~minus_click, std_ctrl_x & minus_click,
        std & ctrl & (basis == 0), std & sift & (basis == 1),
        std_sift & a_double,
        tested & ~err & ~lost, tested & err, tested & ~err & lost,
        good & (a_bit == b_bit), good & (a_bit != b_bit),
        key & ~good & ~b_double, key & ~good & b_double,
        extra_sift & (a_bit == emit_bit), extra_sift & (a_bit != emit_bit),
        ~std & (ctrl | (a_bit < 0)))))
    rows = [
        ("rounds", every),
        ("ctrl_rounds", std_ctrl_x),
        ("ctrl_errors", cats["ctrl_error"]),
        ("sift_rounds", std_sift),
        ("test_rounds", tested),
        ("test_errors", cats["test_error"]),
        ("alice_double_clicks", cats["sift_illicit"]),
        ("alice_multiphoton_readouts", live & ((a1 == 2) | (a0 == 2))),
        ("double_click_fraction", cats["sift_illicit"], std_sift & ~a_vacuum,
         0.0),
        ("losses", ~b_click),
        ("loss_fraction", ~b_click, every, 0.0),
        ("sifted_bits", good),
        ("sifted_disagreements", cats["key_mismatch"]),
        ("sifted_agreement", cats["key_ok"], good, 1.0),
        ("alice_11_prob_exact", meta["alice_11_prob_exact"]),
        ("eve_guess_success", guessed & (guess == action), guessed, None),
        ("eve_known_fraction", good & (rec["evebit"] == a_bit), good, 0.0),
    ]
    if config.cross_basis_tests:
        rows += [
            ("cross_ctrl_rounds", cats["cross_ctrl_z"]),
            ("cross_ctrl_double", cats["cross_ctrl_z"] & b_double),
            ("cross_sift_rounds", cats["cross_sift_x"]),
            ("cross_sift_double", cats["cross_sift_x"] & b_double),
        ]
    if config.extra_bob_states:
        rows += [
            ("extra_test_rounds",
             cats["extra_test_ok"] | cats["extra_test_error"]),
            ("extra_test_errors", cats["extra_test_error"]),
        ]
    # the leakage goes last; the key already in place keeps its position
    return _aggregate(w, rec, cats, rows, meta)


# ---------------------------------------------------------------------------
# BB84 (one-way) with the photon-splitting adversary


BB84_CATEGORIES = ("no_click", "basis_mismatch", "double_click",
                   "sift_ok", "sift_error")


#: detector pattern rows in the bit-0 convention, row = (m-1)*2 + same,
#: as (pattern code, probability) branches
BB84_MEAS_ROWS = (
    ((1, 0.5), (3, 0.5)),              # one photon, wrong basis
    ((1, 1.0),),                       # one photon, right basis
    ((1, 0.25), (3, 0.25), (4, 0.5)),  # two photons, wrong basis
    ((1, 1.0),),                       # two photons, right basis
)


def build_bb84_tables(config: ProtocolConfig, attack: AttackSpec
                      ) -> Tuple[Bb84Tables, Dict[str, float]]:
    config.validate()
    p0, p1, p2 = config.source_stats
    pns = isinstance(attack.strategy, PnsStrategy)
    if not pns and attack.name != "identity":
        raise ConfigError(f"attack {attack.name!r} has no one-way BB84 form")

    feas = analysis.pns_feasibility(p0, p1, p2, config.transmission,
                                    config.rounds)
    quota = int(round(feas.expected_count))
    meta: Dict[str, float] = {
        "expected_received": feas.expected_count,
        "pns_threshold_ratio": feas.threshold_ratio,
        "pns_feasible": 1.0 if feas.feasible else 0.0,
    }
    if pns:
        meta["pns_quota"] = quota

    # surviving photon count m of each pulse size, binomial in the survival
    s = config.transmission
    loss_off, loss_cum, _leaves, loss_m = _level(range(3), lambda size: (
        (math.comb(size, m) * s ** m * (1.0 - s) ** (size - m), None, m)
        for m in range(size + 1)))
    meas_off, meas_cum, _leaves, meas_pat = _level(
        BB84_MEAS_ROWS, lambda row: ((p, None, pat) for pat, p in row))

    tables = Bb84Tables(
        size_cum=np.array([p0, p0 + p1, 1.0]),
        attack=1 if pns else 0,
        quota=quota,
        loss_off=loss_off,
        loss_cum=loss_cum,
        loss_m=loss_m,
        meas_off=meas_off,
        meas_cum=meas_cum,
        meas_pat=meas_pat,
    )
    return tables, meta


def _bb84_aggregate(config: ProtocolConfig, tables: Bb84Tables,
                    meta: Dict[str, float], w: np.ndarray,
                    rec: Dict[str, np.ndarray]) -> Aggregate:
    """BB84 categories and metrics as leaf masks over the record fields
    ``rec``, evaluated at the rounds ``w`` per leaf."""
    pattern = rec["pattern"]
    bit = rec["bit"]
    _b1, _b0, double, b_bit, _vac = _bits_from_codes(pattern)
    received = pattern != 0
    same = rec["basis"] == rec["bob_basis"]
    sifted = received & same & (b_bit >= 0)

    cats = dict(zip(BB84_CATEGORIES, (
        ~received, received & ~same, received & same & double,
        sifted & (b_bit == bit), sifted & (b_bit != bit))))
    rows = [
        ("rounds", np.ones(w.size, dtype=bool)),
        ("received_pulses", received),
        ("sifted_bits", sifted),
        ("sifted_errors", cats["sift_error"]),
        ("error_rate", cats["sift_error"], sifted, 0.0),
        ("double_clicks", cats["double_click"]),
        ("eve_known_fraction", sifted & (rec["evebit"] == bit), sifted, 0.0),
        *meta.items(),
    ]
    if tables.attack == 1:
        rows.append(("pns_forwarded", rec["forwarded"] == 1))
    metrics, counts, fields = _aggregate(w, rec, cats, rows, meta)
    if tables.attack == 1:
        # the splitter forwards two-photon pulses until the quota is met
        metrics["pns_quota_met"] = (
            1.0 if metrics["pns_forwarded"] >= tables.quota else 0.0)
    return metrics, counts, fields


# ---------------------------------------------------------------------------
# B92 (one-way, two non-orthogonal states)


B92_CATEGORIES = ("loss", "inconclusive", "conclusive_ok", "conclusive_error")


def build_b92_tables(config: ProtocolConfig, attack: AttackSpec
                     ) -> Tuple[B92Tables, Dict[str, float]]:
    config.validate()
    c = config.b92_overlap
    usd = isinstance(attack.strategy, UsdStrategy)
    if not usd and attack.name != "identity":
        raise ConfigError(f"attack {attack.name!r} has no two-state form")
    if usd and abs(attack.strategy.overlap - c) > 1e-12:
        raise ConfigError("attack overlap differs from the configured states")
    lossrate = 1.0 - config.transmission
    attempted = usd and analysis.b92_breakable(lossrate, c)
    tables = B92Tables(conclusive_p=1.0 - c * c,
                       transmission=config.transmission,
                       attack=1 if attempted else 0)
    meta: Dict[str, float] = {
        "attack_attempted": 1.0 if attempted else 0.0,
        "analytic_conclusive": analysis.b92_conclusive_prob(c),
        "breakable_threshold": 0.5 * (1.0 + c * c),
    }
    return tables, meta


def _b92_aggregate(config: ProtocolConfig, tables: B92Tables,
                   meta: Dict[str, float], w: np.ndarray,
                   rec: Dict[str, np.ndarray]) -> Aggregate:
    """Two-state categories and metrics as leaf masks over the record
    fields ``rec``, evaluated at the rounds ``w`` per leaf; the
    conclusive-measurement intercept hides in loss."""
    every = np.ones(w.size, dtype=bool)
    arrived = rec["arrived"].astype(bool)
    conclusive = rec["conclusive"].astype(bool)
    bit = rec["bit"]
    bob_bit = rec["bob_bit"]

    cats = dict(zip(B92_CATEGORIES, (
        ~arrived, arrived & ~conclusive,
        conclusive & (bob_bit == bit), conclusive & (bob_bit != bit))))
    rows = [
        ("rounds", every),
        ("losses", cats["loss"]),
        ("delivered", arrived),
        ("delivered_fraction", arrived, every, 0.0),
        ("conclusive", conclusive),
        ("inconclusive", cats["inconclusive"]),
        ("conclusive_fraction", conclusive, arrived, 0.0),
        ("errors", cats["conclusive_error"]),
        ("error_rate", cats["conclusive_error"], conclusive, 0.0),
        ("eve_known_fraction", conclusive & (rec["evebit"] == bit),
         conclusive, 0.0),
    ]
    return _aggregate(w, rec, cats, rows, meta)


# ---------------------------------------------------------------------------
# the run driver


def run(config: ProtocolConfig, attack: AttackSpec,
        jobs: int = 1, keep_codes: bool = False) -> RunReport:
    """Monte-Carlo run of the configured variant.

    The variant's builder validates the config and evaluates the branch
    tables, its walker samples the rounds, and its aggregator turns the
    histogram of leaves into the report.  The report holds per-round
    codes only if ``keep_codes``.
    """
    # module globals looked up per call, so a rebound name is the one run
    if config.variant == BB84:
        build, walk, aggregate = build_bb84_tables, simulate_bb84, _bb84_aggregate
    elif config.variant == B92:
        build, walk, aggregate = build_b92_tables, simulate_b92, _b92_aggregate
    else:
        build, walk, aggregate = build_ca_tables, simulate_ca, _ca_aggregate
    tables, meta = build(config, attack)
    codes, w, fields = walk(tables, config.rng_seed, config.rounds, jobs=jobs,
                            keep_codes=keep_codes)
    metrics, categories, fields = aggregate(config, tables, meta, w, fields)
    return RunReport(variant=config.variant, rounds=int(w.sum()),
                     seed=config.rng_seed, metrics=metrics,
                     categories=categories, record_fields=tuple(fields),
                     codes=codes, code_fields=fields)
