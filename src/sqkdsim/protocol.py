"""Protocol state machines: two-way classical-Alice rounds, BB84 and B92.

The two-way engine enumerates one round's full branch structure exactly
(emission, per-leg loss, Eve's outbound map, Alice's CTRL/SIFT, Eve's
return behaviour, Bob's detector statistics) into flat categorical tables.
All quantum amplitudes are therefore evaluated once per run; the
Monte-Carlo loop only draws branch indices.  Every table is built level by
level with ``_level``: a row per node, and a branch per node of the next
level, in order, so no table maps branches to nodes.

``run`` is the one driver: each variant has a builder (``build_*_tables``,
which validates the config and returns the tables and the run's exact
values; the attack checked its maps when it was built), a walker
(``simulate_*``) and an aggregator.  The walker lays its tables out as a
chain of stages (``_ca_chain``, ``_bb84_chain``, ``_b92_chain``), path by
path with the ``kernels`` plan walker's ``_split`` and ``_coin``, and
walks it.  It returns the number of rounds at each leaf, each record
field's value per leaf, and one leaf per round when the caller keeps them
(``keep_codes``, for a round log); a leaf may hold rounds never walked
(``simulate_bb84``).  Every category and metric is a count, or a ratio of
counts, of the rounds at a set of leaves, so each aggregator only declares
leaf masks over the record fields: its categories, keyed by name, and its
metric rows.  ``_aggregate`` alone weights them by the histogram.

Slots, the stage of each chain that reads each of a round's
``kernels.SLOTS`` draws (``-``: unused):

=====  ==========================  ======================  ====================
slot   two-way                     BB84                    B92
=====  ==========================  ======================  ====================
0      emission                    Alice's bit             Alice's bit
1      outbound loss               Alice's basis           Eve's basis (attack)
2      CTRL or SIFT                pulse size              Eve's conclusive
                                                           result (attack)
3      Alice's SIFT branch         loss (drawn only        loss (no attack)
                                   without the splitter)
4      Eve's return                Bob's basis             Bob's basis
5      -                           Bob's detector          Bob's conclusive
                                                           result
6      return loss                 -                       -
7      cross-basis test            -                       -
8      Bob's detector              -                       -
9      test round                  -                       -
=====  ==========================  ======================  ====================

Loss is independent per-photon survival applied on each leg in transit
(suppressed entirely when the attack substitutes a lossless channel).
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from . import analysis
from .attacks import (
    CTRL_MIN_COUNT,
    AttackSpec,
    AttackDomainError,
    CountDecodeStrategy,
    PnsStrategy,
    UsdStrategy,
)
from .fock import X, Z, make_basis_state
from .joint import (
    COUNTER,
    JointState,
    THRESHOLD,
    code_pattern,
    detector_pattern,
    pattern_code,
)
from .kernels import (
    BLOCK,
    _chain,
    _coin,
    _split,
    _walk,
    Walk,
    round_uniforms,  # noqa: F401  kept importable here for run tracers
)

CLASSICAL_ALICE_FULL = "classical-alice-full"
BB84 = "bb84"
B92 = "b92"

REFLECT = "reflect-occupation"
MEASURE_RESEND = "measure-resend"

TWO_WAY = (CLASSICAL_ALICE_FULL,)
VARIANTS = (*TWO_WAY, BB84, B92)


class ConfigError(ValueError):
    """A protocol configuration is inconsistent or incomplete."""


def check_runs_on(attack: AttackSpec, variant: str) -> None:
    """Refuse ``attack`` on a variant it has no form for: the splitter runs
    on BB84 only, the intercept on B92 only, an attack with no map and no
    strategy on every variant, and any other on the two-way variant."""
    variants = {PnsStrategy: (BB84,), UsdStrategy: (B92,)}.get(
        type(attack.strategy), TWO_WAY if attack.lossless_channel else VARIANTS)
    if variant not in variants:
        raise ConfigError(f"the {attack.name} attack runs on "
                          f"{' and '.join(variants)} only, not on {variant}")


@dataclass
class ProtocolConfig:
    """Run parameters for any protocol variant; unused fields are ignored.

    A cross-basis or extra-state fraction above 0 turns that test on."""
    variant: str = CLASSICAL_ALICE_FULL
    rounds: int = 10_000
    source_stats: Tuple[float, float, float] = (0.0, 1.0, 0.0)
    transmission: float = 1.0
    detector_model: str = THRESHOLD
    residual_policy: str = REFLECT
    cross_basis_fraction: float = 0.0
    extra_state_fraction: float = 0.0
    test_fraction: float = 0.5
    b92_overlap: float = 0.5
    rng_seed: int = 0
    n_max: int = 4

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown protocol variant {self.variant!r}; "
                              f"choose from {', '.join(VARIANTS)}")
        if self.rounds < 1:
            raise ConfigError("rounds must be positive")
        if not 0 <= self.rng_seed < 2 ** 64:  # Philox's key: one 64-bit word
            raise ConfigError(
                f"seed must lie in [0, 2**64), not {self.rng_seed}")
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
        if (self.variant in (CLASSICAL_ALICE_FULL, BB84) and p2 > 0
                and self.n_max < 2):
            raise ConfigError("two-photon pulses need a photon cap of at least 2")


@dataclass
class RunReport:
    """Aggregate metrics, the outcome partition and per-round record codes.

    A round's code is the leaf its walk ended on: round ``i``'s record is
    code ``codes[i]``, and ``code_fields[f][c]`` is the value of record
    field ``f`` (``category`` included) at code ``c``.  ``codes`` is None
    when the run kept no per-round codes (the default); its report then
    carries no round log.
    """
    variant: str
    rounds: int
    seed: int
    metrics: Dict[str, float]
    categories: Dict[str, int]
    codes: Optional[np.ndarray]
    code_fields: Dict[str, np.ndarray]

    @property
    def record_fields(self) -> Tuple[str, ...]:
        """The record fields, in round-log column order."""
        return tuple(self.code_fields)

    @property
    def records(self) -> Dict[str, np.ndarray]:
        """Per-round records, one array per field."""
        if self.codes is None:
            raise ValueError("the run kept no per-round codes; run it with "
                             "keep_codes=True for per-round records")
        return {f: self.code_fields[f][self.codes] for f in self.record_fields}


# ---------------------------------------------------------------------------
# Alice's SIFT branches (a building block of the tables)


def alice_sift(joint: JointState, detector_model: str = THRESHOLD,
               policy: str = REFLECT
               ) -> List[Tuple[Tuple[int, int], float, JointState]]:
    """Alice's measure branch: (readout, probability, residual) per outcome.

    Reflecting policy: Alice reads only threshold/counter values, so the
    channel occupation (and its coherence within a readout class) is sent
    back exactly as received.  Measure-resend: detection is destructive;
    the occupation collapses and a fresh pulse with one photon per clicked
    detector goes back.
    """
    if policy == REFLECT:
        return joint.sift_branches(detector_model)
    if policy != MEASURE_RESEND:
        raise ConfigError(f"unknown residual policy {policy!r}")
    return [(detector_pattern(occ, detector_model), p,
             JointState.from_product(probe_vec, make_basis_state(
                 (min(occ[0], 1), min(occ[1], 1)), Z, joint.n_max),
                 joint.probe_dim))
            for occ, p, probe_vec in joint.occupation_branches()]


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


def _emissions(config: ProtocolConfig) -> List[Tuple[float, np.ndarray, int]]:
    """(probability, pulse z vector, kind) per emission; kind 0 is an x
    pulse, 1 and 2 the extra z states of bit 0 and 1."""
    n_max = config.n_max
    p0, p1, p2 = config.source_stats
    extra = config.extra_state_fraction
    out = [(p * (1.0 - extra), make_basis_state((0, size), X, n_max), 0)
           for size, p in enumerate((p0, p1, p2)) if p > 0.0]
    if extra > 0.0:
        out += [(extra / 2.0, make_basis_state((0, 1), Z, n_max), 1),
                (extra / 2.0, make_basis_state((1, 0), Z, n_max), 2)]
    return out


def _loss_branches(state: JointState, survival: float, active: bool
                   ) -> List[Tuple[float, JointState]]:
    if not active or survival >= 1.0:
        return [(1.0, state)]
    return [(p, st) for _lost, p, st in state.channel_loss_branches(survival)]


@dataclass
class CaTables:
    """Flattened branch tables for the two-way protocol round walk.

    The levels are emission, outbound loss, Alice's SIFT readout, Eve's
    return, return loss and Bob's patterns.  Each level has a row per node and a branch per node of the next level:
    branch ``i`` of a level is node ``i`` of the next.  The exceptions are
    Alice's residual nodes (the rows of ``ret``): the ``O`` outbound nodes,
    reflected on CTRL, then the SIFT branches, so SIFT branch ``k`` is
    residual node ``O + k``; and Bob's level, one row per basis and
    measured node, z rows first, so measured node ``m`` in basis ``b`` is
    row ``m + M * b``.
    """
    emission_cum: np.ndarray     # (E,)
    emission_kind: np.ndarray    # (E,) 0 = x pulse, 1 = z bit 0, 2 = z bit 1
    oloss_off: np.ndarray        # (E+1,) -> O outbound nodes
    oloss_cum: np.ndarray
    sift_off: np.ndarray         # (O+1,) -> S SIFT branches
    sift_cum: np.ndarray
    sift_readout: np.ndarray     # pattern code of Alice's readout
    ret_off: np.ndarray          # (O+S+1,) -> G returned nodes
    ret_cum: np.ndarray
    ret_guess: np.ndarray        # Eve's action guess (-1 none, 0 ctrl, 1 sift)
    ret_evebit: np.ndarray       # bit Eve measured on the way back (-1 none)
    rloss_off: np.ndarray        # (G+1,) -> M measured nodes
    rloss_cum: np.ndarray
    bob_off: np.ndarray          # (2M+1,)
    bob_cum: np.ndarray
    bob_pat: np.ndarray
    test_fraction: float
    cross_fraction: float        # 0.0: no cross-basis tests


def build_ca_tables(config: ProtocolConfig, attack: AttackSpec
                    ) -> Tuple[CaTables, Dict[str, float]]:
    """Evaluate the exact per-round branch tree of the two-way protocol,
    and the run's exact values: the probability that both of Alice's modes
    are occupied, and Eve's leakage where ``analysis.eve_leakage`` defines
    it.  The levels and their numbering are those of ``CaTables``.
    """
    config.validate()
    check_runs_on(attack, config.variant)
    n_max = config.n_max
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

    def returned(resid):
        """(p, returned node, Eve's action guess, Eve's bit) per branch."""
        if not isinstance(attack.strategy, CountDecodeStrategy):
            yield 1.0, attack.apply_return(resid), -1, -1
            return
        for count, p_c, projected in resid.photon_count_branches():
            if count >= CTRL_MIN_COUNT:
                yield p_c, attack.apply_return(projected), 0, -1
                continue
            for occ, p_z, probe_vec in projected.occupation_branches():
                bit = {(0, 1): 0, (1, 0): 1}.get(
                    detector_pattern(occ, THRESHOLD), -1)
                back = JointState.from_product(
                    probe_vec, make_basis_state(occ, Z, n_max), resid.probe_dim)
                yield p_c * p_z, back, 1, bit

    try:
        ret_off, ret_cum, returned_nodes, ret_guess, ret_evebit = _level(
            outbound_nodes + sifted, returned)
    except AttackDomainError as exc:
        raise AttackDomainError(
            f"the {attack.name} attack cannot run with {model} detectors and "
            f"the {config.residual_policy} policy: {exc}") from exc

    rloss_off, rloss_cum, measured_nodes = _level(
        returned_nodes, lambda node: _loss_branches(node, f, lossy))

    def patterns(row):
        basis, node = row
        dist = node.bob_distribution(basis, model)
        return ((dist[pat], None, pattern_code(pat)) for pat in sorted(dist))

    bob_off, bob_cum, _ends, bob_pat = _level(
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
        cross_fraction=float(config.cross_basis_fraction),
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


def _ca_chain(tab: CaTables):
    """The two-way walk's draws and record fields per leaf: the
    emission, outbound loss, Alice's fair coin (CTRL on a hit) and SIFT
    readout, Eve's return, return loss, the cross-basis coin, Bob's pattern
    and the test coin.  A CTRL path takes one certain branch appended to
    the SIFT table and keeps its outbound node as its residual node.  An x
    pulse is measured in the basis of Alice's action, swapped on a
    cross-basis hit; the extra z states always in z.  Only a SIFT round of
    an x pulse measured in z is a test round."""
    emissions, outbound = tab.emission_cum.size, tab.oloss_cum.size
    measured, sifts = tab.rloss_cum.size, tab.sift_cum.size
    f: Dict[str, np.ndarray] = {}
    steps = [(0, _split(f, np.array([0, emissions]), tab.emission_cum, 0,
                        emit=np.arange(emissions), kind=tab.emission_kind))]
    steps.append((1, _split(f, tab.oloss_off, tab.oloss_cum, f["emit"],
                            node=np.arange(outbound))))
    steps.append((2, _split(f, *_coin(0.5), 0, action=[0, 1, 0])))
    steps.append((3, _split(
        f, np.append(tab.sift_off, sifts + 1), np.append(tab.sift_cum, 1.0),
        np.where(f["action"] == 1, f["node"], outbound),
        resid=outbound + np.arange(sifts + 1),
        readout=np.append(tab.sift_readout, -1))))
    f["resid"] = np.where(f["action"] == 1, f["resid"], f["node"])
    steps.append((4, _split(f, tab.ret_off, tab.ret_cum, f["resid"],
                            returned=np.arange(tab.ret_cum.size),
                            guess=tab.ret_guess, evebit=tab.ret_evebit)))
    steps.append((6, _split(f, tab.rloss_off, tab.rloss_cum, f["returned"],
                            measured=np.arange(measured))))
    # at fraction 0 no path lays out the hit, which Bob's stage would gather
    steps.append((7, _split(f, *_coin(tab.cross_fraction),
                            int(tab.cross_fraction == 0), cross=[1, 0, 0])))
    f["basis"] = (f["action"] ^ f["cross"] ^ 1) & (f["kind"] == 0)
    steps.append((8, _split(f, tab.bob_off, tab.bob_cum,
                            f["measured"] + measured * f["basis"],
                            pattern=tab.bob_pat)))
    steps.append((9, _split(f, *_coin(tab.test_fraction), 0, test=[1, 0, 0])))
    # readout is -1 on CTRL rounds
    return _chain(
        steps, emit=f["emit"], action=f["action"], readout=f["readout"],
        basis=f["basis"], pattern=f["pattern"],
        test=f["test"] & f["action"] & (f["basis"] == 0) & (f["kind"] == 0),
        guess=f["guess"], evebit=f["evebit"])


def simulate_ca(tab: CaTables, seed: int, rounds: int, jobs: int = 1,
                keep_codes: bool = False) -> Walk:
    """Leaves of ``rounds`` two-way rounds, or None unless ``keep_codes``,
    their histogram and the record fields per leaf."""
    return _walk(*_ca_chain(tab), seed, rounds, jobs, keep_codes)


# ---------------------------------------------------------------------------
# outcome classification and aggregation


CA_CATEGORIES = (
    "ctrl_clean", "ctrl_error", "cross_ctrl_z", "cross_sift_x",
    "sift_illicit", "test_ok", "test_error", "test_loss",
    "key_ok", "key_mismatch", "key_loss", "key_anomaly",
    "extra_test_ok", "extra_test_error", "extra_discard",
)


def _bits_from_codes(codes: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Per-mode readouts, double click, bit (-1 none) and vacuum per code."""
    first, second = code_pattern(np.where(codes >= 0, codes, 0))
    bit = np.full(codes.shape, -1, dtype=np.int8)
    bit[(first == 0) & (second >= 1)] = 0
    bit[(first >= 1) & (second == 0)] = 1
    return first, second, (first >= 1) & (second >= 1), bit, codes == 0


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


def _ca_aggregate(tables: CaTables, meta: Dict[str, float], w: np.ndarray,
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
    if tables.cross_fraction > 0.0:
        rows += [
            ("cross_ctrl_rounds", cats["cross_ctrl_z"]),
            ("cross_ctrl_double", cats["cross_ctrl_z"] & b_double),
            ("cross_sift_rounds", cats["cross_sift_x"]),
            ("cross_sift_double", cats["cross_sift_x"] & b_double),
        ]
    if tables.emission_kind.any():
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


@dataclass
class Bb84Tables:
    """BB84's branch tables: the pulse size, the photons ``m`` that reach
    Bob per pulse size, and Bob's patterns per node ``(m, bit, basis,
    bob_basis)`` of the pulse as Eve's outbound map leaves it."""
    size_cum: np.ndarray         # (3,) cumulative pulse-size probabilities
    quota: Optional[int]         # two-photon pulses the splitter forwards,
                                 # None without the splitter
    loss_off: np.ndarray         # (3+1,), row per pulse size
    loss_cum: np.ndarray
    loss_m: np.ndarray           # photons that reach Bob per branch
    meas_off: np.ndarray         # (16+1,), row per (m, bit, basis, bob_basis)
    meas_cum: np.ndarray
    meas_pat: np.ndarray         # pattern codes


def build_bb84_tables(config: ProtocolConfig, attack: AttackSpec
                      ) -> Tuple[Bb84Tables, Dict[str, float]]:
    """BB84's tables and exact values.  Without the splitter a pulse loses
    photons binomially; with it, its rule (forward a two-photon pulse over
    its lossless line, block the rest) is one certain branch per size."""
    config.validate()
    check_runs_on(attack, config.variant)
    p0, p1, p2 = config.source_stats
    pns = isinstance(attack.strategy, PnsStrategy)

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

    # the photons m that reach Bob: binomial loss, or the splitter's rule
    s = config.transmission
    loss_off, loss_cum, _ends, loss_m = _level(range(3), lambda size: (
        [(1.0, None, size if size == 2 else 0)] if pns else
        ((math.comb(size, m) * s ** m * (1.0 - s) ** (size - m), None, m)
         for m in range(size + 1))))

    # a row per (m, bit, basis, bob_basis): one pulse read in both bases
    rows = []
    for m, bit, basis in itertools.product((1, 2), (0, 1), (0, 1)):
        pulse = attack.apply_outbound(JointState.from_product(
            0, make_basis_state((0, m) if bit == 0 else (m, 0),
                                (Z, X)[basis], 2), attack.probe_dim))
        rows += [(bit, pulse.bob_distribution(bob_basis, config.detector_model))
                 for bob_basis in (Z, X)]

    def patterns(row):
        """Bob's row over its own total; bit 1 mirrors bit 0's order."""
        bit, dist = row
        total = sum(dist.values())
        return ((dist[pat] / total, None, pattern_code(pat)) for pat
                in sorted(dist, key=lambda pat: pat[::-1] if bit else pat))

    meas_off, meas_cum, _ends, meas_pat = _level(rows, patterns)

    tables = Bb84Tables(
        size_cum=np.array([p0, p0 + p1, 1.0]),
        quota=quota if pns else None,
        loss_off=loss_off,
        loss_cum=loss_cum,
        loss_m=loss_m,
        meas_off=meas_off,
        meas_cum=meas_cum,
        meas_pat=meas_pat,
    )
    return tables, meta


def _bb84_chain(tab: Bb84Tables):
    """The BB84 walk's draws and record fields per leaf: the pulse size,
    the fair coins, the photons that reach Bob and his pattern (no click
    when none does).  Under the splitting attack the loss rows are certain,
    so slot 3 draws nothing, and a pulse that reaches Bob was forwarded by
    the splitter, which learns the bit."""
    f: Dict[str, np.ndarray] = {}
    steps = [(2, _split(f, np.array([0, 3]), tab.size_cum, 0,
                        size=np.arange(3)))]
    for slot, field in ((0, "bit"), (1, "basis"), (4, "bob_basis")):
        steps.append((slot, _split(f, *_coin(0.5), 0, **{field: [0, 1, 0]})))
    steps.append((3, _split(f, tab.loss_off, tab.loss_cum, f["size"],
                            m=tab.loss_m)))
    f["forwarded"] = ((f["m"] > 0) & (tab.quota is not None)).astype(np.int8)
    rows = (f["m"] - 1) * 8 + f["bit"] * 4 + f["basis"] * 2 + f["bob_basis"]
    steps.append((5, _split(
        f, np.append(tab.meas_off, tab.meas_off[-1] + 1),
        np.append(tab.meas_cum, 1.0),
        np.where(f["m"] > 0, rows, tab.meas_off.size - 1),
        pattern=np.append(tab.meas_pat, 0))))
    return _chain(
        steps, bit=f["bit"], basis=f["basis"], pulse_size=f["size"],
        forwarded=f["forwarded"], bob_basis=f["bob_basis"],
        pattern=f["pattern"],
        evebit=np.where(f["forwarded"] == 1, f["bit"], -1))


def simulate_bb84(tab: Bb84Tables, seed: int, rounds: int, jobs: int = 1,
                  keep_codes: bool = False) -> Walk:
    """Leaves of ``rounds`` BB84 rounds, or None unless ``keep_codes``,
    their histogram and the record fields per leaf.  The splitter forwards
    the first ``quota`` two-photon pulses and blocks later ones: each
    forwarded leaf has a twin appended, with nothing forwarded, no click
    and no bit for Eve, and after the twins one tail leaf, blocked too and
    -1 in the fields not drawn.  Spans of ``jobs`` blocks are walked in
    round order, each forwarded round past the quota going to its twin: a
    span within the quota adds the walk's histogram as it is, and only a
    span that reaches past it is folded round by round.  As no blocked
    pulse clicks, a run that keeps no codes stops after the span that meets
    the quota and counts the later rounds at the tail leaf."""
    plan, fields = _bb84_chain(tab)
    if tab.quota is None:
        return _walk(plan, fields, seed, rounds, jobs, keep_codes)
    forwarded = fields["forwarded"] == 1
    twins = np.flatnonzero(forwarded)
    blocked = np.arange(forwarded.size, dtype=np.min_scalar_type(
        forwarded.size + twins.size))  # as _walk's codes: a byte a round
    blocked[twins] = forwarded.size + np.arange(twins.size)
    fields = {name: np.append(values, [*values[twins], -1]).astype(
        values.dtype) for name, values in fields.items()}
    for name, value in (("forwarded", 0), ("pattern", 0), ("evebit", -1)):
        fields[name][forwarded.size:] = value
    w = np.zeros(forwarded.size + twins.size + 1, dtype=np.int64)
    codes = np.empty(rounds, dtype=blocked.dtype) if keep_codes else None
    lo = taken = 0
    while lo < rounds and (keep_codes or taken < tab.quota):
        hi = min(rounds, lo + jobs * BLOCK)
        leaf, counts, _ = _walk(plan, fields, seed, hi, jobs, True, lo)
        span = int(counts[:forwarded.size] @ forwarded)
        if taken + span > tab.quota:
            order = taken + np.cumsum(forwarded.take(leaf))
            leaf = np.where(order > tab.quota, blocked.take(leaf), leaf)
            counts = np.bincount(leaf, minlength=w.size)
        w += counts
        taken += span
        if keep_codes:
            codes[lo:hi] = leaf
        lo = hi
    w[-1] = rounds - lo
    return codes, w, fields


def _bb84_aggregate(tables: Bb84Tables, meta: Dict[str, float],
                    w: np.ndarray, rec: Dict[str, np.ndarray]) -> Aggregate:
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
    if tables.quota is not None:
        # the splitter forwards two-photon pulses until the quota is met
        forwarded = rec["forwarded"] == 1
        met = int(w[forwarded].sum()) >= tables.quota
        rows += [("pns_forwarded", forwarded),
                 ("pns_quota_met", 1.0 if met else 0.0)]
    return _aggregate(w, rec, cats, rows, meta)


# ---------------------------------------------------------------------------
# B92 (one-way, two non-orthogonal states)


B92_CATEGORIES = ("loss", "inconclusive", "conclusive_ok", "conclusive_error")


@dataclass
class B92Tables:
    conclusive_p: float          # 1 - overlap^2
    transmission: float
    attack: int                  # 1 when the conclusive intercept is active


def build_b92_tables(config: ProtocolConfig, attack: AttackSpec
                     ) -> Tuple[B92Tables, Dict[str, float]]:
    config.validate()
    check_runs_on(attack, config.variant)
    c = config.b92_overlap
    usd = isinstance(attack.strategy, UsdStrategy)
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


def _b92_chain(tab: B92Tables):
    """The B92 walk's draws and record fields per leaf: Alice's bit;
    under the intercept Eve's basis and, off the bit's, her conclusive
    result, which alone lets the pulse on, or else the transmission; then,
    for a pulse that arrives, Bob's basis and, off the bit's, his result."""
    f: Dict[str, np.ndarray] = {}
    conclusive = _coin(tab.conclusive_p)
    steps = [(0, _split(f, *_coin(0.5), 0, bit=[0, 1, 0]))]
    if tab.attack == 1:
        steps.append((1, _split(f, *_coin(0.5), 0, ebasis=[0, 1, 0])))
        steps.append((2, _split(f, *conclusive, f["ebasis"] == f["bit"],
                                arrived=[1, 0, 0])))
    else:
        steps.append((3, _split(f, *_coin(tab.transmission), 0,
                                arrived=[1, 0, 0])))
    steps.append((4, _split(f, *_coin(0.5), f["arrived"] == 0,
                            bob_basis=[0, 1, -1])))
    steps.append((5, _split(f, *conclusive, (f["arrived"] == 0)
                            | (f["bob_basis"] == f["bit"]),
                            conclusive=[1, 0, 0])))
    return _chain(
        steps, bit=f["bit"], arrived=f["arrived"], bob_basis=f["bob_basis"],
        conclusive=f["conclusive"],
        bob_bit=np.where(f["conclusive"] == 1, 1 - f["bob_basis"], -1),
        evebit=np.where(f["arrived"] * tab.attack == 1, f["bit"], -1))


def simulate_b92(tab: B92Tables, seed: int, rounds: int, jobs: int = 1,
                 keep_codes: bool = False) -> Walk:
    """Leaves of ``rounds`` B92 rounds, or None unless ``keep_codes``,
    their histogram and the record fields per leaf."""
    return _walk(*_b92_chain(tab), seed, rounds, jobs, keep_codes)


def _b92_aggregate(tables: B92Tables, meta: Dict[str, float],
                   w: np.ndarray, rec: Dict[str, np.ndarray]) -> Aggregate:
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


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run(config: ProtocolConfig, attack: AttackSpec,
        jobs: int = 1, keep_codes: bool = False) -> RunReport:
    """Monte-Carlo run of the configured variant.

    The variant's builder validates the config and evaluates the branch
    tables, its walker samples the rounds, and its aggregator turns the
    histogram of leaves into the report.  The report holds per-round
    codes only if ``keep_codes``.  The walk takes at most ``jobs`` threads,
    and no more than the CPUs the process may run on: more would only add
    memory.
    """
    # module globals looked up per call, so a rebound name is the one run
    if config.variant == BB84:
        build, walk, aggregate = build_bb84_tables, simulate_bb84, _bb84_aggregate
    elif config.variant == B92:
        build, walk, aggregate = build_b92_tables, simulate_b92, _b92_aggregate
    else:
        build, walk, aggregate = build_ca_tables, simulate_ca, _ca_aggregate
    tables, meta = build(config, attack)
    codes, w, fields = walk(tables, config.rng_seed, config.rounds,
                            jobs=min(jobs, _cpus()), keep_codes=keep_codes)
    metrics, categories, fields = aggregate(tables, meta, w, fields)
    return RunReport(variant=config.variant, rounds=int(w.sum()),
                     seed=config.rng_seed, metrics=metrics,
                     categories=categories, codes=codes, code_fields=fields)
