"""Protocol state machines: two-way classical-Alice rounds, BB84 and B92.

The two-way engine enumerates one round's full branch structure exactly
(emission, per-leg loss, Eve's outbound map, Alice's CTRL/SIFT, Eve's
return behaviour, Bob's detector statistics) into flat categorical tables,
then hands the per-round sampling walk to the round engine in
``kernels``.  All quantum amplitudes are therefore evaluated once per run;
the Monte-Carlo loop only draws branch indices.

The engine returns the number of rounds at each record code, and one
record code per round when the caller keeps them (``keep_codes``, for a
round log).  Every metric and category is a function of the record alone,
so each protocol computes them once per code over its decoded code space,
weighted by those counts, with the same expressions a per-round pass
would use.

Loss is independent per-photon survival applied on each leg in transit
(suppressed entirely when the attack substitutes a lossless channel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
    B92_SPACE,
    BB84_SPACE,
    B92Tables,
    Bb84Tables,
    CaTables,
    ca_space,
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
        if min(p0, p1, p2) < 0 or abs(p0 + p1 + p2 - 1.0) > 1e-12:
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

    Round ``i``'s record is code ``codes[i]``; ``code_fields[f][c]`` is the
    value of record field ``f`` (``category`` included) at code ``c``.
    ``codes`` is None when the run kept no per-round codes (the default).
    """
    variant: str
    rounds: int
    seed: int
    metrics: Dict[str, float]
    categories: Dict[str, int]
    record_fields: Tuple[str, ...]
    codes: Optional[np.ndarray]
    code_fields: Dict[str, np.ndarray]

    def metric(self, name: str) -> float:
        return self.metrics[name]

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


@dataclass
class CaMeta:
    emission_kind: np.ndarray    # per emission: 0 x pulse, 1 z bit0, 2 z bit1
    emission_bit: np.ndarray     # announced bit for extra emissions, else -1
    alice_11_prob: float
    has_strategy: bool


def _cum(probs: Sequence[float]) -> np.ndarray:
    return np.cumsum(np.asarray(probs, dtype=np.float64))


def _emissions(config: ProtocolConfig) -> List[Tuple[float, FockState, int]]:
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
                    ) -> Tuple[CaTables, CaMeta]:
    """Evaluate the exact per-round branch tree of the two-way protocol."""
    config.validate()
    attack.validate()
    if isinstance(attack.strategy, (UsdStrategy, PnsStrategy)):
        raise ConfigError(
            f"attack {attack.name!r} targets a one-way protocol and cannot "
            f"run on {config.variant}")
    n_max = config.channel_n_max()
    model = config.detector_model
    lossy = not attack.lossless_channel
    f = config.transmission

    emissions = _emissions(config)
    emission_cum = _cum([p for p, _s, _k in emissions])
    emission_kind = np.array([k for _p, _s, k in emissions], dtype=np.int8)
    emission_bit = np.array([k - 1 if k >= 1 else -1 for _p, _s, k in emissions],
                            dtype=np.int8)

    outbound_nodes: List[JointState] = []
    oloss_off = [0]
    oloss_cum: List[float] = []
    oloss_node: List[int] = []
    alice_11 = 0.0
    for p_emit, state, _kind in emissions:
        base = JointState.from_product(0, state, attack.probe_dim)
        acc = 0.0
        for p, lost_state in _loss_branches(base, f, lossy):
            acc += p
            node = attack.apply_outbound(lost_state)
            oloss_cum.append(acc)
            oloss_node.append(len(outbound_nodes))
            alice_11 += p_emit * p * sum(
                q for occ, q in node.occupation_distribution(Z).items()
                if occ[0] >= 1 and occ[1] >= 1)
            outbound_nodes.append(node)
        oloss_off.append(len(oloss_cum))

    resid_nodes: List[JointState] = []
    sift_off = [0]
    sift_cum: List[float] = []
    sift_readout: List[int] = []
    sift_next: List[int] = []
    ctrl_next: List[int] = []
    for node in outbound_nodes:
        acc = 0.0
        for readout, p, resid in alice_sift(node, model, config.residual_policy):
            acc += p
            sift_cum.append(acc)
            sift_readout.append(pattern_code(readout))
            sift_next.append(len(resid_nodes))
            resid_nodes.append(resid)
        sift_off.append(len(sift_cum))
        ctrl_next.append(len(resid_nodes))
        resid_nodes.append(node)

    strategy = attack.strategy if isinstance(attack.strategy,
                                             CountDecodeStrategy) else None
    returned_nodes: List[JointState] = []
    ret_off = [0]
    ret_cum: List[float] = []
    ret_next: List[int] = []
    ret_guess: List[int] = []
    ret_evebit: List[int] = []

    def _push_return(p_acc: float, state: JointState, guess: int, bit: int) -> None:
        ret_cum.append(p_acc)
        ret_next.append(len(returned_nodes))
        ret_guess.append(guess)
        ret_evebit.append(bit)
        returned_nodes.append(state)

    for resid in resid_nodes:
        acc = 0.0
        if strategy is None:
            _push_return(1.0, attack.apply_return(resid), -1, -1)
        else:
            for count, p_c, projected in resid.photon_count_branches():
                label, act = strategy.action(count)
                guess = 0 if label == "ctrl" else 1
                if act == "apply_map":
                    acc += p_c
                    _push_return(acc, attack.apply_return(projected), guess, -1)
                else:
                    for occ, p_z, probe_vec in projected.occupation_branches():
                        acc += p_c * p_z
                        if occ[0] >= 1 and occ[1] == 0:
                            bit = 1
                        elif occ[1] >= 1 and occ[0] == 0:
                            bit = 0
                        else:
                            bit = -1
                        back = JointState.from_product(
                            probe_vec, make_basis_state(occ, Z, n_max),
                            resid.probe_dim)
                        _push_return(acc, back, guess, bit)
        ret_off.append(len(ret_cum))

    measured_nodes: List[JointState] = []
    rloss_off = [0]
    rloss_cum: List[float] = []
    rloss_node: List[int] = []
    for node in returned_nodes:
        acc = 0.0
        for p, lost_state in _loss_branches(node, f, lossy):
            acc += p
            rloss_cum.append(acc)
            rloss_node.append(len(measured_nodes))
            measured_nodes.append(lost_state)
        rloss_off.append(len(rloss_cum))

    bobz_off = [0]
    bobz_cum: List[float] = []
    bobz_pat: List[int] = []
    bobx_off = [0]
    bobx_cum: List[float] = []
    bobx_pat: List[int] = []
    for node in measured_nodes:
        for basis, off, cum, pats in ((Z, bobz_off, bobz_cum, bobz_pat),
                                      (X, bobx_off, bobx_cum, bobx_pat)):
            dist = node.bob_distribution(basis, model)
            acc = 0.0
            for pat in sorted(dist):
                acc += dist[pat]
                cum.append(acc)
                pats.append(pattern_code(pat))
            off.append(len(cum))

    tables = CaTables(
        emission_cum=emission_cum,
        emission_kind=emission_kind,
        oloss_off=np.array(oloss_off, dtype=np.int64),
        oloss_cum=np.array(oloss_cum, dtype=np.float64),
        oloss_node=np.array(oloss_node, dtype=np.int64),
        sift_off=np.array(sift_off, dtype=np.int64),
        sift_cum=np.array(sift_cum, dtype=np.float64),
        sift_readout=np.array(sift_readout, dtype=np.int8),
        sift_next=np.array(sift_next, dtype=np.int64),
        ctrl_next=np.array(ctrl_next, dtype=np.int64),
        ret_off=np.array(ret_off, dtype=np.int64),
        ret_cum=np.array(ret_cum, dtype=np.float64),
        ret_next=np.array(ret_next, dtype=np.int64),
        ret_guess=np.array(ret_guess, dtype=np.int8),
        ret_evebit=np.array(ret_evebit, dtype=np.int8),
        rloss_off=np.array(rloss_off, dtype=np.int64),
        rloss_cum=np.array(rloss_cum, dtype=np.float64),
        rloss_node=np.array(rloss_node, dtype=np.int64),
        bobz_off=np.array(bobz_off, dtype=np.int64),
        bobz_cum=np.array(bobz_cum, dtype=np.float64),
        bobz_pat=np.array(bobz_pat, dtype=np.int8),
        bobx_off=np.array(bobx_off, dtype=np.int64),
        bobx_cum=np.array(bobx_cum, dtype=np.float64),
        bobx_pat=np.array(bobx_pat, dtype=np.int8),
        test_fraction=float(config.test_fraction),
        cross_fraction=float(config.cross_basis_fraction),
        cross_enabled=1 if config.cross_basis_tests else 0,
    )
    meta = CaMeta(emission_kind=emission_kind, emission_bit=emission_bit,
                  alice_11_prob=alice_11, has_strategy=strategy is not None)
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


def _count(w: np.ndarray, mask: np.ndarray) -> int:
    """Rounds at the codes in ``mask``, given the rounds ``w`` at each code."""
    return int(w[mask].sum())


def _ca_report(config: ProtocolConfig, attack: AttackSpec, meta: CaMeta,
               codes: Optional[np.ndarray], w: np.ndarray, seed: int
               ) -> RunReport:
    """Metrics and categories over the code space, weighted by ``w``."""
    rec = ca_space(meta.emission_kind.size).decode()
    n = int(w.sum())
    action = rec["action"]
    readout = rec["readout"]
    basis = rec["basis"]
    pattern = rec["pattern"]
    test = rec["test"].astype(bool)
    guess = rec["guess"]
    evebit = rec["evebit"]
    kind = meta.emission_kind[rec["emit"]]
    emit_bit = meta.emission_bit[rec["emit"]]

    a1, a0, a_double, a_bit, a_vacuum = _bits_from_codes(readout)
    b1, _b0, b_double, b_bit_raw, _ = _bits_from_codes(pattern)
    b_click = pattern != 0
    b_bit = np.where(basis == 0, b_bit_raw, -1)
    minus_click = (basis == 1) & (b1 >= 1)

    ctrl = action == 0
    sift = ~ctrl
    std = kind == 0

    cat = np.full(w.size, -1, dtype=np.int8)
    cat[std & ctrl & (basis == 1) & ~minus_click] = 0
    cat[std & ctrl & (basis == 1) & minus_click] = 1
    cat[std & ctrl & (basis == 0)] = 2
    cat[std & sift & (basis == 1)] = 3
    std_sift = std & sift & (basis == 0)
    cat[std_sift & a_double] = 4
    live = std_sift & ~a_double
    err = (b_double
           | ((a_bit >= 0) & (b_bit >= 0) & (a_bit != b_bit))
           | (a_vacuum & b_click))
    lost = ~err & (~b_click | a_vacuum)
    cat[live & test & err] = 6
    cat[live & test & ~err & lost] = 7
    cat[live & test & ~err & ~lost] = 5
    key = live & ~test
    good = key & (a_bit >= 0) & (b_bit >= 0)
    cat[good & (a_bit == b_bit)] = 8
    cat[good & (a_bit != b_bit)] = 9
    cat[key & ~good & b_double] = 11
    cat[key & ~good & ~b_double] = 10
    extra = ~std
    cat[extra & ctrl] = 14
    cat[extra & sift & (a_bit >= 0) & (a_bit == emit_bit)] = 12
    cat[extra & sift & (a_bit >= 0) & (a_bit != emit_bit)] = 13
    cat[extra & sift & (a_bit < 0)] = 14

    counts = {name: _count(w, cat == i)
              for i, name in enumerate(CA_CATEGORIES)}

    nonempty_sift = _count(w, std_sift & ~a_vacuum)
    double_clicks = counts["sift_illicit"]
    key_bits = counts["key_ok"] + counts["key_mismatch"]
    losses = _count(w, ~b_click)
    multiphoton = _count(w, std_sift & ((a1 == 2) | (a0 == 2)) & ~a_double)

    metrics: Dict[str, float] = {
        "rounds": n,
        "ctrl_rounds": counts["ctrl_clean"] + counts["ctrl_error"],
        "ctrl_errors": counts["ctrl_error"],
        "sift_rounds": _count(w, std_sift),
        "test_rounds": counts["test_ok"] + counts["test_error"] + counts["test_loss"],
        "test_errors": counts["test_error"],
        "alice_double_clicks": double_clicks,
        "alice_multiphoton_readouts": multiphoton,
        "double_click_fraction": (double_clicks / nonempty_sift
                                  if nonempty_sift else 0.0),
        "losses": losses,
        "loss_fraction": losses / n,
        "sifted_bits": key_bits,
        "sifted_disagreements": counts["key_mismatch"],
        "sifted_agreement": (counts["key_ok"] / key_bits if key_bits else 1.0),
        "alice_11_prob_exact": meta.alice_11_prob,
    }

    guessed = _count(w, guess >= 0)
    if guessed:
        metrics["eve_guess_success"] = float(
            _count(w, (guess >= 0) & (guess == action)) / guessed)
    key_mask = (cat == 8) | (cat == 9)
    metrics["eve_known_fraction"] = (
        float(_count(w, key_mask & (evebit == a_bit)) / key_bits)
        if key_bits else 0.0)

    if config.cross_basis_tests:
        metrics["cross_ctrl_rounds"] = counts["cross_ctrl_z"]
        metrics["cross_ctrl_double"] = _count(w, (cat == 2) & b_double)
        metrics["cross_sift_rounds"] = counts["cross_sift_x"]
        metrics["cross_sift_double"] = _count(w, (cat == 3) & b_double)
    if config.extra_bob_states:
        metrics["extra_test_rounds"] = (counts["extra_test_ok"]
                                        + counts["extra_test_error"])
        metrics["extra_test_errors"] = counts["extra_test_error"]

    try:
        leak = analysis.eve_leakage(attack, n_max=config.channel_n_max())
        if leak.conditional_fidelity is not None:
            metrics["eve_fidelity"] = leak.conditional_fidelity
            metrics["eve_trace_distance"] = leak.trace_distance
    except AttackDomainError:
        pass

    rec["category"] = cat
    return RunReport(variant=config.variant, rounds=n, seed=seed,
                     metrics=metrics, categories=counts,
                     record_fields=tuple(rec), codes=codes, code_fields=rec)


def run_protocol(config: ProtocolConfig, attack: AttackSpec,
                 jobs: int = 1, keep_codes: bool = False) -> RunReport:
    """Monte-Carlo run of the two-way classical-Alice protocol."""
    config.validate()
    if config.variant not in (CLASSICAL_ALICE_FULL, CLASSICAL_ALICE_LIMITED):
        raise ConfigError(f"run_protocol handles the two-way variants, "
                          f"not {config.variant!r}")
    tables, meta = build_ca_tables(config, attack)
    codes, w = simulate_ca(tables, config.rng_seed, config.rounds, jobs=jobs,
                          keep_codes=keep_codes)
    return _ca_report(config, attack, meta, codes, w, config.rng_seed)


# ---------------------------------------------------------------------------
# BB84 (one-way) with the photon-splitting adversary


BB84_CATEGORIES = ("no_click", "basis_mismatch", "double_click",
                   "sift_ok", "sift_error")


def _binomial_cum(size: int, survival: float) -> Tuple[List[float], List[int]]:
    cum, ms, acc = [], [], 0.0
    for m in range(size + 1):
        acc += (math.comb(size, m) * survival ** m
                * (1.0 - survival) ** (size - m))
        cum.append(acc)
        ms.append(m)
    return cum, ms


def build_bb84_tables(config: ProtocolConfig, attack: AttackSpec
                      ) -> Tuple[Bb84Tables, Dict[str, float]]:
    config.validate()
    attack.validate()
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

    loss_off, loss_cum, loss_m = [0], [], []
    for size in range(3):
        cum, ms = _binomial_cum(size, config.transmission)
        loss_cum.extend(cum)
        loss_m.extend(ms)
        loss_off.append(len(loss_cum))

    # detector pattern rows in the bit-0 convention, row = (m-1)*2 + same
    meas_rows = [
        [(1, 0.5), (3, 0.5)],            # one photon, wrong basis
        [(1, 1.0)],                      # one photon, right basis
        [(1, 0.25), (3, 0.25), (4, 0.5)],  # two photons, wrong basis
        [(1, 1.0)],                      # two photons, right basis
    ]
    meas_off, meas_cum, meas_pat = [0], [], []
    for row in meas_rows:
        acc = 0.0
        for pat, p in row:
            acc += p
            meas_cum.append(acc)
            meas_pat.append(pat)
        meas_off.append(len(meas_cum))

    tables = Bb84Tables(
        size_cum=np.array([p0, p0 + p1, 1.0]),
        attack=1 if pns else 0,
        quota=quota,
        loss_off=np.array(loss_off, dtype=np.int64),
        loss_cum=np.array(loss_cum, dtype=np.float64),
        loss_m=np.array(loss_m, dtype=np.int8),
        meas_off=np.array(meas_off, dtype=np.int64),
        meas_cum=np.array(meas_cum, dtype=np.float64),
        meas_pat=np.array(meas_pat, dtype=np.int8),
    )
    return tables, meta


def run_bb84(config: ProtocolConfig, attack: AttackSpec,
             jobs: int = 1, keep_codes: bool = False) -> RunReport:
    """One-way BB84 with a pulsed source; splitting attack or passive channel."""
    config.validate()
    if config.variant != BB84:
        raise ConfigError("run_bb84 requires the bb84 variant")
    tables, meta = build_bb84_tables(config, attack)
    codes, w = simulate_bb84(tables, config.rng_seed, config.rounds, jobs=jobs,
                            keep_codes=keep_codes)

    rec = BB84_SPACE.decode()
    n = int(w.sum())
    pattern = rec["pattern"]
    bit = rec["bit"]
    basis = rec["basis"]
    bob_basis = rec["bob_basis"]
    evebit = rec["evebit"]
    _b1, _b0, double, b_bit, _vac = _bits_from_codes(pattern)
    received = pattern != 0
    same = basis == bob_basis
    sifted = received & same & (b_bit >= 0)

    cat = np.full(w.size, -1, dtype=np.int8)
    cat[~received] = 0
    cat[received & ~same] = 1
    cat[received & same & double] = 2
    cat[sifted & (b_bit == bit)] = 3
    cat[sifted & (b_bit != bit)] = 4
    counts = {name: _count(w, cat == i)
              for i, name in enumerate(BB84_CATEGORIES)}

    n_sift = counts["sift_ok"] + counts["sift_error"]
    known = _count(w, sifted & (evebit == bit))
    metrics: Dict[str, float] = {
        "rounds": n,
        "received_pulses": _count(w, received),
        "sifted_bits": n_sift,
        "sifted_errors": counts["sift_error"],
        "error_rate": counts["sift_error"] / n_sift if n_sift else 0.0,
        "double_clicks": counts["double_click"],
        "eve_known_fraction": known / n_sift if n_sift else 0.0,
    }
    metrics.update(meta)
    if tables.attack == 1:
        metrics["pns_forwarded"] = _count(w, rec["forwarded"] == 1)
        metrics["pns_quota_met"] = (
            1.0 if _count(w, rec["pulse_size"] == 2) >= tables.quota else 0.0)

    rec["category"] = cat
    return RunReport(variant=BB84, rounds=n, seed=config.rng_seed,
                     metrics=metrics, categories=counts,
                     record_fields=tuple(rec), codes=codes, code_fields=rec)


# ---------------------------------------------------------------------------
# B92 (one-way, two non-orthogonal states)


B92_CATEGORIES = ("loss", "inconclusive", "conclusive_ok", "conclusive_error")


def build_b92_tables(config: ProtocolConfig, attack: AttackSpec) -> B92Tables:
    c = config.b92_overlap
    usd = isinstance(attack.strategy, UsdStrategy)
    if not usd and attack.name != "identity":
        raise ConfigError(f"attack {attack.name!r} has no two-state form")
    if usd and abs(attack.strategy.overlap - c) > 1e-12:
        raise ConfigError("attack overlap differs from the configured states")
    lossrate = 1.0 - config.transmission
    attempted = usd and analysis.b92_breakable(lossrate, c)
    return B92Tables(conclusive_p=1.0 - c * c,
                     transmission=config.transmission,
                     attack=1 if attempted else 0)


def run_b92(config: ProtocolConfig, attack: AttackSpec,
            jobs: int = 1, keep_codes: bool = False) -> RunReport:
    """Two-state protocol; the conclusive-measurement intercept hides in loss."""
    config.validate()
    if config.variant != B92:
        raise ConfigError("run_b92 requires the b92 variant")
    c = config.b92_overlap
    tables = build_b92_tables(config, attack)
    codes, w = simulate_b92(tables, config.rng_seed, config.rounds, jobs=jobs,
                           keep_codes=keep_codes)

    rec = B92_SPACE.decode()
    n = int(w.sum())
    arrived = rec["arrived"].astype(bool)
    conclusive = rec["conclusive"].astype(bool)
    bit = rec["bit"]
    bob_bit = rec["bob_bit"]
    evebit = rec["evebit"]

    cat = np.full(w.size, -1, dtype=np.int8)
    cat[~arrived] = 0
    cat[arrived & ~conclusive] = 1
    cat[conclusive & (bob_bit == bit)] = 2
    cat[conclusive & (bob_bit != bit)] = 3
    counts = {name: _count(w, cat == i)
              for i, name in enumerate(B92_CATEGORIES)}

    delivered = _count(w, arrived)
    n_con = counts["conclusive_ok"] + counts["conclusive_error"]
    known = _count(w, conclusive & (evebit == bit))
    metrics: Dict[str, float] = {
        "rounds": n,
        "losses": counts["loss"],
        "delivered": delivered,
        "delivered_fraction": delivered / n,
        "conclusive": n_con,
        "inconclusive": counts["inconclusive"],
        "conclusive_fraction": n_con / delivered if delivered else 0.0,
        "errors": counts["conclusive_error"],
        "error_rate": counts["conclusive_error"] / n_con if n_con else 0.0,
        "eve_known_fraction": known / n_con if n_con else 0.0,
        "attack_attempted": float(tables.attack),
        "analytic_conclusive": analysis.b92_conclusive_prob(c),
        "breakable_threshold": 0.5 * (1.0 + c * c),
    }

    rec["category"] = cat
    return RunReport(variant=B92, rounds=n, seed=config.rng_seed,
                     metrics=metrics, categories=counts,
                     record_fields=tuple(rec), codes=codes, code_fields=rec)


def run(config: ProtocolConfig, attack: AttackSpec,
        jobs: int = 1, keep_codes: bool = False) -> RunReport:
    """Dispatch a run to the engine matching the configured variant; the
    report holds per-round codes only if ``keep_codes``."""
    config.validate()
    if config.variant == BB84:
        return run_bb84(config, attack, jobs=jobs, keep_codes=keep_codes)
    if config.variant == B92:
        return run_b92(config, attack, jobs=jobs, keep_codes=keep_codes)
    return run_protocol(config, attack, jobs=jobs, keep_codes=keep_codes)
