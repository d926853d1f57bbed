"""Independent brute-force constructions used as oracles by the tests.

The state oracles work in the 2^n distinguishable-photon product space and
symmetrize by Hamming weight, deliberately avoiding the package's
creation-operator expansion so the two derivations stay independent.

The round-walk oracles (``*_walk``) take one round at a time in plain
Python: each categorical draw scans its table row until the first
cumulative threshold above the uniform.  The walkers in
``sqkdsim.protocol``, on the plan walker in ``sqkdsim.kernels``, must
reproduce their records bit for bit.  ``bb84_quota`` takes BB84's
quota-free leaves through the splitter's quota the same way, a round at a
time.

The reference aggregators (``*_aggregate``) compute metrics and categories
from per-round records with one boolean mask per quantity.  The protocol
layer evaluates the same quantities once per record code, weighted by the
code's round count, and must produce the same reports.

The dense-map references (``isometry_defect_reference``,
``from_dense_columns_reference``, ``load_matrix_reference``,
``apply_reference``) are the per-pair, per-entry and per-column dict loops
that ``sqkdsim.attacks`` replaced with array operations, and
``transform_reference`` is the per-occupation dict loop that ``sqkdsim.fock``
replaced with one matmul.  ``joint_state``, ``map_from_columns`` and
``columns_of`` convert between those dict forms, keyed ``(e, occupation)``,
and the dense arrays.  ``sift_reference`` groups a state's amplitudes by
Alice's detector pattern, where ``JointState.sift_branches`` projects the
array on one mask per pattern.

``round_log_reference`` formats the round log one line per round with an
f-string; ``sqkdsim.report`` builds the same text from byte rows with numpy.

``plan_law`` is the exact probability of each leaf of a walk plan, carried
step by step through the plan's raw thresholds; sampled leaf counts are
tested against it.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np

from sqkdsim import analysis, kernels
from sqkdsim.attacks import DOMAIN_TOL, AttackDomainError, ProbeChannelMap
from sqkdsim.fock import AMPLITUDE_FLOOR, Z, _mixing_row, channel_basis, z_vector
from sqkdsim.joint import ChannelBasis, JointState, detector_pattern
from sqkdsim.protocol import (
    B92_CATEGORIES,
    BB84_CATEGORIES,
    CA_CATEGORIES,
    _bits_from_codes,
)

PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)   # photon state with z amplitudes (|0>, |1>)
MINUS = np.array([1.0, -1.0]) / math.sqrt(2.0)


def _weight(index: int) -> int:
    return bin(index).count("1")


def symmetric_expansion(n: int, sign: int) -> np.ndarray:
    """Coefficients over k of n identical plus (sign=+1) or minus photons.

    Builds the product state in the 2^n space and projects onto the
    normalized equal superposition of the basis strings of each Hamming
    weight; entry k multiplies the occupation (k, n-k) in the z basis.
    """
    single = PLUS if sign == +1 else MINUS
    if n == 0:
        return np.array([1.0])
    vec = single
    for _ in range(n - 1):
        vec = np.kron(vec, single)
    coeffs = np.zeros(n + 1)
    for j in range(2 ** n):
        coeffs[_weight(j)] += vec[j]
    for k in range(n + 1):
        coeffs[k] /= math.sqrt(math.comb(n, k))
    return coeffs


def symmetric_mixed_state(n_minus: int, n_plus: int) -> dict:
    """z expansion of a pulse with n_minus minus photons and n_plus plus photons.

    Symmetrizes the distinguishable product over all distinct photon
    orderings, then groups by Hamming weight.  Returns occupation -> real
    coefficient with keys (k, n-k).
    """
    n = n_minus + n_plus
    if n == 0:
        return {(0, 0): 1.0}
    photons = [0] * n_minus + [1] * n_plus   # 0 = minus, 1 = plus
    vec = np.zeros(2 ** n)
    for order in set(permutations(photons)):
        term = np.array([1.0])
        for kind in order:
            term = np.kron(term, MINUS if kind == 0 else PLUS)
        vec += term
    vec /= np.linalg.norm(vec)
    out = {}
    coeffs = np.zeros(n + 1)
    for j in range(2 ** n):
        coeffs[_weight(j)] += vec[j]
    for k in range(n + 1):
        c = coeffs[k] / math.sqrt(math.comb(n, k))
        if abs(c) > 1e-14:
            out[(k, n - k)] = c
    return out


def binomial_counts(n: int, k: int) -> float:
    """Reference photon-count probability for an n-photon single-mode x pulse."""
    return math.comb(n, k) / 2.0 ** n


# ---------------------------------------------------------------------------
# per-round reference walks over the protocols' branch tables


def _scan(off, cum, parent, x):
    """Index of the branch of row ``parent`` that uniform ``x`` selects."""
    t, hi = off[parent], off[parent + 1]
    while t < hi - 1 and x >= cum[t]:
        t += 1
    return t


def _records(rows, fields, dtypes):
    return {f: np.array([r[i] for r in rows], dtype=dtypes.get(f, np.int8))
            for i, f in enumerate(fields)}


def ca_walk(tab, u):
    """Records of the two-way protocol, one round at a time."""
    t = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
         for k, v in vars(tab).items()}
    outbound = len(t["oloss_cum"])
    rows = []
    for ui in u.tolist():
        # a branch of one level is a node (row) of the next; the residual
        # nodes are the outbound nodes, then the SIFT branches
        e = _scan([0, len(t["emission_cum"])], t["emission_cum"], 0, ui[0])
        node = _scan(t["oloss_off"], t["oloss_cum"], e, ui[1])
        ctrl = ui[2] < 0.5
        if ctrl:
            readout = -1
            resid = node
        else:
            k = _scan(t["sift_off"], t["sift_cum"], node, ui[3])
            readout = t["sift_readout"][k]
            resid = outbound + k
        returned = _scan(t["ret_off"], t["ret_cum"], resid, ui[4])
        guess, evebit = t["ret_guess"][returned], t["ret_evebit"][returned]
        measured = _scan(t["rloss_off"], t["rloss_cum"], returned, ui[6])
        kind = t["emission_kind"][e]
        basis = 0
        if kind == 0:
            basis = 1 if ctrl else 0
            if ui[7] < t["cross_fraction"]:
                basis = 1 - basis
        # Bob's rows are the measured nodes in z, then in x
        pattern = t["bob_pat"][_scan(t["bob_off"], t["bob_cum"],
                                     measured + basis * len(t["rloss_cum"]),
                                     ui[8])]
        test = int((not ctrl) and kind == 0 and basis == 0
                   and ui[9] < t["test_fraction"])
        rows.append((e, 0 if ctrl else 1, readout, basis, pattern, test,
                     guess, evebit))
    return _records(rows, ("emit", "action", "readout", "basis", "pattern",
                           "test", "guess", "evebit"), {"emit": np.int16})


#: Bob's threshold patterns of m photons of bit 0, row (m - 1) * 2 + same
#: (same = 1 when he measures in Alice's basis), as (pattern, probability)
#: branches; bit 1's rows are these with each pattern mirrored
BB84_THRESHOLD_ROWS = (
    (((0, 1), 0.5), ((1, 0), 0.5)),                   # one photon, wrong basis
    (((0, 1), 1.0),),                                 # one photon, right basis
    (((0, 1), 0.25), ((1, 0), 0.25), ((1, 1), 0.5)),  # two photons, wrong basis
    (((0, 1), 1.0),),                                 # two photons, right basis
)


def bb84_walk(tab, u):
    """Records of one-way BB84, one round at a time."""
    t = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
         for k, v in vars(tab).items()}
    rows = []
    taken = 0
    for ui in u.tolist():
        bit = 0 if ui[0] < 0.5 else 1
        basis = 0 if ui[1] < 0.5 else 1
        size = _scan([0, 3], t["size_cum"], 0, ui[2])
        evebit = -1
        forwarded = 0
        if t["attack"] == 1:
            # the splitter's rule by hand: a forwarded pulse reads Bob's
            # one-photon rows, where the engine reads the split pulse's
            m = 0
            if size == 2:
                taken += 1
                if taken <= t["quota"]:
                    forwarded = m = 1
                    evebit = bit
        else:
            m = t["loss_m"][_scan(t["loss_off"], t["loss_cum"], size, ui[3])]
        bob_basis = 0 if ui[4] < 0.5 else 1
        pattern = 0
        if m > 0:
            # Bob's rows are the nodes (m, bit, basis, bob_basis) in order
            row = (((m - 1) * 2 + bit) * 2 + basis) * 2 + bob_basis
            pattern = t["meas_pat"][_scan(t["meas_off"], t["meas_cum"],
                                          row, ui[5])]
        rows.append((bit, basis, size, forwarded, bob_basis, pattern, evebit))
    return _records(rows, ("bit", "basis", "pulse_size", "forwarded",
                           "bob_basis", "pattern", "evebit"), {})


def bb84_quota(leaves, forwarded, quota):
    """Leaves of BB84 rounds in order under the splitter's quota, one round
    at a time: a round at a forwarded leaf past the quota takes its twin,
    the twins numbered after the leaves in the forwarded leaves' order."""
    twin = {int(leaf): forwarded.size + k
            for k, leaf in enumerate(np.flatnonzero(forwarded))}
    out, taken = [], 0
    for leaf in leaves.tolist():
        if forwarded[leaf]:
            taken += 1
            if taken > quota:
                leaf = twin[leaf]
        out.append(leaf)
    return np.array(out, dtype=np.intp)


def b92_walk(tab, u):
    """Records of the two-state protocol, one round at a time."""
    rows = []
    for ui in u.tolist():
        bit = 0 if ui[0] < 0.5 else 1
        evebit = -1
        if tab.attack == 1:
            ebasis = 0 if ui[1] < 0.5 else 1
            arrived = int(ebasis != bit and ui[2] < tab.conclusive_p)
            if arrived:
                evebit = bit
        else:
            arrived = int(ui[3] < tab.transmission)
        bob_basis, conclusive, bob_bit = -1, 0, -1
        if arrived:
            bob_basis = 0 if ui[4] < 0.5 else 1
            if bob_basis != bit and ui[5] < tab.conclusive_p:
                conclusive = 1
                bob_bit = 1 - bob_basis
        rows.append((bit, arrived, bob_basis, conclusive, bob_bit, evebit))
    return _records(rows, ("bit", "arrived", "bob_basis", "conclusive",
                           "bob_bit", "evebit"), {})


# ---------------------------------------------------------------------------
# per-round reference aggregators over the walks' records


def ca_aggregate(config, attack, tables, alice_11, rec):
    """(metrics, categories, per-round category) of two-way records."""
    n = rec["action"].shape[0]
    action = rec["action"]
    readout = rec["readout"]
    basis = rec["basis"]
    pattern = rec["pattern"]
    test = rec["test"].astype(bool)
    guess = rec["guess"]
    evebit = rec["evebit"]
    kind = tables.emission_kind[rec["emit"]]
    emit_bit = kind - 1

    a1, a0, a_double, a_bit, a_vacuum = _bits_from_codes(readout)
    b1, _b0, b_double, b_bit_raw, _ = _bits_from_codes(pattern)
    b_click = pattern != 0
    b_bit = np.where(basis == 0, b_bit_raw, -1)
    minus_click = (basis == 1) & (b1 >= 1)

    ctrl = action == 0
    sift = ~ctrl
    std = kind == 0

    cat = np.full(n, -1, dtype=np.int8)
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

    counts = {name: int(np.count_nonzero(cat == i))
              for i, name in enumerate(CA_CATEGORIES)}

    nonempty_sift = int(np.count_nonzero(std_sift & ~a_vacuum))
    double_clicks = counts["sift_illicit"]
    key_bits = counts["key_ok"] + counts["key_mismatch"]
    losses = int(np.count_nonzero(~b_click))
    multiphoton = int(np.count_nonzero(
        std_sift & ((a1 == 2) | (a0 == 2)) & ~a_double))

    metrics = {
        "rounds": n,
        "ctrl_rounds": counts["ctrl_clean"] + counts["ctrl_error"],
        "ctrl_errors": counts["ctrl_error"],
        "sift_rounds": int(np.count_nonzero(std_sift)),
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
        "alice_11_prob_exact": alice_11,
    }

    guessed = guess >= 0
    if guessed.any():
        metrics["eve_guess_success"] = float(
            np.count_nonzero(guessed & (guess == action))
            / np.count_nonzero(guessed))
    key_mask = (cat == 8) | (cat == 9)
    metrics["eve_known_fraction"] = (
        float(np.count_nonzero(key_mask & (evebit == a_bit))
              / np.count_nonzero(key_mask)) if key_mask.any() else 0.0)

    if config.cross_basis_fraction > 0.0:
        metrics["cross_ctrl_rounds"] = counts["cross_ctrl_z"]
        metrics["cross_ctrl_double"] = int(np.count_nonzero((cat == 2) & b_double))
        metrics["cross_sift_rounds"] = counts["cross_sift_x"]
        metrics["cross_sift_double"] = int(np.count_nonzero((cat == 3) & b_double))
    if config.extra_state_fraction > 0.0:
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
    return metrics, counts, cat


def bb84_aggregate(config, tables, meta, rec):
    """(metrics, categories, per-round category) of BB84 records."""
    n = config.rounds
    pattern = rec["pattern"]
    bit = rec["bit"]
    basis = rec["basis"]
    bob_basis = rec["bob_basis"]
    evebit = rec["evebit"]
    _b1, _b0, double, b_bit, _vac = _bits_from_codes(pattern)
    received = pattern != 0
    same = basis == bob_basis
    sifted = received & same & (b_bit >= 0)

    cat = np.full(n, -1, dtype=np.int8)
    cat[~received] = 0
    cat[received & ~same] = 1
    cat[received & same & double] = 2
    cat[sifted & (b_bit == bit)] = 3
    cat[sifted & (b_bit != bit)] = 4
    counts = {name: int(np.count_nonzero(cat == i))
              for i, name in enumerate(BB84_CATEGORIES)}

    n_sift = counts["sift_ok"] + counts["sift_error"]
    known = int(np.count_nonzero(sifted & (evebit == bit)))
    metrics = {
        "rounds": n,
        "received_pulses": int(np.count_nonzero(received)),
        "sifted_bits": n_sift,
        "sifted_errors": counts["sift_error"],
        "error_rate": counts["sift_error"] / n_sift if n_sift else 0.0,
        "double_clicks": counts["double_click"],
        "eve_known_fraction": known / n_sift if n_sift else 0.0,
    }
    metrics.update(meta)
    if tables.attack == 1:
        metrics["pns_forwarded"] = int(rec["forwarded"].sum())
        metrics["pns_quota_met"] = (
            1.0 if int((rec["pulse_size"] == 2).sum()) >= tables.quota
            else 0.0)
    return metrics, counts, cat


def b92_aggregate(config, tables, rec):
    """(metrics, categories, per-round category) of two-state records."""
    n = config.rounds
    c = config.b92_overlap
    arrived = rec["arrived"].astype(bool)
    conclusive = rec["conclusive"].astype(bool)
    bit = rec["bit"]
    bob_bit = rec["bob_bit"]
    evebit = rec["evebit"]

    cat = np.full(n, -1, dtype=np.int8)
    cat[~arrived] = 0
    cat[arrived & ~conclusive] = 1
    cat[conclusive & (bob_bit == bit)] = 2
    cat[conclusive & (bob_bit != bit)] = 3
    counts = {name: int(np.count_nonzero(cat == i))
              for i, name in enumerate(B92_CATEGORIES)}

    delivered = int(np.count_nonzero(arrived))
    n_con = counts["conclusive_ok"] + counts["conclusive_error"]
    known = int(np.count_nonzero(conclusive & (evebit == bit)))
    metrics = {
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
        "attack_attempted": 1.0 if tables.attack == 1 else 0.0,
        "analytic_conclusive": analysis.b92_conclusive_prob(c),
        "breakable_threshold": 0.5 * (1.0 + c * c),
    }
    return metrics, counts, cat


# ---------------------------------------------------------------------------
# dense attack maps: seeded inputs and the per-entry reference loaders


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian, phases fixed by R."""
    z = (rng.standard_normal((dim, dim))
         + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def write_matrix(path, matrix: np.ndarray, header: str = "") -> None:
    """Row-major re/im float pairs, the format `general` attacks read."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for row in matrix:
            fh.write(" ".join(f"{float(v.real)!r} {float(v.imag)!r}"
                              for v in row) + "\n")


def isometry_defect_reference(columns) -> float:
    """Largest |<dom_i,dom_j> - <img_i,img_j>| over column pairs, and the
    largest |<dom_i,dom_i> - 1|, from one dict inner product per pair."""
    def inner(a, b):
        return sum(a[k].conjugate() * b[k] for k in a.keys() & b.keys())

    worst = 0.0
    for i, (dom_i, img_i) in enumerate(columns):
        for j, (dom_j, img_j) in enumerate(columns):
            want = inner(dom_i, dom_j)
            worst = max(worst, abs(want - inner(img_i, img_j)))
            if i == j:
                worst = max(worst, abs(want - 1.0))
    return worst


def from_dense_columns_reference(matrix, probe_dim, channel):
    """(domain, image) dict columns of a dense map, one column at a time."""
    dim = probe_dim * channel.dim
    matrix = np.asarray(matrix, dtype=np.complex128)
    columns = []
    for j in range(dim):
        dom = {(j // channel.dim, channel.occupations[j % channel.dim]): 1.0 + 0j}
        img = {}
        col = matrix[:, j]
        for i in np.nonzero(np.abs(col) > AMPLITUDE_FLOOR)[0]:
            img[(int(i) // channel.dim,
                 channel.occupations[int(i) % channel.dim])] = complex(col[i])
        columns.append((dom, img))
    return columns


def joint_state(probe_dim, n_max, amps) -> JointState:
    """JointState holding a ``{(e, occupation): amp}`` dict."""
    basis = ChannelBasis(n_max)
    arr = np.zeros((probe_dim, basis.dim), dtype=np.complex128)
    for (e, occ), amp in amps.items():
        arr[e, basis.index[occ]] = amp
    return JointState(arr)


def sift_reference(state: JointState, model) -> list:
    """Alice's SIFT readout as ``(pattern, probability, {(e, occupation):
    amp})`` per detector pattern that occurs, sorted by pattern: the
    amplitudes grouped by ``detector_pattern`` and each group normalized."""
    groups = {}
    for (e, occ), amp in state.items():
        groups.setdefault(detector_pattern(occ, model), {})[(e, occ)] = amp
    out = []
    for pattern in sorted(groups):
        group = groups[pattern]
        p = sum(abs(a) ** 2 for a in group.values())
        out.append((pattern, p,
                    {k: a / math.sqrt(p) for k, a in group.items()}))
    return out


def map_from_columns(columns, probe_dim, n_max) -> ProbeChannelMap:
    """Dense map from ``(domain, image)`` columns keyed ``(e, occupation)``."""
    basis = ChannelBasis(n_max)
    shape = (probe_dim, basis.dim, len(columns))
    dom = np.zeros(shape, dtype=np.complex128)
    img = np.zeros(shape, dtype=np.complex128)
    for j, column in enumerate(columns):
        for arr, vec in zip((dom, img), column):
            for (e, occ), amp in vec.items():
                arr[e, basis.index[occ], j] = amp
    return ProbeChannelMap(dom, img)


def columns_of(m: ProbeChannelMap):
    """``(domain, image)`` dict columns of a dense map: its nonzero entries
    keyed ``(e, occupation)``, probe-major.  ``D is None`` is the whole
    basis of ``M``'s extent: domain column ``j`` is key ``j``."""
    dim, cols = m.M.shape[1:]
    n_max = 0
    while ChannelBasis(n_max).dim < dim:
        n_max += 1
    occs = ChannelBasis(n_max).occupations

    def column(arr, j):
        return {(int(e), occs[c]): complex(arr[e, c, j])
                for e, c in zip(*np.nonzero(arr[:, :, j]))}

    def domain(j):
        if m.D is None:
            return {(j // dim, occs[j % dim]): 1.0 + 0j}
        return column(m.D, j)

    return [(domain(j), column(m.M, j)) for j in range(cols)]


def apply_reference(m: ProbeChannelMap, state: JointState) -> dict:
    """``m`` applied to ``state`` as ``{(e, occupation): amp}``, one dict
    inner product per column; raises AttackDomainError for an input outside
    the domain as ``ProbeChannelMap.apply`` does."""
    vec = dict(state.items())
    total = sum(abs(x) ** 2 for x in vec.values())
    captured = 0.0
    out = {}
    for dom, img in columns_of(m):
        coeff = sum(dom[k].conjugate() * vec[k]
                    for k in dom.keys() & vec.keys())
        if abs(coeff) <= AMPLITUDE_FLOOR:
            continue
        captured += abs(coeff) ** 2
        for key, amp in img.items():
            out[key] = out.get(key, 0j) + coeff * amp
    if total - captured > DOMAIN_TOL * max(total, 1.0):
        raise AttackDomainError(
            f"input component of weight {total - captured:.3e} lies "
            f"outside the attack map's domain")
    return {k: v for k, v in out.items() if abs(v) > AMPLITUDE_FLOOR}


def load_matrix_reference(path) -> np.ndarray:
    """Dense matrix from a matrix file, one ``float()`` call per token."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            values.extend(float(tok) for tok in line.split("#", 1)[0].split())
    flat = np.array(values).reshape(-1, 2)
    dim = math.isqrt(len(flat))
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(dim, dim)


def transform_reference(vec: np.ndarray, n_max: int) -> np.ndarray:
    """``vec``, over the occupations of ``channel_basis(n_max)`` in one
    basis, in the other basis by the per-occupation dict loop that one
    ``hadamard`` matmul replaced: each occupation's mixing row accumulated
    key by key."""
    basis = channel_basis(n_max)
    out = {}
    for (a, b), amp in sorted((basis.occupations[i], complex(vec[i]))
                              for i in np.flatnonzero(vec)):
        n = a + b
        for k, coeff in enumerate(_mixing_row(a, b)):
            if coeff == 0.0:
                continue
            out[(k, n - k)] = out.get((k, n - k), 0j) + coeff * amp
    return z_vector(out, Z, n_max)   # placed as given: only an x state is rotated


# ---------------------------------------------------------------------------
# exact outcome law of a walk plan


def _passed(thresholds: np.ndarray) -> np.ndarray:
    """``P(raw > T)`` of each raw threshold ``T = K * 2**11 - 1`` for a
    uniform 64-bit word: ``1 - K / 2**53``, and 0 for ``RAW_MAX``."""
    return np.array([1.0 - ((int(t) + 1) >> kernels.RAW_SHIFT) / kernels.WORD_ONE
                     for t in thresholds.ravel()]).reshape(thresholds.shape)


def plan_law(plan) -> np.ndarray:
    """Probability of each leaf of ``plan``, the drawing steps of
    ``kernels._chain``: the mass of each walk index, carried through the
    steps.  Branch ``c`` of a row takes ``P(pass c-1) - P(pass c)`` of the
    row's mass, over its sorted thresholds; a ``Stage`` row's branch is its
    start plus ``c``, a counted step's is ``index * (values + 1) + c``.
    Padded thresholds are passed by no word, so their branches take none."""
    mass = np.ones(1)
    for _slot, step in plan:
        counted = not isinstance(step, kernels.Stage)
        passed = _passed(step[:, None] if counted else step.thresholds)
        edges = np.vstack([np.ones(passed.shape[1]), passed,
                           np.zeros(passed.shape[1])])
        share = -np.diff(edges, axis=0)        # (branches per row, rows)
        if counted:
            mass = (mass[:, None] * share[:, 0]).ravel()
            continue
        branch = step.start + np.arange(share.shape[0])[:, None]
        taken = share > 0
        mass = np.bincount(branch[taken], weights=(share * mass)[taken],
                           minlength=step.branches)
    return mass


def path_law(steps) -> np.ndarray:
    """Probability of each path of a chain of ``(slot, (off, cum))`` levels,
    the float rows that ``kernels._chain`` compiles: each level's branch
    probabilities multiplied down the paths.  A branch takes its cumulative
    value less the one before it in its row, values clipped to [0, 1], and
    a row's last branch takes the rest of 1, as the walk does."""
    mass = np.ones(1)
    for _slot, (off, cum) in steps:
        assert mass.size == off.size - 1
        share = np.empty(off[-1])
        for lo, hi in zip(off[:-1], off[1:]):
            share[lo:hi] = np.diff(np.clip(cum[lo:hi - 1], 0.0, 1.0),
                                   prepend=0.0, append=1.0)
        mass = np.repeat(mass, np.diff(off)) * share
    return mass


# ---------------------------------------------------------------------------
# round log: one formatted line per round


def round_log_reference(report, sep: str) -> str:
    """The round log's lines joined by newlines: each code's fields joined
    once, then one f-string per round."""
    cols = [report.code_fields[f] for f in report.record_fields]
    rows = np.empty(cols[0].size, dtype=object)
    for code in np.flatnonzero(np.bincount(report.codes,
                                           minlength=rows.size)).tolist():
        rows[code] = sep.join(str(int(col[code])) for col in cols)
    return "\n".join(f"{i}{sep}{row}" for i, row in
                     enumerate(rows[report.codes].tolist()))
