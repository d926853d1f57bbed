"""Independent brute-force constructions used as oracles by the tests.

The state oracles work in the 2^n distinguishable-photon product space and
symmetrize by Hamming weight, deliberately avoiding the package's
creation-operator expansion so the two derivations stay independent.

The round-walk oracles (``*_walk``) take one round at a time in plain
Python: each categorical draw scans its table row until the first
cumulative threshold above the uniform.  The vectorized engine in
``sqkdsim.kernels`` must reproduce their records bit for bit.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np

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
# per-round reference walks over the kernels' branch tables


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
    rows = []
    for ui in u.tolist():
        e = _scan([0, len(t["emission_cum"])], t["emission_cum"], 0, ui[0])
        node = t["oloss_node"][_scan(t["oloss_off"], t["oloss_cum"], e, ui[1])]
        ctrl = ui[2] < 0.5
        if ctrl:
            readout = -1
            resid = t["ctrl_next"][node]
        else:
            k = _scan(t["sift_off"], t["sift_cum"], node, ui[3])
            readout = t["sift_readout"][k]
            resid = t["sift_next"][k]
        k = _scan(t["ret_off"], t["ret_cum"], resid, ui[4])
        returned, guess, evebit = (t["ret_next"][k], t["ret_guess"][k],
                                   t["ret_evebit"][k])
        measured = t["rloss_node"][
            _scan(t["rloss_off"], t["rloss_cum"], returned, ui[6])]
        kind = t["emission_kind"][e]
        basis = 0
        if kind == 0:
            basis = 1 if ctrl else 0
            if t["cross_enabled"] == 1 and ui[7] < t["cross_fraction"]:
                basis = 1 - basis
        side = "bobx" if basis == 1 else "bobz"
        pattern = t[side + "_pat"][
            _scan(t[side + "_off"], t[side + "_cum"], measured, ui[8])]
        test = int((not ctrl) and kind == 0 and basis == 0
                   and ui[9] < t["test_fraction"])
        rows.append((e, 0 if ctrl else 1, readout, basis, pattern, test,
                     guess, evebit))
    return _records(rows, ("emit", "action", "readout", "basis", "pattern",
                           "test", "guess", "evebit"), {"emit": np.int16})


def bb84_walk(tab, u, mirror):
    """Records of one-way BB84, one round at a time."""
    t = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
         for k, v in vars(tab).items()}
    mirror = mirror.tolist()
    rows = []
    for i, ui in enumerate(u.tolist()):
        bit = 0 if ui[0] < 0.5 else 1
        basis = 0 if ui[1] < 0.5 else 1
        evebit = -1
        if t["attack"] == 1:
            m = 0
            if t["forward"][i] == 1:
                m = 1
                evebit = bit
        else:
            m = t["loss_m"][_scan(t["loss_off"], t["loss_cum"],
                                  t["pulse_size"][i], ui[3])]
        bob_basis = 0 if ui[4] < 0.5 else 1
        pattern = 0
        if m > 0:
            row = (m - 1) * 2 + (1 if bob_basis == basis else 0)
            pattern = t["meas_pat"][_scan(t["meas_off"], t["meas_cum"],
                                          row, ui[5])]
            if bit == 1:
                pattern = mirror[pattern]
        rows.append((bit, basis, bob_basis, pattern, evebit))
    return _records(rows, ("bit", "basis", "bob_basis", "pattern", "evebit"),
                    {})


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
