"""Monte-Carlo round engine: a vectorized walk over flat branch tables.

The protocol layer reduces one round to a fixed sequence of categorical
draws over precomputed tables (emission, outbound loss, Alice's action and
branch, Eve's return behaviour, return loss, Bob's detector pattern).  A
stage holds one row per parent node with the cumulative probabilities of
its branches; a round with uniform ``x`` takes the first branch whose
cumulative value exceeds ``x``, or the row's last branch.

Rows are non-decreasing, so that branch is the row start plus the number
of the row's thresholds that ``x`` has passed.  Each stage is therefore
walked as a threshold matrix, one column per parent padded with ``+inf``:
a pick over a whole block of rounds is a few gather-compare-add passes,
with no per-parent masks and no sorting.

Rounds are walked in fixed blocks of ``BLOCK`` rounds, so temporaries stay
O(BLOCK) per thread; ``jobs`` worker threads split the rounds into
contiguous chunks (numpy drops the interpreter lock inside its loops).

Randomness: uniform ``u[i, j]`` is the ``(i * SLOTS + j)``-th double of the
Philox-4x64 stream keyed by the run seed, so round ``i`` owns a fixed
counter block and records do not depend on blocks or worker counts.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

SLOTS = 10

#: rounds per block of the walk; temporaries are a few arrays of this length
BLOCK = 1 << 16

#: pattern codes mirrored across the two modes, code = 3*first + second
MIRROR_CODE = np.array([3 * (c % 3) + c // 3 for c in range(9)], dtype=np.int8)


def round_uniforms(seed: int, rounds: int) -> np.ndarray:
    """Counter-based per-round uniforms; row i is round i's private stream."""
    key = np.uint64(int(seed) % 2 ** 64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.random((rounds, SLOTS))


def _chunk_ranges(n: int, jobs: int):
    jobs = max(1, min(jobs, n)) if n else 1
    step = -(-n // jobs)
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _walk(block: Callable[[int, int], None], n: int, jobs: int) -> None:
    """Call ``block(lo, hi)`` over rounds [0, n) in pieces of at most BLOCK
    rounds, with the rounds split into ``jobs`` contiguous chunks."""
    def worker(lo: int, hi: int) -> None:
        for b in range(lo, hi, BLOCK):
            block(b, min(b + BLOCK, hi))

    ranges = _chunk_ranges(n, jobs)
    if len(ranges) == 1:
        worker(*ranges[0])
        return
    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        list(pool.map(lambda r: worker(*r), ranges))


def _records(n: int, fields, wide=()) -> Dict[str, np.ndarray]:
    return {f: np.zeros(n, dtype=np.int16 if f in wide else np.int8)
            for f in fields}


@dataclass
class Stage:
    """One categorical stage as a threshold matrix.

    A round at parent ``p`` with uniform ``x`` takes branch
    ``start[p] + #{j : x >= thresholds[j, p]}``.  Column ``p`` holds all
    but the last cumulative value of row ``p``, padded with ``+inf``.
    """
    start: np.ndarray        # (parents,) index of each row's first branch
    thresholds: np.ndarray   # (max row width - 1, parents)

    @classmethod
    def from_rows(cls, off: np.ndarray, cum: np.ndarray) -> "Stage":
        start = np.asarray(off[:-1], dtype=np.intp)
        widths = np.diff(off)
        depth = int(widths.max(initial=1)) - 1
        thresholds = np.full((depth, start.size), np.inf)
        for j in range(depth):
            has = widths - 1 > j
            thresholds[j, has] = cum[start[has] + j]
        return cls(start, thresholds)

    @classmethod
    def interleave(cls, even: "Stage", odd: "Stage", odd_shift: int) -> "Stage":
        """Parent ``2p`` is ``even``'s row ``p``, ``2p + 1`` is ``odd``'s,
        whose branch indices move up by ``odd_shift``."""
        parents = even.start.size
        depth = max(even.thresholds.shape[0], odd.thresholds.shape[0])
        thresholds = np.full((depth, 2 * parents), np.inf)
        thresholds[:even.thresholds.shape[0], 0::2] = even.thresholds
        thresholds[:odd.thresholds.shape[0], 1::2] = odd.thresholds
        start = np.empty(2 * parents, dtype=np.intp)
        start[0::2] = even.start
        start[1::2] = odd.start + odd_shift
        return cls(start, thresholds)

    def pick(self, x: np.ndarray, parent: Optional[np.ndarray] = None
             ) -> np.ndarray:
        """Branch index of each uniform in ``x`` at its parent row; a stage
        with one row ignores ``parent``."""
        if self.start.size == 1:
            k = np.full(x.shape, self.start[0])
            for threshold in self.thresholds[:, 0]:
                k += x >= threshold
            return k
        k = self.start[parent]
        for row in self.thresholds:
            k += x >= row[parent]
        return k


# ---------------------------------------------------------------------------
# classical-Alice rounds


@dataclass
class CaTables:
    """Flattened branch tables for the two-way protocol round walk."""
    emission_cum: np.ndarray     # (E,)
    emission_kind: np.ndarray    # (E,) 0 = x pulse, 1 = z bit 0, 2 = z bit 1
    oloss_off: np.ndarray        # (E+1,)
    oloss_cum: np.ndarray
    oloss_node: np.ndarray       # -> outbound node
    sift_off: np.ndarray         # (O+1,)
    sift_cum: np.ndarray
    sift_readout: np.ndarray     # pattern code of Alice's readout
    sift_next: np.ndarray        # -> residual node
    ctrl_next: np.ndarray        # (O,) -> residual node
    ret_off: np.ndarray          # (R+1,)
    ret_cum: np.ndarray
    ret_next: np.ndarray         # -> returned node
    ret_guess: np.ndarray        # Eve's action guess (-1 none, 0 sift, 1 ctrl)
    ret_evebit: np.ndarray       # bit Eve measured on the way back (-1 none)
    rloss_off: np.ndarray        # (G+1,)
    rloss_cum: np.ndarray
    rloss_node: np.ndarray       # -> measured node
    bobz_off: np.ndarray         # (M+1,)
    bobz_cum: np.ndarray
    bobz_pat: np.ndarray
    bobx_off: np.ndarray
    bobx_cum: np.ndarray
    bobx_pat: np.ndarray
    test_fraction: float
    cross_fraction: float
    cross_enabled: int


@dataclass
class _CaStages:
    emission: Stage
    oloss: Stage
    alice: Stage             # parent 2*outbound + action (0 = CTRL, 1 = SIFT)
    alice_next: np.ndarray   # CTRL residuals, then SIFT residuals
    alice_readout: np.ndarray
    ret: Stage
    rloss: Stage
    bob: Stage               # parent 2*measured + basis (0 = z, 1 = x)
    bob_pat: np.ndarray      # z patterns, then x patterns

    @classmethod
    def build(cls, tab: CaTables) -> "_CaStages":
        outbound = tab.ctrl_next.size
        reflect = Stage(np.arange(outbound, dtype=np.intp),
                        np.empty((0, outbound)))
        return cls(
            emission=Stage.from_rows(np.array([0, tab.emission_cum.size]),
                                     tab.emission_cum),
            oloss=Stage.from_rows(tab.oloss_off, tab.oloss_cum),
            alice=Stage.interleave(
                reflect, Stage.from_rows(tab.sift_off, tab.sift_cum), outbound),
            alice_next=np.concatenate([tab.ctrl_next, tab.sift_next]),
            alice_readout=np.concatenate(
                [np.full(outbound, -1, dtype=np.int8), tab.sift_readout]),
            ret=Stage.from_rows(tab.ret_off, tab.ret_cum),
            rloss=Stage.from_rows(tab.rloss_off, tab.rloss_cum),
            bob=Stage.interleave(Stage.from_rows(tab.bobz_off, tab.bobz_cum),
                                 Stage.from_rows(tab.bobx_off, tab.bobx_cum),
                                 tab.bobz_pat.size),
            bob_pat=np.concatenate([tab.bobz_pat, tab.bobx_pat]))


def _ca_block(tab: CaTables, st: _CaStages, u: np.ndarray, out, s: slice
              ) -> None:
    u = u[s]
    e = st.emission.pick(u[:, 0])
    node = tab.oloss_node[st.oloss.pick(u[:, 1], e)]
    ctrl = u[:, 2] < 0.5
    sift = ~ctrl
    a = st.alice.pick(u[:, 3], 2 * node + sift)
    j = st.ret.pick(u[:, 4], st.alice_next[a])
    measured = tab.rloss_node[st.rloss.pick(u[:, 6], tab.ret_next[j])]

    # x pulses are measured in the basis of Alice's action, optionally
    # swapped for a cross-basis test; the extra z states always in z
    x_pulse = tab.emission_kind[e] == 0
    basis = ctrl.view(np.int8)
    if tab.cross_enabled == 1:
        basis = basis ^ (u[:, 7] < tab.cross_fraction)
    basis = basis & x_pulse
    pattern = st.bob_pat[st.bob.pick(u[:, 8], 2 * measured + basis)]

    out["emit"][s] = e
    out["action"][s] = sift
    out["readout"][s] = st.alice_readout[a]
    out["basis"][s] = basis
    out["pattern"][s] = pattern
    out["test"][s] = (sift & x_pulse & (basis == 0)
                      & (u[:, 9] < tab.test_fraction))
    out["guess"][s] = tab.ret_guess[j]
    out["evebit"][s] = tab.ret_evebit[j]


def simulate_ca(tab: CaTables, u: np.ndarray, jobs: int = 1
                ) -> Dict[str, np.ndarray]:
    n = u.shape[0]
    out = _records(n, ("emit", "action", "readout", "basis", "pattern",
                       "test", "guess", "evebit"), wide=("emit",))
    st = _CaStages.build(tab)
    _walk(lambda lo, hi: _ca_block(tab, st, u, out, slice(lo, hi)), n, jobs)
    return out


# ---------------------------------------------------------------------------
# one-way BB84 rounds


@dataclass
class Bb84Tables:
    pulse_size: np.ndarray       # (N,) photons per pulse, sampled upfront
    forward: np.ndarray          # (N,) 1 where the splitter forwards a photon
    attack: int                  # 1 when the splitting attack is active
    loss_off: np.ndarray         # (3+1,), row per pulse size
    loss_cum: np.ndarray
    loss_m: np.ndarray           # surviving photon count per branch
    meas_off: np.ndarray         # (4+1,), row r = (m-1)*2 + same_basis
    meas_cum: np.ndarray
    meas_pat: np.ndarray         # pattern codes, bit-0 convention


def _bb84_block(tab: Bb84Tables, loss: Stage, meas: Stage, u: np.ndarray,
                out, s: slice) -> None:
    u = u[s]
    bit = u[:, 0] >= 0.5
    basis = u[:, 1] >= 0.5
    if tab.attack == 1:
        fwd = tab.forward[s] == 1
        m = fwd.view(np.int8)
        evebit = np.where(fwd, bit.view(np.int8), np.int8(-1))
    else:
        m = tab.loss_m[loss.pick(u[:, 3], tab.pulse_size[s])]
        evebit = -1
    bob_basis = u[:, 4] >= 0.5
    pattern = np.zeros(m.shape, dtype=np.int8)
    hit = m >= 1
    if hit.any():
        row = (m[hit] - 1) * 2 + (bob_basis[hit] == basis[hit])
        pat = tab.meas_pat[meas.pick(u[hit, 5], row)]
        pattern[hit] = np.where(bit[hit], MIRROR_CODE[pat], pat)
    out["bit"][s] = bit
    out["basis"][s] = basis
    out["bob_basis"][s] = bob_basis
    out["pattern"][s] = pattern
    out["evebit"][s] = evebit


def simulate_bb84(tab: Bb84Tables, u: np.ndarray, jobs: int = 1
                  ) -> Dict[str, np.ndarray]:
    n = u.shape[0]
    out = _records(n, ("bit", "basis", "bob_basis", "pattern", "evebit"))
    loss = Stage.from_rows(tab.loss_off, tab.loss_cum)
    meas = Stage.from_rows(tab.meas_off, tab.meas_cum)
    _walk(lambda lo, hi: _bb84_block(tab, loss, meas, u, out, slice(lo, hi)),
          n, jobs)
    return out


# ---------------------------------------------------------------------------
# two-state (B92-style) rounds


@dataclass
class B92Tables:
    conclusive_p: float          # 1 - overlap^2
    transmission: float
    attack: int                  # 1 when the conclusive intercept is active


def _b92_block(tab: B92Tables, u: np.ndarray, out, s: slice) -> None:
    u = u[s]
    bit = u[:, 0] >= 0.5
    if tab.attack == 1:
        ebasis = u[:, 1] >= 0.5
        arrived = (ebasis != bit) & (u[:, 2] < tab.conclusive_p)
        evebit = np.where(arrived, bit.view(np.int8), np.int8(-1))
    else:
        arrived = u[:, 3] < tab.transmission
        evebit = -1
    bob_basis = np.full(arrived.shape, -1, dtype=np.int8)
    conclusive = np.zeros(arrived.shape, dtype=bool)
    bob_bit = np.full(arrived.shape, -1, dtype=np.int8)
    if arrived.any():
        bb = u[arrived, 4] >= 0.5
        con = (bb != bit[arrived]) & (u[arrived, 5] < tab.conclusive_p)
        bob_basis[arrived] = bb
        conclusive[arrived] = con
        bob_bit[arrived] = np.where(con, (~bb).view(np.int8), np.int8(-1))
    out["bit"][s] = bit
    out["arrived"][s] = arrived
    out["bob_basis"][s] = bob_basis
    out["conclusive"][s] = conclusive
    out["bob_bit"][s] = bob_bit
    out["evebit"][s] = evebit


def simulate_b92(tab: B92Tables, u: np.ndarray, jobs: int = 1
                 ) -> Dict[str, np.ndarray]:
    n = u.shape[0]
    out = _records(n, ("bit", "arrived", "bob_basis", "conclusive",
                       "bob_bit", "evebit"))
    _walk(lambda lo, hi: _b92_block(tab, u, out, slice(lo, hi)), n, jobs)
    return out
