"""Monte-Carlo round engine: a vectorized walk over flat branch tables.

The protocol layer reduces one round to a fixed sequence of categorical
draws over precomputed tables (emission, outbound loss, Alice's action and
branch, Eve's return behaviour, return loss, Bob's detector pattern).  A
stage holds one row per parent node with the cumulative probabilities of
its branches; a round with uniform ``x`` takes the first branch whose
cumulative value exceeds ``x``, or the row's last branch.  The branch it
takes is its parent row at the next stage (see ``CaTables``), so a walk
is a chain of picks with no index maps between them.

Rows are non-decreasing, so that branch is the row start plus the number
of the row's thresholds that ``x`` has passed.  Each stage is therefore
walked as a threshold matrix, one column per parent padded with a value
no draw reaches: a pick over a whole block of rounds is a few
gather-compare-add passes, with no per-parent masks and no sorting.

A round's outcome is one record tuple (its fields per protocol are listed
by the ``CodeSpace`` of that protocol), packed into one mixed-radix
``int16`` record code.  The walk returns the histogram of codes, and
every round's code only when the caller keeps them for a round log; the
protocol layer computes every metric from the histogram, since each metric
is a function of the record tuple alone.  A BB84 round's code is one
gather from ``BB84_BASE`` by its bit, basis, pulse size and Bob's basis;
only the rounds that reach Bob add their pattern and Eve's terms.

Rounds are walked in fixed blocks of ``BLOCK`` rounds: each block draws its
words, walks them, packs its codes and adds their histogram, so memory
stays O(BLOCK) per thread whatever the round count; a walk that keeps the
codes also holds 2 bytes per round.  ``jobs`` worker threads split the
rounds into contiguous chunks of whole blocks (numpy drops the interpreter
lock inside its loops), each with its own histogram.

Randomness: draw ``(i, j)`` is the ``(i * SLOTS + j)``-th 64-bit word of the
Philox-4x64 stream keyed by the run seed, so round ``i`` owns a fixed
counter block and records do not depend on blocks or worker counts.  The
stream is counter-based, so a chunk starting at round ``lo`` jumps straight
to its first word (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11).  The walk keeps each draw's top 53 bits, the word ``k``;
``Generator.random`` would make the uniform ``u = k * 2**-53`` of the same
draw, which ``round_uniforms`` returns for reference walks.  Every
probability a stage compares with is turned once into the word threshold
``K = ceil(p * 2**53)`` (``word_thresholds``), so ``k >= K`` exactly when
``u >= p`` and ``k < K`` exactly when ``u < p``: the walk takes the same
branches as a walk over the uniforms, with integer compares and no
conversion to doubles.

Slots, the stage that reads each draw of a round (``-``: unused):

=====  ==========================  ======================  ====================
slot   two-way                     BB84                    B92
=====  ==========================  ======================  ====================
0      emission                    Alice's bit             Alice's bit
1      outbound loss               Alice's basis           Eve's basis (attack)
2      CTRL or SIFT                pulse size              Eve's conclusive
                                                           result (attack)
3      Alice's SIFT branch         loss (no attack)        loss (no attack)
4      Eve's return                Bob's basis             Bob's basis
5      -                           Bob's detector          Bob's conclusive
                                                           result
6      return loss                 -                       -
7      cross-basis test            -                       -
8      Bob's detector              -                       -
9      test round                  -                       -
=====  ==========================  ======================  ====================
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

SLOTS = 10

#: rounds per block of the walk; temporaries are a few arrays of this length,
#: and a block's (BLOCK, SLOTS) words take 1.3 MB
BLOCK = 1 << 14

#: a word keeps the top WORD_BITS bits of a raw 64-bit draw, so every word
#: is below WORD_ONE
WORD_BITS = 53
WORD_ONE = 1 << WORD_BITS

#: pattern codes mirrored across the two modes, code = 3*first + second
MIRROR_CODE = np.array([3 * (c % 3) + c // 3 for c in range(9)], dtype=np.int8)


def _stream(seed: int, lo: int) -> np.random.Philox:
    """Bit generator whose next word is round ``lo``'s first."""
    bits = np.random.Philox(key=np.uint64(int(seed) % 2 ** 64))
    # one Philox-4x64 counter step yields four words
    bits.advance(SLOTS * lo // 4)
    bits.random_raw(SLOTS * lo % 4)
    return bits


def _draw(bits: np.random.Philox, rounds: int) -> np.ndarray:
    """The next ``rounds`` rows of 53-bit words: word ``k`` is the uniform
    ``k * 2**-53`` that ``Generator.random`` makes of the same draw."""
    words = bits.random_raw((rounds, SLOTS))
    words >>= np.uint64(64 - WORD_BITS)
    return words


def round_uniforms(seed: int, lo: int, hi: int) -> np.ndarray:
    """Uniforms of rounds [lo, hi); row i - lo is round i's private stream."""
    return np.random.Generator(_stream(seed, lo)).random((hi - lo, SLOTS))


def word_thresholds(p) -> np.ndarray:
    """Word thresholds ``K`` of probabilities ``p``: a word ``k`` has
    ``k >= K`` exactly when ``k * 2**-53 >= p``, and ``k < K`` when it is
    below ``p``.  ``p`` outside [0, 1], ``+inf`` included, is clipped."""
    p = np.asarray(p, dtype=float)
    if np.isnan(p).any():
        raise ValueError("a branch probability is NaN")
    # scaling by a power of two is exact, and so is the ceiling
    return np.ceil(np.clip(p, 0.0, 1.0) * WORD_ONE).astype(np.uint64)


#: word threshold of the fair coins
HALF = word_thresholds(0.5)[()]


@dataclass(frozen=True)
class CodeSpace:
    """Mixed-radix record codes.

    Field ``k`` takes the values ``low[k]`` .. ``low[k] + radix[k] - 1``;
    the last field varies fastest.
    """
    fields: Tuple[str, ...]
    radix: Tuple[int, ...]
    low: Tuple[int, ...]

    @property
    def size(self) -> int:
        return math.prod(self.radix)

    def stride(self, field: str) -> int:
        return math.prod(self.radix[self.fields.index(field) + 1:])

    def pack(self, *values) -> np.ndarray:
        """Codes of per-round field values (arrays or scalars), in field order."""
        code = np.int16(0)
        for value, radix, low in zip(values, self.radix, self.low):
            code = code * np.int16(radix) + np.subtract(value, low,
                                                        dtype=np.int16)
        return code

    def decode(self) -> Dict[str, np.ndarray]:
        """Every field's value at each code 0 .. size - 1."""
        digits = np.indices(self.radix, dtype=np.int16).reshape(
            len(self.radix), self.size)
        return {field: digit + low for field, digit, low in
                zip(self.fields, digits, self.low)}


def ca_space(emissions: int) -> CodeSpace:
    """Two-way records; ``readout`` is -1 on CTRL rounds."""
    return CodeSpace(
        ("emit", "action", "readout", "basis", "pattern", "test", "guess",
         "evebit"),
        (emissions, 2, 10, 2, 9, 2, 3, 3),
        (0, 0, -1, 0, 0, 0, -1, -1))


BB84_SPACE = CodeSpace(
    ("bit", "basis", "pulse_size", "forwarded", "bob_basis", "pattern",
     "evebit"),
    (2, 2, 3, 2, 2, 9, 3),
    (0, 0, 0, 0, 0, 0, -1))

B92_SPACE = CodeSpace(
    ("bit", "arrived", "bob_basis", "conclusive", "bob_bit", "evebit"),
    (2, 2, 3, 2, 3, 3),
    (0, 0, -1, 0, -1, -1))


def _chunk_ranges(n: int, jobs: int):
    """At most ``jobs`` contiguous chunks of [0, n), each of whole blocks
    except for the ragged end of the last."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    blocks = -(-n // BLOCK)
    jobs = min(jobs, blocks)
    edges = [k * blocks // jobs * BLOCK for k in range(jobs)] + [n]
    return list(zip(edges[:-1], edges[1:]))


def _walk(block: Callable[[np.ndarray], np.ndarray], seed: int, n: int,
          jobs: int, size: int, keep_codes: bool
          ) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Walk rounds [0, n) in pieces of at most BLOCK rounds, split into
    ``jobs`` chunks; ``block(k)`` maps a piece's words to its codes.

    Returns every round's code (None unless ``keep_codes``) and the number
    of rounds at each code.
    """
    codes = np.empty(n, dtype=np.int16) if keep_codes else None

    def worker(lo: int, hi: int) -> np.ndarray:
        bits = _stream(seed, lo)
        counts = np.zeros(size, dtype=np.int64)
        for b in range(lo, hi, BLOCK):
            m = min(BLOCK, hi - b)
            # no name holds the words, so they are freed before the next draw
            piece = block(_draw(bits, m))
            if codes is not None:
                codes[b:b + m] = piece
            counts += np.bincount(piece, minlength=size)
        return counts

    ranges = _chunk_ranges(n, jobs)
    if len(ranges) == 1:
        return codes, worker(*ranges[0])
    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        return codes, sum(pool.map(lambda r: worker(*r), ranges))


@dataclass
class Stage:
    """One categorical stage as a threshold matrix.

    A round at parent ``p`` with word ``x`` takes branch
    ``start[p] + #{j : x >= thresholds[j, p]}``.  Column ``p`` holds the
    word thresholds of all but the last cumulative value of row ``p``,
    padded with ``WORD_ONE``, which no word reaches.
    """
    start: np.ndarray        # (parents,) index of each row's first branch
    thresholds: np.ndarray   # (max row width - 1, parents) uint64

    @classmethod
    def from_rows(cls, off: np.ndarray, cum: np.ndarray) -> "Stage":
        start = np.asarray(off[:-1], dtype=np.intp)
        widths = np.diff(off)
        depth = int(widths.max(initial=1)) - 1
        thresholds = np.full((depth, start.size), np.inf)
        for j in range(depth):
            has = widths - 1 > j
            thresholds[j, has] = cum[start[has] + j]
        return cls(start, word_thresholds(thresholds))

    @classmethod
    def interleave(cls, even: "Stage", odd: "Stage", odd_shift: int) -> "Stage":
        """Parent ``2p`` is ``even``'s row ``p``, ``2p + 1`` is ``odd``'s,
        whose branch indices move up by ``odd_shift``."""
        parents = even.start.size
        depth = max(even.thresholds.shape[0], odd.thresholds.shape[0])
        thresholds = np.full((depth, 2 * parents), WORD_ONE, dtype=np.uint64)
        thresholds[:even.thresholds.shape[0], 0::2] = even.thresholds
        thresholds[:odd.thresholds.shape[0], 1::2] = odd.thresholds
        start = np.empty(2 * parents, dtype=np.intp)
        start[0::2] = even.start
        start[1::2] = odd.start + odd_shift
        return cls(start, thresholds)

    def pick(self, x: np.ndarray, parent: Optional[np.ndarray] = None
             ) -> np.ndarray:
        """Branch index of each word in ``x`` at its parent row; a stage
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
    """Flattened branch tables for the two-way protocol round walk.

    Each level has a row per node and a branch per node of the next level:
    branch ``i`` of a level is node ``i`` of the next, so a round's branch
    index is its parent row one level down.  The exceptions are Alice's
    residual nodes (the rows of ``ret``): the ``O`` outbound nodes,
    reflected on CTRL, then the SIFT branches, so SIFT branch ``k`` is
    residual node ``O + k``.  Bob's two bases share the measured nodes.
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
    ret_guess: np.ndarray        # Eve's action guess (-1 none, 0 sift, 1 ctrl)
    ret_evebit: np.ndarray       # bit Eve measured on the way back (-1 none)
    rloss_off: np.ndarray        # (G+1,) -> M measured nodes
    rloss_cum: np.ndarray
    bobz_off: np.ndarray         # (M+1,)
    bobz_cum: np.ndarray
    bobz_pat: np.ndarray
    bobx_off: np.ndarray         # (M+1,)
    bobx_cum: np.ndarray
    bobx_pat: np.ndarray
    test_fraction: float
    cross_fraction: float        # 0.0 when cross-basis tests are off


@dataclass
class _CaStages:
    """The stages of the two-way walk, and each branch's share of the
    record code: a round's code is the sum of the shares of its emission,
    Alice, return and Bob branches, plus ``test_code`` on test rounds."""
    emission: Stage
    oloss: Stage
    alice: Stage             # parent 2*outbound + action (0 = CTRL, 1 = SIFT);
                             # its branches are the residual nodes
    ret: Stage
    rloss: Stage
    bob: Stage               # parent 2*measured + basis (0 = z, 1 = x)
    emit_code: np.ndarray    # emission
    alice_code: np.ndarray   # action and readout
    ret_code: np.ndarray     # guess and evebit
    bob_code: np.ndarray     # basis and pattern
    test_code: np.int16
    cross_threshold: np.uint64   # word thresholds of cross_fraction
    test_threshold: np.uint64    # and of test_fraction

    @classmethod
    def build(cls, tab: CaTables) -> "_CaStages":
        outbound = tab.oloss_cum.size
        space = ca_space(tab.emission_cum.size)

        def code(**parts) -> np.ndarray:
            return sum(np.asarray(v, dtype=np.int64) * space.stride(f)
                       for f, v in parts.items()).astype(np.int16)

        reflect = Stage(np.arange(outbound, dtype=np.intp),
                        np.empty((0, outbound)))
        bob_pat = np.concatenate([tab.bobz_pat, tab.bobx_pat])
        return cls(
            emission=Stage.from_rows(np.array([0, tab.emission_cum.size]),
                                     tab.emission_cum),
            oloss=Stage.from_rows(tab.oloss_off, tab.oloss_cum),
            alice=Stage.interleave(
                reflect, Stage.from_rows(tab.sift_off, tab.sift_cum), outbound),
            ret=Stage.from_rows(tab.ret_off, tab.ret_cum),
            rloss=Stage.from_rows(tab.rloss_off, tab.rloss_cum),
            bob=Stage.interleave(Stage.from_rows(tab.bobz_off, tab.bobz_cum),
                                 Stage.from_rows(tab.bobx_off, tab.bobx_cum),
                                 tab.bobz_pat.size),
            emit_code=code(emit=np.arange(tab.emission_cum.size)),
            alice_code=code(
                action=np.repeat([0, 1], [outbound, tab.sift_readout.size]),
                readout=np.concatenate([np.zeros(outbound),
                                        tab.sift_readout + 1])),
            ret_code=code(guess=tab.ret_guess + 1, evebit=tab.ret_evebit + 1),
            bob_code=code(basis=np.arange(bob_pat.size) >= tab.bobz_pat.size,
                          pattern=bob_pat),
            test_code=np.int16(space.stride("test")),
            cross_threshold=word_thresholds(tab.cross_fraction)[()],
            test_threshold=word_thresholds(tab.test_fraction)[()])


def _ca_block(tab: CaTables, st: _CaStages, k: np.ndarray) -> np.ndarray:
    e = st.emission.pick(k[:, 0])
    node = st.oloss.pick(k[:, 1], e)
    ctrl = k[:, 2] < HALF
    sift = ~ctrl
    a = st.alice.pick(k[:, 3], 2 * node + sift)
    j = st.ret.pick(k[:, 4], a)
    measured = st.rloss.pick(k[:, 6], j)

    # x pulses are measured in the basis of Alice's action, swapped for a
    # cross-basis test; the extra z states always in z
    x_pulse = tab.emission_kind[e] == 0
    basis = (ctrl ^ (k[:, 7] < st.cross_threshold)) & x_pulse
    b = st.bob.pick(k[:, 8], 2 * measured + basis)
    test = sift & x_pulse & (basis == 0) & (k[:, 9] < st.test_threshold)

    code = st.emit_code[e] + st.alice_code[a]
    code += st.ret_code[j]
    code += st.bob_code[b]
    code += test * st.test_code
    return code


def simulate_ca(tab: CaTables, seed: int, rounds: int, jobs: int = 1,
                keep_codes: bool = False
                ) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Record codes (``ca_space``) of ``rounds`` two-way rounds, or None
    unless ``keep_codes``, and their histogram."""
    st = _CaStages.build(tab)
    return _walk(lambda k: _ca_block(tab, st, k), seed, rounds, jobs,
                 ca_space(tab.emission_cum.size).size, keep_codes)


# ---------------------------------------------------------------------------
# one-way BB84 rounds


@dataclass
class Bb84Tables:
    size_cum: np.ndarray         # (3,) cumulative pulse-size probabilities
    attack: int                  # 1 when the splitting attack is active
    quota: int                   # two-photon pulses the splitter forwards
    loss_off: np.ndarray         # (3+1,), row per pulse size
    loss_cum: np.ndarray
    loss_m: np.ndarray           # surviving photon count per branch
    meas_off: np.ndarray         # (4+1,), row r = (m-1)*2 + same_basis
    meas_cum: np.ndarray
    meas_pat: np.ndarray         # pattern codes, bit-0 convention


def _bb84_base() -> np.ndarray:
    """Code of each round key ((pulse_size*2 + bit)*2 + basis)*2 +
    bob_basis, for a round with nothing forwarded, no click and no bit for
    Eve."""
    size, bit, basis, bob_basis = np.indices((3, 2, 2, 2)).reshape(4, -1)
    return BB84_SPACE.pack(bit, basis, size, 0, bob_basis, 0, -1)


BB84_BASE = _bb84_base()


def _bb84_block(tab: Bb84Tables, size: Stage, loss: Stage, meas: Stage,
                k: np.ndarray, taken: int) -> Tuple[np.ndarray, int]:
    """Codes of one block, and the two-photon pulses taken so far: the
    splitter forwards the first ``quota`` two-photon pulses of the run.

    A round's code is its key's entry of ``BB84_BASE``; only the rounds
    with a photon left for Bob add their pattern and, under the attack,
    the forwarded flag and Eve's bit."""
    bit = k[:, 0] >= HALF
    basis = k[:, 1] >= HALF
    pulse_size = size.pick(k[:, 2])
    bob_basis = k[:, 4] >= HALF
    key = pulse_size << 1
    key |= bit
    key <<= 1
    key |= basis
    key <<= 1
    key |= bob_basis
    code = BB84_BASE[key]
    if tab.attack == 1:
        # the splitter forwards one photon of each pulse it takes and keeps
        # the bit of the other
        hit = np.empty(0, dtype=np.intp)
        if taken < tab.quota:
            two = pulse_size == 2
            order = taken + np.cumsum(two)
            hit = np.flatnonzero(two & (order <= tab.quota))
            taken = int(order[-1])
        m, fwd, evebit = 1, 1, bit[hit]
    else:
        m = tab.loss_m[loss.pick(k[:, 3], pulse_size)]
        hit = np.flatnonzero(m)
        m, fwd, evebit = m[hit], 0, -1
    if hit.size:
        row = (m - 1) * 2 + (bob_basis[hit] == basis[hit])
        pat = tab.meas_pat[meas.pick(k[hit, 5], row)]
        pattern = np.where(bit[hit], MIRROR_CODE[pat], pat)
        code[hit] += BB84_SPACE.pack(0, 0, 0, fwd, 0, pattern, evebit)
    return code, taken


def simulate_bb84(tab: Bb84Tables, seed: int, rounds: int, jobs: int = 1,
                  keep_codes: bool = False
                  ) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Record codes (``BB84_SPACE``) of ``rounds`` BB84 rounds, or None
    unless ``keep_codes``, and their histogram.  The splitting quota is a
    running count over the rounds, so under the attack the rounds are
    walked in one chunk, in order."""
    size = Stage.from_rows(np.array([0, tab.size_cum.size]), tab.size_cum)
    loss = Stage.from_rows(tab.loss_off, tab.loss_cum)
    meas = Stage.from_rows(tab.meas_off, tab.meas_cum)
    taken = 0

    def block(k: np.ndarray) -> np.ndarray:
        nonlocal taken
        code, taken = _bb84_block(tab, size, loss, meas, k, taken)
        return code

    return _walk(block, seed, rounds, 1 if tab.attack == 1 else jobs,
                 BB84_SPACE.size, keep_codes)


# ---------------------------------------------------------------------------
# two-state (B92-style) rounds


@dataclass
class B92Tables:
    conclusive_p: float          # 1 - overlap^2
    transmission: float
    attack: int                  # 1 when the conclusive intercept is active


def _b92_block(tab: B92Tables, conclusive_threshold: np.uint64,
               transmission_threshold: np.uint64, k: np.ndarray) -> np.ndarray:
    """Codes of one block, given the word thresholds of the table's
    ``conclusive_p`` and ``transmission``."""
    bit = k[:, 0] >= HALF
    if tab.attack == 1:
        ebasis = k[:, 1] >= HALF
        arrived = (ebasis != bit) & (k[:, 2] < conclusive_threshold)
        evebit = np.where(arrived, bit.view(np.int8), np.int8(-1))
    else:
        arrived = k[:, 3] < transmission_threshold
        evebit = -1
    bob_basis = np.full(arrived.shape, -1, dtype=np.int8)
    conclusive = np.zeros(arrived.shape, dtype=bool)
    bob_bit = np.full(arrived.shape, -1, dtype=np.int8)
    if arrived.any():
        bb = k[arrived, 4] >= HALF
        con = (bb != bit[arrived]) & (k[arrived, 5] < conclusive_threshold)
        bob_basis[arrived] = bb
        conclusive[arrived] = con
        bob_bit[arrived] = np.where(con, (~bb).view(np.int8), np.int8(-1))
    return B92_SPACE.pack(bit, arrived, bob_basis, conclusive, bob_bit, evebit)


def simulate_b92(tab: B92Tables, seed: int, rounds: int, jobs: int = 1,
                 keep_codes: bool = False
                 ) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Record codes (``B92_SPACE``) of ``rounds`` B92 rounds, or None
    unless ``keep_codes``, and their histogram."""
    thresholds = word_thresholds([tab.conclusive_p, tab.transmission])
    return _walk(lambda k: _b92_block(tab, *thresholds, k), seed, rounds,
                 jobs, B92_SPACE.size, keep_codes)
