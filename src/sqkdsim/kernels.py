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

A round's outcome is its walk leaf: the walk index left after the last
stage, which names the round's whole path.  Each protocol's chain gives
every record field's value at each leaf, the walk returns the histogram of
leaves, and every round's leaf only when the caller keeps them for a round
log; the protocol layer computes every metric from the histogram, since
each metric is a function of the record fields alone.

Each protocol's round walks one chain of stages, coins included (a coin
is a row that splits in two, branch 0 on a hit).  Every protocol's tree
is laid out path by path: a level gives each path so far a row of its
protocol's tables, a coin or one certain branch, and the path's fields
move to the level's branches.  Each level's branches are the next
level's rows, so the last branch names the round's whole path.  At
set-up, a stage whose rows all have one branch, a constant coin among
them, is folded into the rows of the next stage or into the leaves, so a
block draws only where a stage needs a draw.  A stage whose thresholds
take a few distinct values counts the values a word exceeds, with no
gather; the counts of such stages form one mixed-radix byte per round, by
which the next stage's rows and the leaves are numbered.  BB84 pulses
past the splitter's quota take a blocked twin of their leaf.

Rounds are walked in fixed blocks of ``BLOCK`` rounds: each block draws its
words, walks them to their leaves and adds their histogram, so memory
stays O(BLOCK) per thread whatever the round count; a walk that keeps the
leaves also holds them in the smallest unsigned type that fits, one byte
per round for up to 256 leaves.  ``jobs`` worker threads split the
rounds into contiguous chunks of whole blocks (numpy drops the interpreter
lock inside its loops), each with its own histogram.

Randomness: draw ``(i, j)`` is the ``(i * SLOTS + j)``-th 64-bit word of the
Philox-4x64 stream keyed by the run seed, so round ``i`` owns a fixed
counter block and records do not depend on blocks or worker counts.  The
stream is counter-based, so a chunk starting at round ``lo`` jumps straight
to its first word (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11).  The walk compares raw 64-bit words with integers:
``Generator.random`` would make the uniform ``u = (raw >> 11) * 2**-53``
of a draw ``raw``, and ``round_uniforms`` returns those doubles for
reference walks.  Every probability ``p`` is turned once into the word
threshold ``K = ceil(p * 2**53)`` (``word_thresholds``), so
``raw >> 11 >= K`` exactly when ``u >= p``, and then into the raw threshold
``T = K * 2**11 - 1``, so ``raw > T`` exactly when ``raw >> 11 >= K``.  A
threshold with ``K = 0`` is passed by every word and is counted into its
row's start instead; ``K = 2**53`` gives ``T = 2**64 - 1``, which no word
exceeds, and pads the threshold columns.  A coin ``u < p`` is the row
``[p, 1]``, a constant when ``K`` is 0 or ``2**53``; a fair coin's ``T``
is ``2**63 - 1``, a test of the top bit.  The walk takes the same branches
as one over the uniforms, without shifting or converting any draw.

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

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

SLOTS = 10

#: rounds per block of the walk; temporaries are a few arrays of this length,
#: and a block's (BLOCK, SLOTS) raw words take 1.3 MB
BLOCK = 1 << 14

#: a word keeps the top WORD_BITS bits of a raw 64-bit draw (the draw
#: shifted right by RAW_SHIFT), so every word is below WORD_ONE
WORD_BITS = 53
WORD_ONE = 1 << WORD_BITS
RAW_SHIFT = 64 - WORD_BITS

#: no raw word exceeds it: the raw threshold of K = WORD_ONE, and the padding
#: of threshold columns
RAW_MAX = np.uint64(2 ** 64 - 1)

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
    """The next ``rounds`` rows of raw words: ``raw >> 11`` times ``2**-53``
    is the uniform that ``Generator.random`` makes of the same draw."""
    return bits.random_raw((rounds, SLOTS))


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


def raw_thresholds(K: np.ndarray) -> np.ndarray:
    """Raw thresholds ``T = K * 2**11 - 1`` of word thresholds
    ``0 < K <= 2**53``: a raw word ``r`` has ``r > T`` exactly when
    ``r >> 11 >= K``.  ``K = 2**53`` gives ``RAW_MAX``."""
    # uint64 arrays wrap: 2**53 << 11 is 0, and 0 - 1 is RAW_MAX
    K = np.asarray(K, dtype=np.uint64)
    return (K << np.uint64(RAW_SHIFT)) - np.uint64(1)


def _chunk_ranges(n: int, jobs: int):
    """At most ``jobs`` contiguous chunks of [0, n), each of whole blocks
    except for the ragged end of the last."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    blocks = -(-n // BLOCK)
    jobs = min(jobs, blocks)
    edges = [k * blocks // jobs * BLOCK for k in range(jobs)] + [n]
    return list(zip(edges[:-1], edges[1:]))


#: a walk's leaf per round (None unless kept), rounds per leaf, and each
#: record field's value per leaf
Walk = Tuple[Optional[np.ndarray], np.ndarray, Dict[str, np.ndarray]]


def _walk(block: Callable[[np.ndarray], np.ndarray], seed: int, n: int,
          jobs: int, fields: Dict[str, np.ndarray], keep_codes: bool) -> Walk:
    """Walk rounds [0, n) in pieces of at most BLOCK rounds, split into
    ``jobs`` chunks; ``block(raw)`` maps a piece's raw words to its leaves,
    and ``fields`` holds each record field's value per leaf.

    Returns every round's leaf (None unless ``keep_codes``), the number of
    rounds at each leaf, and ``fields``.
    """
    leaves = next(iter(fields.values())).size
    codes = (np.empty(n, dtype=np.min_scalar_type(leaves - 1))
             if keep_codes else None)

    def worker(lo: int, hi: int) -> np.ndarray:
        bits = _stream(seed, lo)
        counts = np.zeros(leaves, dtype=np.int64)
        for b in range(lo, hi, BLOCK):
            m = min(BLOCK, hi - b)
            # no name holds the words, so they are freed before the next draw
            piece = block(_draw(bits, m))
            if codes is not None:
                codes[b:b + m] = piece
            counts += np.bincount(piece, minlength=leaves)
        return counts

    ranges = _chunk_ranges(n, jobs)
    if not ranges:
        return codes, np.zeros(leaves, dtype=np.int64), fields
    if len(ranges) == 1:
        return codes, worker(*ranges[0]), fields
    # imported here: it imports logging, which a one-chunk walk never needs
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        return codes, sum(pool.map(lambda r: worker(*r), ranges)), fields


@dataclass
class Stage:
    """One categorical stage as a threshold matrix over raw words.

    A round at parent ``p`` with raw word ``x`` takes branch
    ``start[p] + #{j : x > thresholds[j, p]}``.  Column ``p`` holds the raw
    thresholds of all but the last cumulative value of row ``p``, padded
    with ``RAW_MAX``, which no word exceeds; a value that every word passes
    (word threshold 0) is counted into ``start[p]`` instead.  A stage of
    depth 0 needs no draw: each parent's branch is its start.
    """
    start: np.ndarray        # (parents,) intp
    thresholds: np.ndarray   # (depth, parents) uint64
    branches: int            # branches over all rows

    @classmethod
    def from_rows(cls, off: np.ndarray, cum: np.ndarray) -> "Stage":
        start = np.asarray(off[:-1], dtype=np.intp)
        widths = np.diff(off)
        depth = int(widths.max(initial=1)) - 1
        p = np.full((depth, start.size), np.inf)
        for j in range(depth):
            has = widths - 1 > j
            p[j, has] = cum[start[has] + j]
        K = word_thresholds(p)
        passed = K == 0
        K[passed] = WORD_ONE
        return cls(start + passed.sum(axis=0), raw_thresholds(K),
                   int(off[-1]))

    def columns(self, parents: np.ndarray) -> "Stage":
        """The stage whose row ``i`` is this stage's row ``parents[i]``,
        with each column's thresholds sorted and the rows that no word can
        pass dropped."""
        thresholds = np.sort(self.thresholds[:, parents], axis=0)
        keep = (thresholds < RAW_MAX).any(axis=1)
        return Stage(self.start[parents], thresholds[keep], self.branches)

    def pick(self, x: np.ndarray, parent: Optional[np.ndarray] = None
             ) -> np.ndarray:
        """Branch index of each raw word in ``x`` at its parent row; a stage
        with one row ignores ``parent``."""
        if self.start.size == 1:
            k = np.full(x.shape, self.start[0])
            for threshold in self.thresholds[:, 0]:
                k += x > threshold
            return k
        k = self.start.take(parent)
        for row in self.thresholds:
            k += x > row.take(parent)
        return k


def _chain(steps):
    """The draws of a walk of ``(slot, stage)`` steps, and the path of each
    walk index.

    Each stage's rows are the branches of the stage before it, and the
    first stage has one row.  A block keeps one walk index per round, and
    the index left after the last step is the round's leaf.  A stage of
    depth 0 needs no draw: it is folded into the rows of the next stage, or
    into the leaves.  A stage whose thresholds take few distinct values
    (its levels) counts the levels a word passes, with no gather: the walk
    index becomes ``index * (levels + 1) + count``, a mixed-radix number
    small enough for one byte.  Any other stage gathers its thresholds by
    the walk index, which becomes the branch.  Returns the steps that draw,
    and the last stage's branch at each leaf.
    """
    plan = []
    branch = np.zeros(1, dtype=np.intp)   # the branch at each walk index
    for slot, stage in steps:
        stage = stage.columns(branch)
        depth = stage.thresholds.shape[0]
        if depth == 0:
            branch = stage.start
            continue
        # distinct thresholds by sort, as np.unique would import numpy.ma
        levels = np.sort(stage.thresholds[stage.thresholds < RAW_MAX])
        levels = levels[np.diff(levels, prepend=RAW_MAX) != 0]
        # a gathered row costs a gather, a compare and an add per round, a
        # counted level one compare and a byte add
        if levels.size <= 3 * depth and branch.size * (levels.size + 1) < 256:
            passed = (stage.thresholds[:, :, None] <= levels).sum(axis=0)
            branch = (stage.start[:, None]
                      + np.pad(passed, ((0, 0), (1, 0)))).ravel()
            plan.append((slot, levels))
        else:
            plan.append((slot, stage))
            branch = np.arange(stage.branches)
    return plan, branch


def _leaves(steps, **fields: np.ndarray):
    """The draws of a walk of ``steps`` (see ``_chain``), and each record
    field of ``fields``, given per path, at each leaf."""
    plan, path = _chain(steps)
    return plan, {name: values[path] for name, values in fields.items()}


def _walk_chain(plan, raw: np.ndarray) -> np.ndarray:
    """Leaves of one block: the draws of ``plan``."""
    k = np.zeros(raw.shape[0], dtype=np.uint8)
    for slot, step in plan:
        x = raw[:, slot]
        if isinstance(step, Stage):
            k = step.pick(x, k.astype(np.intp, copy=False))
        else:
            k *= step.size + 1
            for level in step:
                k += x > level
    return k


# ---------------------------------------------------------------------------
# branch trees laid out path by path


def _coin(p: float) -> Tuple[np.ndarray, np.ndarray]:
    """Offsets and cumulative values of a coin ``u < p`` (row 0: hit on
    branch 0, miss on 1) and of one certain branch (row 1: branch 2)."""
    return np.array([0, 2, 3]), np.array([p, 1.0, 1.0])


def _split(f: Dict[str, np.ndarray], off: np.ndarray, cum: np.ndarray, rows,
           **payload) -> Stage:
    """The level that gives each path its row ``rows`` of ``(off, cum)``,
    copied as it is.  ``f``, each field's value per path, moves to the
    level's branches and gains ``payload``, fields by table branch."""
    rows = np.broadcast_to(np.asarray(rows, dtype=np.intp),
                           max((v.size for v in f.values()), default=1))
    widths = np.diff(off)[rows]
    parent = np.repeat(np.arange(rows.size), widths)
    first = np.cumsum(widths) - widths
    taken = (off[rows] - first)[parent] + np.arange(parent.size)
    f.update({name: values[parent] for name, values in f.items()})
    f.update({name: np.asarray(v)[taken] for name, v in payload.items()})
    return Stage.from_rows(np.append(first, parent.size), cum[taken])


# ---------------------------------------------------------------------------
# classical-Alice rounds


@dataclass
class CaTables:
    """Flattened branch tables for the two-way protocol round walk.

    Each level has a row per node and a branch per node of the next level:
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
    ret_guess: np.ndarray        # Eve's action guess (-1 none, 0 sift, 1 ctrl)
    ret_evebit: np.ndarray       # bit Eve measured on the way back (-1 none)
    rloss_off: np.ndarray        # (G+1,) -> M measured nodes
    rloss_cum: np.ndarray
    bob_off: np.ndarray          # (2M+1,)
    bob_cum: np.ndarray
    bob_pat: np.ndarray
    test_fraction: float
    cross_fraction: float        # 0.0 when cross-basis tests are off


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
    steps.append((7, _split(f, *_coin(tab.cross_fraction), 0,
                            cross=[1, 0, 0])))
    f["basis"] = (f["action"] ^ f["cross"] ^ 1) & (f["kind"] == 0)
    steps.append((8, _split(f, tab.bob_off, tab.bob_cum,
                            f["measured"] + measured * f["basis"],
                            pattern=tab.bob_pat)))
    steps.append((9, _split(f, *_coin(tab.test_fraction), 0, test=[1, 0, 0])))
    # readout is -1 on CTRL rounds
    return _leaves(
        steps, emit=f["emit"], action=f["action"], readout=f["readout"],
        basis=f["basis"], pattern=f["pattern"],
        test=f["test"] & f["action"] & (f["basis"] == 0) & (f["kind"] == 0),
        guess=f["guess"], evebit=f["evebit"])


def simulate_ca(tab: CaTables, seed: int, rounds: int, jobs: int = 1,
                keep_codes: bool = False) -> Walk:
    """Leaves of ``rounds`` two-way rounds, or None unless ``keep_codes``,
    their histogram and the record fields per leaf."""
    plan, fields = _ca_chain(tab)
    return _walk(lambda raw: _walk_chain(plan, raw), seed, rounds, jobs,
                 fields, keep_codes)


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


def _bb84_chain(tab: Bb84Tables):
    """The BB84 walk's draws and record fields per leaf: the pulse size,
    the fair coins, the photons that reach Bob and his pattern (no click
    when none does).  The splitter draws no loss: the leaf forwards one
    photon of every two-photon pulse and gives Eve the bit."""
    f: Dict[str, np.ndarray] = {}
    steps = [(2, _split(f, np.array([0, 3]), tab.size_cum, 0,
                        size=np.arange(3)))]
    for slot, field in ((0, "bit"), (1, "basis"), (4, "bob_basis")):
        steps.append((slot, _split(f, *_coin(0.5), 0, **{field: [0, 1, 0]})))
    if tab.attack == 1:
        f["m"] = f["forwarded"] = (f["size"] == 2).astype(np.int8)
    else:
        steps.append((3, _split(f, tab.loss_off, tab.loss_cum, f["size"],
                                m=tab.loss_m)))
        f["forwarded"] = np.zeros_like(f["m"])
    rows = (f["m"] - 1) * 2 + (f["bob_basis"] == f["basis"])
    steps.append((5, _split(
        f, np.append(tab.meas_off, tab.meas_off[-1] + 1),
        np.append(tab.meas_cum, 1.0),
        np.where(f["m"] > 0, rows, tab.meas_off.size - 1),
        pattern=np.append(tab.meas_pat, 0))))
    return _leaves(
        steps, bit=f["bit"], basis=f["basis"], pulse_size=f["size"],
        forwarded=f["forwarded"], bob_basis=f["bob_basis"],
        pattern=np.where(f["bit"] == 1, MIRROR_CODE[f["pattern"]],
                         f["pattern"]),
        evebit=np.where(f["forwarded"] == 1, f["bit"], -1))


def simulate_bb84(tab: Bb84Tables, seed: int, rounds: int, jobs: int = 1,
                  keep_codes: bool = False) -> Walk:
    """Leaves of ``rounds`` BB84 rounds, or None unless ``keep_codes``,
    their histogram and the record fields per leaf.  The splitter forwards
    the first ``quota`` two-photon pulses of the run, so under the attack
    the rounds are walked in one chunk, in order, and later ones are
    blocked: each forwarded leaf has a twin appended to the leaves, with
    nothing forwarded, no click and no bit for Eve."""
    plan, fields = _bb84_chain(tab)
    if tab.attack != 1:
        return _walk(lambda raw: _walk_chain(plan, raw), seed, rounds, jobs,
                     fields, keep_codes)
    forwarded = fields["forwarded"] == 1
    twins = np.flatnonzero(forwarded)
    blocked = np.arange(forwarded.size)
    blocked[twins] = forwarded.size + np.arange(twins.size)
    fields = {name: np.append(values, values[twins])
              for name, values in fields.items()}
    for name, value in (("forwarded", 0), ("pattern", 0), ("evebit", -1)):
        fields[name][forwarded.size:] = value
    taken = 0

    def block(raw: np.ndarray) -> np.ndarray:
        nonlocal taken
        leaf = _walk_chain(plan, raw)
        if taken >= tab.quota:
            return blocked.take(leaf)
        two = forwarded.take(leaf)
        order = taken + np.cumsum(two)
        taken = int(order[-1])
        return np.where(two & (order > tab.quota), blocked.take(leaf), leaf)

    return _walk(block, seed, rounds, 1, fields, keep_codes)


# ---------------------------------------------------------------------------
# two-state (B92-style) rounds


@dataclass
class B92Tables:
    conclusive_p: float          # 1 - overlap^2
    transmission: float
    attack: int                  # 1 when the conclusive intercept is active


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
    return _leaves(
        steps, bit=f["bit"], arrived=f["arrived"], bob_basis=f["bob_basis"],
        conclusive=f["conclusive"],
        bob_bit=np.where(f["conclusive"] == 1, 1 - f["bob_basis"], -1),
        evebit=np.where(f["arrived"] * tab.attack == 1, f["bit"], -1))


def simulate_b92(tab: B92Tables, seed: int, rounds: int, jobs: int = 1,
                 keep_codes: bool = False) -> Walk:
    """Leaves of ``rounds`` B92 rounds, or None unless ``keep_codes``,
    their histogram and the record fields per leaf."""
    plan, fields = _b92_chain(tab)
    return _walk(lambda raw: _walk_chain(plan, raw), seed, rounds, jobs,
                 fields, keep_codes)
