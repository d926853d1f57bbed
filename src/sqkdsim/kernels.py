"""Monte-Carlo plan walker: a vectorized walk of rounds down a chain of
categorical stages.

A caller lays out one round as a chain of ``(slot, level)`` steps.  A
level is its float rows ``(off, cum)``: one row per parent with the
cumulative probabilities of its branches.  It reads the round's draw
``slot``; a round with uniform ``x`` takes the first branch whose
cumulative value exceeds ``x``, or the row's last branch.  The branch it
takes is its parent row at the next level, so a walk is a chain of picks
with no index maps between them.  ``_split`` lays out such a chain path by
path: a level gives each path so far a row of a table, a coin (``_coin``;
branch 0 on a hit) or one certain branch, and the path's fields move to
the level's branches.

Rows are non-decreasing, so that branch is the row start plus the number
of the row's thresholds that ``x`` has passed.  Each level is therefore
walked as a stage, a threshold matrix with one column per parent padded
with a value no draw reaches: a pick over a whole block of rounds is a few
gather-compare-add passes, with no per-parent masks and no sorting.

At set-up ``_chain`` alone compiles the levels into stages, for the rows
a walk can reach, and folds a stage whose rows all have one branch, a
constant coin among them, into the rows of the next stage or into the
leaves, so a block draws only where a stage needs a draw.  A stage whose
thresholds take a few distinct values counts the values a word exceeds,
with no gather; the counts of such stages form one mixed-radix byte per
round, by which the next stage's rows and the leaves are numbered.  A
round's outcome is its leaf: the walk index left after the last step,
which names the round's whole path, and ``_chain`` gives each path
field's value at each leaf.

Rounds are walked in fixed blocks of ``BLOCK`` rounds on ``jobs``
threads, the calling thread among them, each running the same loop:
thread ``t`` draws blocks ``t``, ``t + jobs``, ..., walks each to its
leaves (numpy drops the interpreter lock inside its loops), keeps them if
asked and adds their histogram to its own row of counts.
No thread waits for another; the caller joins them.  A walk may start at
any round, so BB84's splitting quota walks spans in round order.  A
thread holds one block at a time, so memory stays O(jobs * BLOCK) whatever
the round count; kept leaves take the smallest unsigned type that fits,
one byte per round up to 256 leaves.

Randomness: draw ``(i, j)`` is the ``(i * SLOTS + j)``-th 64-bit word of the
Philox-4x64 stream keyed by the run seed, so round ``i`` owns a fixed
counter block and records do not depend on blocks or thread counts.  The
stream is counter-based (Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC'11), so each block builds its own stream at its first
round's counter step, and its words depend only on the seed and that
round.  The walk compares raw 64-bit words with integers:
``Generator.random`` would make the uniform ``u = (raw >> 11) * 2**-53``
of a draw ``raw``, and ``round_uniforms`` returns those doubles for
reference walks.  ``_chain`` turns every probability ``p`` once into the
word threshold ``K = ceil(p * 2**53)`` (``word_thresholds``), so
``raw >> 11 >= K`` exactly when ``u >= p``, and then into the raw threshold
``T = K * 2**11 - 1``, so ``raw > T`` exactly when ``raw >> 11 >= K``.  A
threshold with ``K = 0`` is passed by every word and is counted into its
row's start instead; ``K = 2**53`` gives ``T = 2**64 - 1``, which no word
exceeds, and pads the threshold columns.  A coin ``u < p`` is the row
``[p, 1]``, a constant when ``K`` is 0 or ``2**53``; a fair coin's ``T``
is ``2**63 - 1``, a test of the top bit.  The walk takes the same branches
as one over the uniforms, without shifting or converting any draw.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

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


def _stream(seed: int, lo: int) -> np.random.Philox:
    """Bit generator whose next word is round ``lo``'s first."""
    # one Philox-4x64 counter step yields four words
    bits = np.random.Philox(key=np.uint64(int(seed) % 2 ** 64),
                            counter=SLOTS * lo // 4)
    bits.random_raw(SLOTS * lo % 4)
    return bits


def _draw(seed: int, lo: int, rounds: int) -> np.ndarray:
    """Raw words of rounds [lo, lo + rounds), a row each: ``raw >> 11``
    times ``2**-53`` is the uniform ``Generator.random`` makes of it."""
    return _stream(seed, lo).random_raw((rounds, SLOTS))


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


@dataclass
class Stage:
    """One categorical stage as a threshold matrix over raw words.

    A round at parent ``p`` with raw word ``x`` takes branch
    ``start[p] + #{j : x > thresholds[j, p]}``.  Column ``p`` holds the
    sorted raw thresholds of all but the last cumulative value of row
    ``p``, padded with ``RAW_MAX``, which no word exceeds; a value that
    every word passes (word threshold 0) is counted into ``start[p]``
    instead.  A stage of depth 0 needs no draw: each parent's branch is its
    start.
    """
    start: np.ndarray        # (parents,) intp
    thresholds: np.ndarray   # (depth, parents) uint64
    branches: int            # branches over all rows

    @classmethod
    def of(cls, off: np.ndarray, cum: np.ndarray, rows: np.ndarray) -> "Stage":
        """The stage whose parent ``i`` is row ``rows[i]`` of the level
        ``(off, cum)``, dropping the threshold rows that no word passes."""
        off = np.asarray(off, dtype=np.intp)
        start, widths = off[rows], np.diff(off)[rows]
        j = np.arange(int(widths.max(initial=1)) - 1)[:, None]
        has = j < widths - 1
        K = word_thresholds(np.where(has, cum[np.where(has, start + j, 0)],
                                     np.inf))
        # raw > K * 2**11 - 1 exactly when raw >> 11 >= K; uint64 wraps, so
        # K = 0 and K = 2**53 both give RAW_MAX
        T = np.sort((K << np.uint64(RAW_SHIFT)) - np.uint64(1), axis=0)
        return cls(start + (K == 0).sum(axis=0), T[(T < RAW_MAX).any(axis=1)],
                   int(off[-1]))

    def pick(self, x: np.ndarray, parent: np.ndarray) -> np.ndarray:
        """Branch index of each raw word in ``x`` at its parent row."""
        k = self.start.take(parent)
        for row in self.thresholds:
            k += x > row.take(parent)
        return k


def _chain(steps, **fields: np.ndarray):
    """The draws of a walk of ``(slot, (off, cum))`` steps, and each record
    field of ``fields``, given per path, at each leaf.

    Each level's rows are the branches of the level before it, and the
    first level has one row.  A block keeps one walk index per round, and
    the index left after the last step is the round's leaf.  A stage of
    depth 0 needs no draw: it is folded into the rows of the next stage, or
    into the leaves.  A stage whose thresholds take few distinct values
    counts the values a word passes, with no gather: the walk index becomes
    ``index * (values + 1) + count``, a mixed-radix number small enough for
    one byte.  Any other stage gathers its thresholds by the walk index,
    which becomes the branch.
    """
    plan = []
    branch = np.zeros(1, dtype=np.intp)   # the branch at each walk index
    for slot, (off, cum) in steps:
        stage = Stage.of(off, cum, branch)
        depth = stage.thresholds.shape[0]
        if depth == 0:
            branch = stage.start
            continue
        # distinct thresholds by sort, as np.unique would import numpy.ma
        values = np.sort(stage.thresholds[stage.thresholds < RAW_MAX])
        values = values[np.diff(values, prepend=RAW_MAX) != 0]
        # a gathered row costs a gather, a compare and an add per round, a
        # counted value one compare and a byte add
        if values.size <= 3 * depth and branch.size * (values.size + 1) < 256:
            passed = (stage.thresholds[:, :, None] <= values).sum(axis=0)
            branch = (stage.start[:, None]
                      + np.pad(passed, ((0, 0), (1, 0)))).ravel()
            plan.append((slot, values))
        else:
            plan.append((slot, stage))
            branch = np.arange(stage.branches)
    return plan, {name: v[branch] for name, v in fields.items()}


def _walk_chain(plan, raw: np.ndarray) -> np.ndarray:
    """Leaves of one block: the draws of ``plan``."""
    k = np.zeros(raw.shape[0], dtype=np.uint8)
    passed = np.empty(k.size, dtype=bool)
    for slot, step in plan:
        x = raw[:, slot]
        if isinstance(step, Stage):
            k = step.pick(x, k.astype(np.intp, copy=False))
        else:
            k *= step.size + 1
            for value in step:
                np.greater(x, value, out=passed)
                np.add(k, passed.view(np.uint8), out=k)
    return k


#: a walk's leaf per round (None unless kept), rounds per leaf, and each
#: record field's value per leaf
Walk = Tuple[Optional[np.ndarray], np.ndarray, Dict[str, np.ndarray]]


def _walk(plan, fields: Dict[str, np.ndarray], seed: int, n: int, jobs: int,
          keep_codes: bool, lo: int = 0) -> Walk:
    """Walk rounds [lo, n) of ``plan``, whose record fields per leaf are
    ``fields``, in blocks of at most BLOCK rounds on up to ``jobs``
    threads, the calling thread being thread 0: thread ``t`` walks blocks
    ``t``, ``t + jobs``, ..., each from its own stream, keeps their leaves
    if asked (row ``i - lo`` is round ``i``'s) and counts them in its own
    row.  The first exception of a thread, or of a start, stops the others
    at their next block and is raised here once every started thread is
    joined."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    leaves = next(iter(fields.values())).size
    codes = (np.empty(n - lo, dtype=np.min_scalar_type(leaves - 1))
             if keep_codes else None)
    starts = range(lo, n, BLOCK)
    jobs = max(1, min(jobs, len(starts)))
    counts = np.zeros((jobs, leaves), dtype=np.int64)
    errors = []

    def work(t: int) -> None:
        try:
            for start in starts[t::jobs]:
                if errors:
                    return
                # no name holds the words, so they are freed once walked
                piece = _walk_chain(
                    plan, _draw(seed, start, min(BLOCK, n - start)))
                if codes is not None:
                    codes[start - lo:start - lo + piece.size] = piece
                counts[t] += np.bincount(piece, minlength=leaves)
        except BaseException as exc:
            errors.append(exc)

    threads = []
    for t in range(1, jobs):
        thread = threading.Thread(target=work, args=(t,))
        try:
            thread.start()
        except BaseException as exc:
            errors.append(exc)
            break
        threads.append(thread)
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return codes, counts.sum(axis=0), fields


def _coin(p: float) -> Tuple[np.ndarray, np.ndarray]:
    """Offsets and cumulative values of a coin ``u < p`` (row 0: hit on
    branch 0, miss on 1) and of one certain branch (row 1: branch 2)."""
    return np.array([0, 2, 3]), np.array([p, 1.0, 1.0])


def _split(f: Dict[str, np.ndarray], off: np.ndarray, cum: np.ndarray, rows,
           **payload) -> Tuple[np.ndarray, np.ndarray]:
    """The level, offsets and cumulative values, that gives each path its
    row ``rows`` of ``(off, cum)``, copied as it is.  ``f``, each field's
    value per path, moves to the level's branches and gains ``payload``,
    fields by table branch."""
    rows = np.broadcast_to(np.asarray(rows, dtype=np.intp),
                           max((v.size for v in f.values()), default=1))
    widths = np.diff(off)[rows]
    parent = np.repeat(np.arange(rows.size), widths)
    first = np.cumsum(widths) - widths
    taken = (off[rows] - first)[parent] + np.arange(parent.size)
    f.update({name: values[parent] for name, values in f.items()})
    f.update({name: np.asarray(v)[taken] for name, v in payload.items()})
    return np.append(first, parent.size), cum[taken]
