"""Composite states over Eve's probe and the channel.

A state is one dense complex array of shape ``(probe_dim, dim)``: Eve's
probe basis index and the z-basis channel occupation in ``ChannelBasis``
order.  Bob's x-basis detection rotates the channel axis with one matmul.
Alice's SIFT readout is classical: ``sift_branches`` projects the channel
on the occupations of each detector pattern (one threshold or counter value
per mode) and returns the pattern with each branch.  Amplitudes at or below
``AMPLITUDE_FLOOR`` are zeroed after every operation, so a zero entry is an
absent branch.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from .fock import (
    AMPLITUDE_FLOOR,
    ChannelBasis,
    FockState,
    Occupation,
    X,
    channel_basis,
    floored,
)

THRESHOLD = "threshold"
COUNTER = "counter"

Pattern = Tuple[int, int]
JointKey = Tuple[int, Occupation]


def detector_pattern(occ: Occupation, model: str) -> Pattern:
    """Per-mode detector readout: clicks for threshold, 0/1/2+ for counters."""
    cap = 1 if model == THRESHOLD else 2
    return (min(occ[0], cap), min(occ[1], cap))


def pattern_code(pattern: Pattern) -> int:
    """Stable integer code for a readout pattern (both detector models)."""
    return 3 * pattern[0] + pattern[1]


def code_pattern(code: int) -> Pattern:
    return (code // 3, code % 3)


@lru_cache(maxsize=None)
def _detector_codes(n_max: int, model: str) -> np.ndarray:
    """Pattern code of every channel occupation under one detector model."""
    return np.array([pattern_code(detector_pattern(o, model))
                     for o in channel_basis(n_max).occupations])


def _abs_sq(amps: np.ndarray) -> np.ndarray:
    """``abs(a) ** 2`` of every entry, rounded as Python rounds it; numpy's
    complex ``abs`` and ``** 2`` can differ in the last bit, which would
    move printed exact probabilities."""
    out = np.zeros(amps.shape)
    nonzero = np.nonzero(amps)
    out[nonzero] = [abs(a) ** 2 for a in amps[nonzero].tolist()]
    return out


def _norm_sq(amps: np.ndarray) -> float:
    """Squared norm, summed in order over occupation, then probe."""
    return sum(_abs_sq(amps).T.ravel().tolist())


class JointState:
    """Pure state on probe x channel as one dense array."""

    __slots__ = ("amps",)

    def __init__(self, amps: np.ndarray):
        self.amps = floored(np.array(amps, dtype=np.complex128))
        n = self.n_max if self.amps.ndim == 2 else -1
        if n < 0 or (n + 1) * (n + 2) != 2 * self.amps.shape[1]:
            raise ValueError(f"amplitudes of shape {self.amps.shape} are not "
                             f"(probe, channel occupation)")

    @classmethod
    def from_product(cls, probe: np.ndarray | int, channel: FockState,
                     probe_dim: int) -> "JointState":
        """Probe (index or amplitude vector) tensored with a channel state."""
        if np.ndim(probe) == 0:
            index = operator.index(probe)
            if not 0 <= index < probe_dim:
                raise ValueError(f"probe index {index} outside dimension {probe_dim}")
            probe = np.eye(1, probe_dim, index)[0]
        elif np.shape(probe) != (probe_dim,):
            raise ValueError(f"probe vector of shape {np.shape(probe)} does not "
                             f"match dimension {probe_dim}")
        return cls(np.multiply.outer(np.asarray(probe, dtype=np.complex128),
                                     channel.to_z().amps))

    @property
    def probe_dim(self) -> int:
        return self.amps.shape[0]

    @property
    def n_max(self) -> int:
        return (math.isqrt(8 * self.amps.shape[1] + 1) - 3) // 2

    @property
    def basis(self) -> ChannelBasis:
        return channel_basis(self.n_max)

    def items(self) -> List[Tuple[JointKey, complex]]:
        """Nonzero amplitudes keyed ``(e, occupation)``, sorted."""
        occs = self.basis.occupations
        return sorted(((int(e), occs[c]), complex(self.amps[e, c]))
                      for e, c in zip(*np.nonzero(self.amps)))

    def norm_sq(self) -> float:
        return _norm_sq(self.amps)

    def _branches(self, labels: np.ndarray) -> List[Tuple[int, float, "JointState"]]:
        """``(label, probability, normalized projection)`` per value of the
        per-occupation ``labels`` that occurs, in increasing order."""
        # a bincount, not np.unique, whose first call imports numpy.ma
        present = np.flatnonzero(np.bincount(labels[self.amps.any(axis=0)]))
        branches = []
        for v in present:
            sub = np.where(labels == v, self.amps, 0.0)
            p = _norm_sq(sub)
            branches.append((int(v), p, JointState(sub * (1.0 / math.sqrt(p)))))
        return branches

    # ---- Alice ----

    def sift_branches(self, model: str = THRESHOLD
                      ) -> List[Tuple[Pattern, float, "JointState"]]:
        """Alice's SIFT readout: one normalized branch per detector pattern
        that occurs, in pattern-code order.  Each projects the channel on
        the occupations that show that pattern; the occupation itself is
        untouched."""
        return [(code_pattern(code), p, state) for code, p, state
                in self._branches(_detector_codes(self.n_max, model))]

    def occupation_branches(self) -> List[Tuple[Occupation, float, np.ndarray]]:
        """Collapse the channel occupation completely (destructive detection).

        Returns ``(occupation, probability, probe amplitude vector)`` per
        outcome; the probe vector is normalized.
        """
        branches = []
        for occ in sorted(self.basis.occupations):
            vec = self.amps[:, self.basis.index[occ]]
            if vec.any():
                p = float(np.vdot(vec, vec).real)
                branches.append((occ, p, vec / math.sqrt(p)))
        return branches

    # ---- Eve ----

    def probe_component(self, occ: Occupation) -> np.ndarray:
        """Unnormalized probe vector attached to one channel occupation."""
        return self.amps[:, self.basis.index[occ]].copy()

    def photon_count_branches(self) -> List[Tuple[int, float, "JointState"]]:
        """Nondemolition total-photon count of the channel part."""
        return self._branches(self.basis.totals)

    # ---- Bob ----

    def occupation_distribution(self, basis: str) -> Dict[Occupation, float]:
        """Channel photon-count distribution in the requested basis."""
        amps = self.amps
        if basis == X:
            amps = floored(amps @ self.basis.hadamard)
        probs = _abs_sq(amps).sum(axis=0)
        present = amps.any(axis=0)
        return {occ: float(probs[c])
                for c, occ in enumerate(self.basis.occupations) if present[c]}

    def bob_distribution(self, basis: str, model: str = THRESHOLD
                         ) -> Dict[Pattern, float]:
        """Detector pattern distribution for Bob measuring in ``basis``."""
        probs: Dict[Pattern, float] = {}
        for occ, p in self.occupation_distribution(basis).items():
            pat = detector_pattern(occ, model)
            probs[pat] = probs.get(pat, 0.0) + p
        return probs

    def channel_loss_branches(self, survival: float
                              ) -> List[Tuple[Tuple[int, int], float, "JointState"]]:
        """Per-photon loss with the environment counting lost photons per mode.

        Each branch fixes ``(k1, k0)`` photons lost from the two modes; the
        amplitude map keeps within-branch coherence.  Branch probabilities
        sum to one.  Loss treats both modes identically, so acting on the
        stored z keys matches acting in the x basis.
        """
        if not 0.0 <= survival <= 1.0:
            raise ValueError("survival fraction must lie in [0, 1]")
        basis = self.basis
        occs = [basis.occupations[c]
                for c in np.flatnonzero(self.amps.any(axis=0))]
        branches = []
        for k1 in range(max((o[0] for o in occs), default=0) + 1):
            for k0 in range(max((o[1] for o in occs), default=0) + 1):
                out = np.zeros_like(self.amps)
                for n1, n0 in occs:
                    if k1 > n1 or k0 > n0:
                        continue
                    w = (math.comb(n1, k1) * survival ** (n1 - k1) * (1 - survival) ** k1
                         * math.comb(n0, k0) * survival ** (n0 - k0) * (1 - survival) ** k0)
                    if w <= 0.0:
                        continue
                    out[:, basis.index[(n1 - k1, n0 - k0)]] = (
                        self.amps[:, basis.index[(n1, n0)]] * math.sqrt(w))
                sub = JointState(out)
                p = sub.norm_sq()
                if p > AMPLITUDE_FLOOR:
                    branches.append(((k1, k0), p,
                                     JointState(sub.amps * (1.0 / math.sqrt(p)))))
        return branches

    def __repr__(self) -> str:
        terms = ", ".join(f"{k}: {a:.4g}" for k, a in self.items())
        return f"JointState({{{terms}}}, probe_dim={self.probe_dim})"
