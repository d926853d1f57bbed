"""Two-mode bosonic Fock states with exact z <-> x basis conversion.

An occupation pair ``(n1, n0)`` counts photons per mode.  In the z basis
``|0,1>`` is a single photon encoding bit 0 and ``|1,0>`` encodes bit 1;
in the x basis the pair counts photons in the minus / plus modes, so
``|0,1>_x`` is ``|+>`` and ``|1,0>_x`` is ``|->``.  The vacuum ``|0,0>``
models a lost pulse.

A pulse is one dense complex vector of z amplitudes over the occupations
of ``channel_basis(n_max)``.  Amplitudes at or below ``AMPLITUDE_FLOOR``
are zeroed on construction, so a zero entry is an absent occupation.  A
state given in the x basis is rotated once, when it is built, by one
matmul with the involutive ``ChannelBasis.hadamard``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Mapping, Tuple

import numpy as np

Occupation = Tuple[int, int]

Z = "z"
X = "x"

DEFAULT_N_MAX = 6

#: amplitudes at or below this are zeroed after arithmetic
AMPLITUDE_FLOOR = 1e-15


class TruncationError(ValueError):
    """An occupation lies beyond the configured photon-number cap."""


def check_occupation(occ: Occupation, n_max: int) -> None:
    n1, n0 = occ
    if n1 < 0 or n0 < 0:
        raise ValueError(f"negative occupation {occ!r}")
    if n1 + n0 > n_max:
        raise TruncationError(f"occupation {occ!r} exceeds cap n_max={n_max}")


@lru_cache(maxsize=None)
def _mixing_row(n_first: int, n_second: int) -> Tuple[float, ...]:
    """Overlap row for one occupation under the mode rotation.

    The creation operator of the first mode goes to (first' - second')/sqrt(2)
    up to relabeling, so the occupation (n_first, n_second) expands over
    (k, n - k) of the rotated pair with the returned real coefficients.
    The same row serves both conversion directions (the rotation is an
    involution).
    """
    n = n_first + n_second
    base = math.sqrt(2.0) ** n * math.sqrt(
        math.factorial(n_first) * math.factorial(n_second))
    row = []
    for k in range(n + 1):
        s = 0
        for i in range(max(0, k - n_second), min(k, n_first) + 1):
            s += (-1) ** i * math.comb(n_first, i) * math.comb(n_second, k - i)
        row.append(s * math.sqrt(math.factorial(k) * math.factorial(n - k)) / base)
    return tuple(row)


class ChannelBasis:
    """Enumeration and index tables for the truncated two-mode space.

    Occupations are ordered by total photon number, so the basis of a lower
    cap is a prefix of the basis of a higher one.
    """

    def __init__(self, n_max: int):
        self.n_max = n_max
        occs: List[Occupation] = []
        for total in range(n_max + 1):
            for n1 in range(total + 1):
                occs.append((n1, total - n1))
        self.occupations: Tuple[Occupation, ...] = tuple(occs)
        self.dim = len(occs)
        self.index: Dict[Occupation, int] = {o: i for i, o in enumerate(occs)}
        self.totals = np.array([n1 + n0 for n1, n0 in occs])
        # involutive orthogonal mode rotation; rows and columns share indexing.
        # Photon number is conserved, so the cap is never exceeded.
        had = np.zeros((self.dim, self.dim))
        for i, (n1, n0) in enumerate(occs):
            for k, coeff in enumerate(_mixing_row(n1, n0)):
                had[i, self.index[(k, n1 + n0 - k)]] = coeff
        self.hadamard = had


@lru_cache(maxsize=None)
def channel_basis(n_max: int) -> ChannelBasis:
    """The basis of one photon cap, built once."""
    return ChannelBasis(n_max)


def floored(amps: np.ndarray) -> np.ndarray:
    """Zero, in place, every amplitude at or below ``AMPLITUDE_FLOOR``."""
    amps[~(np.abs(amps) > AMPLITUDE_FLOOR)] = 0.0
    return amps


def z_vector(amps: Mapping[Occupation, complex], basis: str = Z,
             n_max: int = DEFAULT_N_MAX) -> np.ndarray:
    """Z vector of the state with amplitude ``amps[occ]`` on each occupation
    ``occ`` of ``basis``; an x state is rotated here, once."""
    if basis not in (Z, X):
        raise ValueError(f"unknown basis {basis!r} (expected {Z!r} or {X!r})")
    cb = channel_basis(n_max)
    vec = np.zeros(cb.dim, dtype=np.complex128)
    for occ, amp in amps.items():
        occ = (int(occ[0]), int(occ[1]))
        check_occupation(occ, n_max)
        vec[cb.index[occ]] = complex(amp)
    vec = floored(vec)
    return vec if basis == Z else floored(vec @ cb.hadamard)


def make_basis_state(occ: Occupation, basis: str = Z,
                     n_max: int = DEFAULT_N_MAX) -> np.ndarray:
    """Z vector of the unit state with a single amplitude on ``occ``."""
    return z_vector({tuple(occ): 1.0}, basis, n_max)


def x_expansion(n: int, sign: int,
                n_max: int = DEFAULT_N_MAX) -> Tuple[float, ...]:
    """Closed-form z expansion of ``|0,n>_x`` (sign +1) or ``|n,0>_x`` (sign -1).

    Coefficient ``k`` multiplies ``|k, n-k>``:
    coefficient(k) = sign^k * sqrt(binom(n, k)) / sqrt(2^n)
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if n < 0:
        raise ValueError("photon number must be non-negative")
    check_occupation((n, 0), n_max)
    root = math.sqrt(2.0) ** n
    return tuple(sign ** k * math.sqrt(math.comb(n, k)) / root
                 for k in range(n + 1))


def parity_state(n: int, parity: str, basis: str = Z,
                 n_max: int = DEFAULT_N_MAX) -> np.ndarray:
    """Z vector of the even/odd superposition (|0,n> +/- |n,0>)/sqrt(2) of
    the given basis.

    Measured in the opposite basis these states yield only even (resp. odd)
    photon counts in the first mode, at twice the binomial weight.
    """
    if n < 1:
        raise ValueError("parity states need n >= 1")
    check_occupation((n, 0), n_max)
    sign = {"even": 1.0, "odd": -1.0}.get(parity)
    if sign is None:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    amp = 1.0 / math.sqrt(2.0)
    return z_vector({(0, n): amp, (n, 0): sign * amp}, basis, n_max)
