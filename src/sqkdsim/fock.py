"""Two-mode bosonic Fock states with exact z <-> x basis conversion.

An occupation pair ``(n1, n0)`` counts photons per mode.  In the z basis
``|0,1>`` is a single photon encoding bit 0 and ``|1,0>`` encodes bit 1;
in the x basis the pair counts photons in the minus / plus modes, so
``|0,1>_x`` is ``|+>`` and ``|1,0>_x`` is ``|->``.  The vacuum ``|0,0>``
models a lost pulse.

A state is one dense complex vector over the occupations of
``channel_basis(n_max)``, tagged with the basis those occupations refer
to.  Amplitudes at or below ``AMPLITUDE_FLOOR`` are zeroed on
construction, so a zero entry is an absent occupation.  The basis change
is one matmul with the involutive ``ChannelBasis.hadamard``.  All
operations are pure; instances are immutable by convention.
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


class NormalizationError(ValueError):
    """The operation requires a unit-norm input state."""


def check_occupation(occ: Occupation, n_max: int) -> None:
    n1, n0 = occ
    if n1 < 0 or n0 < 0:
        raise ValueError(f"negative occupation {occ!r}")
    if n1 + n0 > n_max:
        raise TruncationError(f"occupation {occ!r} exceeds cap n_max={n_max}")


def _check_basis(basis: str) -> None:
    if basis not in (Z, X):
        raise ValueError(f"unknown basis tag {basis!r} (expected {Z!r} or {X!r})")


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


class FockState:
    """Two-mode photonic state: one amplitude per ``channel_basis`` occupation."""

    __slots__ = ("amps", "basis", "n_max")

    def __init__(self, amps: Mapping[Occupation, complex], basis: str = Z,
                 n_max: int = DEFAULT_N_MAX):
        _check_basis(basis)
        index = channel_basis(n_max).index
        vec = np.zeros(len(index), dtype=np.complex128)
        for occ, amp in amps.items():
            occ = (int(occ[0]), int(occ[1]))
            check_occupation(occ, n_max)
            vec[index[occ]] = complex(amp)
        self.amps = floored(vec)
        self.basis = basis
        self.n_max = n_max

    @classmethod
    def _of(cls, amps: np.ndarray, basis: str, n_max: int) -> "FockState":
        state = cls.__new__(cls)
        state.amps = floored(amps)
        state.basis = basis
        state.n_max = n_max
        return state

    def amplitude(self, occ: Occupation) -> complex:
        i = channel_basis(self.n_max).index.get(tuple(occ))
        return 0j if i is None else complex(self.amps[i])

    def items(self) -> List[Tuple[Occupation, complex]]:
        """Nonzero amplitudes keyed by occupation, sorted."""
        occs = channel_basis(self.n_max).occupations
        return sorted((occs[i], complex(self.amps[i]))
                      for i in np.flatnonzero(self.amps))

    def __len__(self) -> int:
        return int(np.count_nonzero(self.amps))

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.amps.tolist())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def is_unit(self, tol: float = 1e-12) -> bool:
        return abs(self.norm_sq() - 1.0) <= tol

    def scaled(self, factor: complex) -> "FockState":
        return FockState._of(factor * self.amps, self.basis, self.n_max)

    def normalized(self) -> "FockState":
        n = self.norm()
        if n <= AMPLITUDE_FLOOR:
            raise NormalizationError("cannot normalize a (near-)zero state")
        return self.scaled(1.0 / n)

    def _rotated(self, target: str) -> "FockState":
        if self.basis == target:
            return self
        return FockState._of(self.amps @ channel_basis(self.n_max).hadamard,
                             target, self.n_max)

    def to_z(self) -> "FockState":
        return self._rotated(Z)

    def to_x(self) -> "FockState":
        return self._rotated(X)

    def __repr__(self) -> str:
        terms = ", ".join(f"{occ}: {amp:.6g}" for occ, amp in self.items())
        return f"FockState({{{terms}}}, basis={self.basis!r}, n_max={self.n_max})"


def make_basis_state(occ: Occupation, basis: str = Z,
                     n_max: int = DEFAULT_N_MAX) -> FockState:
    """Unit-norm state with a single amplitude on ``occ``."""
    return FockState({tuple(occ): 1.0}, basis=basis, n_max=n_max)


def inner(a: FockState, b: FockState) -> complex:
    """Sesquilinear product <a|b> of the two z vectors.

    A lower cap's basis is a prefix of a higher one's, so states with
    different caps line up by zero padding.
    """
    va, vb = a.to_z().amps, b.to_z().amps
    dim = max(va.size, vb.size)
    return complex(np.vdot(np.pad(va, (0, dim - va.size)),
                           np.pad(vb, (0, dim - vb.size))))


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
                 n_max: int = DEFAULT_N_MAX) -> FockState:
    """Even/odd superposition (|0,n> +/- |n,0>)/sqrt(2) in the given basis.

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
    return FockState({(0, n): amp, (n, 0): sign * amp}, basis=basis, n_max=n_max)


def measure_distribution(state: FockState, basis: str,
                         norm_tol: float = 1e-10) -> Dict[Occupation, float]:
    """Photon-counting distribution of ``state`` in the requested basis."""
    if abs(state.norm_sq() - 1.0) > norm_tol:
        raise NormalizationError(
            f"measurement needs a normalized state (|norm^2-1| = "
            f"{abs(state.norm_sq() - 1.0):.3e})")
    _check_basis(basis)
    converted = state.to_z() if basis == Z else state.to_x()
    return {occ: abs(amp) ** 2 for occ, amp in converted.items()}
