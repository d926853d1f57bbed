"""Two-mode bosonic Fock states with exact z <-> x basis conversion.

An occupation pair ``(n1, n0)`` counts photons per mode.  In the z basis
``|0,1>`` is a single photon encoding bit 0 and ``|1,0>`` encodes bit 1;
in the x basis the pair counts photons in the minus / plus modes, so
``|0,1>_x`` is ``|+>`` and ``|1,0>_x`` is ``|->``.  The vacuum ``|0,0>``
models a lost pulse.

States are sparse maps from occupation to complex amplitude, tagged with
the basis their keys refer to, and truncated at a total photon cap.  All
operations are pure; instances are immutable by convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, Mapping, Tuple

Occupation = Tuple[int, int]

Z = "z"
X = "x"

DEFAULT_N_MAX = 6

#: amplitudes below this are dropped after arithmetic
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


class FockState:
    """Sparse two-mode photonic state: occupation -> complex amplitude."""

    __slots__ = ("_amps", "basis", "n_max")

    def __init__(self, amps: Mapping[Occupation, complex], basis: str = Z,
                 n_max: int = DEFAULT_N_MAX):
        _check_basis(basis)
        clean: Dict[Occupation, complex] = {}
        for occ, amp in amps.items():
            occ = (int(occ[0]), int(occ[1]))
            check_occupation(occ, n_max)
            amp = complex(amp)
            if abs(amp) > AMPLITUDE_FLOOR:
                clean[occ] = amp
        self._amps = clean
        self.basis = basis
        self.n_max = n_max

    @classmethod
    def basis_state(cls, occ: Occupation, basis: str = Z,
                    n_max: int = DEFAULT_N_MAX) -> "FockState":
        check_occupation(occ, n_max)
        return cls({tuple(occ): 1.0}, basis=basis, n_max=n_max)

    def amplitude(self, occ: Occupation) -> complex:
        return self._amps.get(tuple(occ), 0j)

    def items(self) -> Iterator[Tuple[Occupation, complex]]:
        return iter(sorted(self._amps.items()))

    def keys(self):
        return self._amps.keys()

    def __len__(self) -> int:
        return len(self._amps)

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self._amps.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def is_unit(self, tol: float = 1e-12) -> bool:
        return abs(self.norm_sq() - 1.0) <= tol

    def scaled(self, factor: complex) -> "FockState":
        return FockState({k: factor * a for k, a in self._amps.items()},
                         basis=self.basis, n_max=self.n_max)

    def plus(self, other: "FockState") -> "FockState":
        if other.basis != self.basis:
            raise ValueError("cannot add states with different basis tags")
        n_max = max(self.n_max, other.n_max)
        amps = dict(self._amps)
        for k, a in other._amps.items():
            amps[k] = amps.get(k, 0j) + a
        return FockState(amps, basis=self.basis, n_max=n_max)

    def normalized(self) -> "FockState":
        n = self.norm()
        if n <= AMPLITUDE_FLOOR:
            raise NormalizationError("cannot normalize a (near-)zero state")
        return self.scaled(1.0 / n)

    def to_z(self) -> "FockState":
        return self if self.basis == Z else _transform(self, Z)

    def to_x(self) -> "FockState":
        return self if self.basis == X else _transform(self, X)

    def in_basis(self, basis: str) -> "FockState":
        _check_basis(basis)
        return self.to_z() if basis == Z else self.to_x()

    def __repr__(self) -> str:
        terms = ", ".join(f"{occ}: {amp:.6g}" for occ, amp in self.items())
        return f"FockState({{{terms}}}, basis={self.basis!r}, n_max={self.n_max})"


@lru_cache(maxsize=None)
def _mixing_row(n_first: int, n_second: int) -> Tuple[float, ...]:
    """Overlap row for one occupation key under the mode rotation.

    The creation operator of the first mode goes to (first' - second')/sqrt(2)
    up to relabeling, so the key (n_first, n_second) expands over keys
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


def transform_amplitudes(amps: Mapping[Occupation, complex],
                         n_max: int) -> Dict[Occupation, complex]:
    """Rotate a raw amplitude map between the z and x mode pairs.

    Works on plain dicts; ``joint.ChannelBasis`` builds its dense rotation
    matrix from it one occupation at a time.  Total photon number is conserved key by key, so the cap cannot be
    exceeded by the expansion.
    """
    out: Dict[Occupation, complex] = {}
    for (a, b), amp in amps.items():
        row = _mixing_row(a, b)
        n = a + b
        for k, coeff in enumerate(row):
            if coeff == 0.0:
                continue
            key = (k, n - k)
            out[key] = out.get(key, 0j) + coeff * amp
    return {k: v for k, v in out.items() if abs(v) > AMPLITUDE_FLOOR}


def _transform(state: FockState, target: str) -> FockState:
    return FockState(transform_amplitudes(state._amps, state.n_max),
                     basis=target, n_max=state.n_max)


def make_basis_state(occ: Occupation, basis: str = Z,
                     n_max: int = DEFAULT_N_MAX) -> FockState:
    """Unit-norm state with a single amplitude on ``occ``."""
    return FockState.basis_state(occ, basis=basis, n_max=n_max)


def inner(a: FockState, b: FockState) -> complex:
    """Sesquilinear product <a|b>, converting to the z basis on a tag mismatch."""
    if a.basis != b.basis:
        a, b = a.to_z(), b.to_z()
    return sum(a._amps[k].conjugate() * b._amps[k]
               for k in a._amps.keys() & b._amps.keys())


def to_z_basis(state: FockState) -> FockState:
    """State re-expressed over z-basis occupation keys."""
    return state.to_z()


def to_x_basis(state: FockState) -> FockState:
    """State re-expressed over x-basis occupation keys."""
    return state.to_x()


@dataclass(frozen=True)
class ExpansionRow:
    """Coefficients of an n-photon single-mode x state over z keys.

    ``sign=+1`` describes n photons in the plus mode, ``sign=-1`` n photons
    in the minus mode; ``coefficients[k]`` multiplies ``|k, n-k>``.
    """
    n: int
    sign: int
    coefficients: Tuple[float, ...]


def x_expansion(n: int, sign: int, n_max: int = DEFAULT_N_MAX) -> ExpansionRow:
    """Closed-form z expansion of ``|0,n>_x`` (sign +1) or ``|n,0>_x`` (sign -1).

    coefficient(k) = sign^k * sqrt(binom(n, k)) / sqrt(2^n)
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if n < 0:
        raise ValueError("photon number must be non-negative")
    check_occupation((n, 0), n_max)
    root = math.sqrt(2.0) ** n
    coeffs = tuple(sign ** k * math.sqrt(math.comb(n, k)) / root
                   for k in range(n + 1))
    return ExpansionRow(n=n, sign=sign, coefficients=coeffs)


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
    converted = state.in_basis(basis)
    return {occ: abs(amp) ** 2 for occ, amp in converted.items()}
