"""Eve's two-pass attacks: linear maps on probe x channel plus round strategies.

An attack holds an outbound map (applied on the way to Alice), a return map
(applied on the way back to Bob), and optionally a classical per-round
strategy for attacks that measure and act adaptively.  Maps are partial
isometries held as two dense arrays over probe x channel: orthonormal
domain vectors ``D`` and their images ``M``, one column each.  A map acts
on a state's ``(probe, channel)`` array read as one probe-major vector.
A dense map stores ``D = None``: its domain is the whole basis of its
extent.  Inputs the protocol never produces are outside the domain and
raise.  An ``AttackSpec`` checks its maps once, when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from .fock import (
    AMPLITUDE_FLOOR,
    ChannelBasis,
    Occupation,
    TruncationError,
    channel_basis,
    floored,
)
from .joint import JointState

ISOMETRY_TOL = 1e-10
DOMAIN_TOL = 1e-9
#: returned photon counts at or above which Eve reads a reflection
CTRL_MIN_COUNT = 2
#: the undetectability rules ``constrained_random_attack`` can break
VIOLATIONS = ("single-photon-mismatch", "multi-photon-return")


class IsometryError(ValueError):
    """A supplied attack map fails to preserve inner products."""


class AttackDomainError(ValueError):
    """An attack map was applied to a state outside its declared domain."""


def _padded(arr: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """``arr`` zero-padded at the end of each axis up to ``shape``."""
    if arr.shape == shape:
        return arr
    out = np.zeros(shape, dtype=arr.dtype)
    out[tuple(slice(n) for n in arr.shape)] = arr
    return out


def _entry_columns(columns: Sequence[Sequence[Tuple[Tuple[int, Occupation], complex]]],
                   probe_dim: int, n_max: int) -> np.ndarray:
    """Columns given as summed ``((e, occupation), amplitude)`` entries, as
    one (probe_dim, channel dim, columns) array."""
    basis = channel_basis(n_max)
    out = np.zeros((probe_dim, basis.dim, len(columns)), dtype=np.complex128)
    for j, entries in enumerate(columns):
        for (e, occ), amp in entries:
            out[e, basis.index[occ], j] += amp
    return out


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex ``a @ b`` with every product rounded as Python's complex
    multiply rounds it and the terms added in order of the shared index, so
    amplitudes do not depend on how a BLAS splits or fuses the sum."""
    ar, ai = a.real.T[:, :, None], a.imag.T[:, :, None]
    br, bi = b.real[:, None, :], b.imag[:, None, :]
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.complex128)
    out.real = (ar * br - ai * bi).sum(axis=0)
    out.imag = (ar * bi + ai * br).sum(axis=0)
    return out


class ProbeChannelMap:
    """Linear map on probe x channel.

    ``D`` holds orthonormal domain vectors and ``M`` their images, one column
    each, as arrays of shape (probe_dim, channel dim, columns) over Eve's
    probe index and the ``ChannelBasis`` order.  ``apply`` reads a state's
    ``(probe, channel)`` array as one probe-major vector ``v``, expands it
    over the domain, ``c = D^H v``, and maps it to ``M c``; any residual
    outside the span is an error.  The map preserves inner products when
    the Gram matrices agree, ``D^H D = M^H M``, and the domain is
    orthonormal, ``diag(D^H D) = 1``.
    ``D = None`` stands for the whole basis of ``M``'s extent, column ``j``
    being basis key ``j`` in probe-major order: then ``c = v`` on that
    extent, and the map preserves inner products when ``M^H M = I``.
    Maps and states of different extents line up by zero padding.
    """

    def __init__(self, D: Optional[np.ndarray], M: np.ndarray):
        self.D = None if D is None else np.asarray(D, dtype=np.complex128)
        self.M = np.asarray(M, dtype=np.complex128)

    @classmethod
    def from_occupation_rules(
            cls,
            rules: Mapping[Tuple[int, Occupation],
                           Sequence[Tuple[int, Occupation, complex]]],
            identity_keys: Sequence[Tuple[int, Occupation]] = ()) -> "ProbeChannelMap":
        """Basis-key columns: explicit rewrite rules plus pass-through keys."""
        doms, imgs = [], []
        for key in sorted(rules):
            doms.append([(key, 1.0)])
            imgs.append([((e, tuple(occ)), amp) for e, occ, amp in rules[key]])
        for key in sorted(identity_keys):
            if key in rules:
                raise ValueError(f"key {key} both rewritten and passed through")
            doms.append([(key, 1.0)])
            imgs.append([(key, 1.0)])
        keys = [key for col in doms + imgs for key, _ in col]
        probe_dim = 1 + max((e for e, _ in keys), default=0)
        n_max = max((sum(occ) for _, occ in keys), default=0)
        return cls(_entry_columns(doms, probe_dim, n_max),
                   _entry_columns(imgs, probe_dim, n_max))

    @classmethod
    def from_dense(cls, matrix: np.ndarray, probe_dim: int,
                   channel: ChannelBasis) -> "ProbeChannelMap":
        """Dense matrix over the full probe x channel basis, probe-major
        indexing; its domain is that whole basis (``D = None``)."""
        dim = probe_dim * channel.dim
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match probe_dim x channel "
                f"dim = {probe_dim} x {channel.dim} = {dim}")
        image = np.where(np.abs(matrix) > AMPLITUDE_FLOOR, matrix, 0.0)
        return cls(None, image.reshape(probe_dim, channel.dim, dim))

    def isometry_defect(self) -> float:
        """Largest deviation from inner-product preservation:
        ``max(max|D^H D - M^H M|, max|diag(D^H D) - 1|)``, or
        ``max|I - M^H M|`` for the whole basis (``D = None``); NaN when an
        entry is not finite."""
        cols = self.M.shape[-1]
        if not cols:
            return 0.0
        img = self.M.reshape(-1, cols)
        with np.errstate(invalid="ignore", over="ignore"):
            gram_img = img.conj().T @ img
            if self.D is None:
                return float(np.abs(np.eye(cols) - gram_img).max())
            dom = self.D.reshape(-1, cols)
            gram_dom = dom.conj().T @ dom
            return float(np.max([np.abs(gram_dom - gram_img).max(),
                                 np.abs(np.diagonal(gram_dom) - 1.0).max()]))

    def apply(self, state: JointState) -> JointState:
        """``M (D^H v)`` for the probe-major vector ``v`` of ``state``
        (``M v`` when ``D`` is None), at the wider probe of the two;
        coefficients at or below the amplitude floor count as zero."""
        probe_dim, dim = state.amps.shape
        extent_probe, extent_dim, cols = self.M.shape
        shape = (max(probe_dim, extent_probe), max(dim, extent_dim))
        padded = _padded(state.amps, shape)
        # one row over the probe-major (e, occupation) keys
        vec = padded.reshape(1, -1)
        img = _padded(self.M, shape + (cols,)).reshape(-1, cols)
        if self.D is None:
            # the keys of the map's extent, copied as floored works in place
            coeffs = floored(padded[:extent_probe, :extent_dim].reshape(1, cols).copy())
        else:
            dom = _padded(self.D, shape + (cols,)).reshape(-1, cols)
            coeffs = floored(_product(vec, dom.conj()))
        total = np.sum(np.abs(vec) ** 2)
        outside = total - np.sum(np.abs(coeffs) ** 2)
        if outside > DOMAIN_TOL * max(total, 1.0):
            raise AttackDomainError(
                f"input component of weight {outside:.3e} lies outside "
                f"the attack map's domain")
        out = _product(coeffs, img.T).reshape(shape)
        if np.any(np.abs(out[:, dim:]) > AMPLITUDE_FLOOR):
            raise TruncationError(
                f"attack map image exceeds the channel cap {state.n_max}")
        return JointState(out[:, :dim])


@dataclass(frozen=True)
class CountDecodeStrategy:
    """Eve counts returned photons to decode Alice's action.

    Counts at or above ``CTRL_MIN_COUNT`` are read as a reflection (apply the
    return map); smaller counts are read as a measured-and-resent pulse, which
    Eve measures in the computational basis and forwards unchanged.
    """


@dataclass(frozen=True)
class UsdStrategy:
    """Intercept-resend through an unambiguous discrimination of the two
    non-orthogonal signal states, whose overlap is the configured one;
    forward only conclusive outcomes."""


@dataclass(frozen=True)
class PnsStrategy:
    """Split two-photon pulses, keep one photon, and forward just enough
    pulses to match the receiver's expected count; block the rest."""


@dataclass(frozen=True)
class AttackSpec:
    """Validated description of one attack: its maps and its strategy.

    The maps are checked once, when the spec is built: a map that is not an
    isometry raises ``IsometryError`` there.  The spec is frozen, so no map
    can be swapped in past that check."""
    name: str
    outbound: Optional[ProbeChannelMap] = None
    returning: Optional[ProbeChannelMap] = None
    strategy: object = None

    def __post_init__(self):
        self.validate()

    @property
    def probe_dim(self) -> int:
        """Eve's probe: the widest map's probe extent, 1 with no map."""
        return max((m.M.shape[0] for m in (self.outbound, self.returning)
                    if m is not None), default=1)

    @property
    def lossless_channel(self) -> bool:
        """Eve owns a lossless line unless she has no map and no strategy."""
        return (self.outbound, self.returning, self.strategy) != (None,) * 3

    def validate(self) -> float:
        worst = 0.0
        for label, m in (("outbound", self.outbound), ("return", self.returning)):
            if m is None:
                continue
            defect = m.isometry_defect()
            worst = max(worst, defect)
            if not defect <= ISOMETRY_TOL:  # NaN fails too
                raise IsometryError(
                    f"{label} map of attack {self.name!r} is not an isometry "
                    f"(max deviation {defect:.3e} > {ISOMETRY_TOL:g})")
        return worst

    def apply_outbound(self, state: JointState) -> JointState:
        return state if self.outbound is None else self.outbound.apply(state)

    def apply_return(self, state: JointState) -> JointState:
        return state if self.returning is None else self.returning.apply(state)


def identity_attack() -> AttackSpec:
    return AttackSpec(name="identity")


def pns_attack(n_max: int = 2) -> AttackSpec:
    """Nondemolition splitting of two-photon pulses.

    Eve's probe is itself a two-mode register (vacuum, one photon in either
    mode).  Pulses with a photon number other than two pass untouched; on a
    two-photon pulse she keeps one photon, matching the pulse's own modes, so
    the split is invisible in both measurement bases.
    """
    if n_max < 2:
        raise ValueError("photon cap must be at least 2 for photon splitting")
    # probe levels: vacuum, and the kept photon in occupation (0, 1) or (1, 0)
    vac, keep0, keep1 = 0, 1, 2
    r = 1.0 / math.sqrt(2.0)
    rules: Dict[Tuple[int, Occupation], list] = {
        (vac, (0, 2)): [(keep0, (0, 1), 1.0)],
        (vac, (2, 0)): [(keep1, (1, 0), 1.0)],
        (vac, (1, 1)): [(keep1, (0, 1), r), (keep0, (1, 0), r)],
    }
    identity_keys = []
    for total in range(n_max + 1):
        if total == 2:
            continue
        for n1 in range(total + 1):
            identity_keys.append((vac, (n1, total - n1)))
    outbound = ProbeChannelMap.from_occupation_rules(rules, identity_keys)
    return AttackSpec(name="pns", outbound=outbound, strategy=PnsStrategy())


def tagging_attack(n_max: int = 2) -> AttackSpec:
    """Replace the outbound pulse by the photon-number tag (|0,2>+|2,0>)/sqrt(2).

    The outbound leg swaps whatever arrives into a three-level register of
    Eve's (keeping the map an isometry even when the source mixes in other
    states) and sends the tag on.  The return map folds the tag back into a
    single photon, so reflected rounds hand Bob exactly the plus state.
    When Alice detects destructively and resends single photons, the
    returned photon number alone decodes her action, which the bundled
    count strategy exploits.  The tag needs a photon cap ``n_max`` of 2.
    """
    if n_max < 2:
        raise ValueError("photon cap must be at least 2 for the two-photon tag")
    d = 3
    r = 1 / math.sqrt(2.0)
    outbound = ProbeChannelMap(
        _entry_columns([[((0, occ_in), 1.0)]
                        for occ_in in ((0, 1), (1, 0), (0, 0))], d, 2),
        _entry_columns([[((store, (0, 2)), r), ((store, (2, 0)), r)]
                        for store in range(d)], d, 2))
    rules: Dict[Tuple[int, Occupation], list] = {}
    identity_keys = []
    for e in range(d):
        rules[(e, (0, 2))] = [(e, (0, 1), 1.0)]
        rules[(e, (2, 0))] = [(e, (1, 0), 1.0)]
        identity_keys.append((e, (0, 0)))
    returning = ProbeChannelMap.from_occupation_rules(rules, identity_keys)
    return AttackSpec(name="tagging", outbound=outbound, returning=returning,
                      strategy=CountDecodeStrategy())


def usd_attack_b92() -> AttackSpec:
    """Unambiguous-discrimination intercept for the two-state protocol."""
    return AttackSpec(name="usd-b92", strategy=UsdStrategy())


def general_attack(outbound_matrix: np.ndarray, return_matrix: np.ndarray,
                   probe_dim: int, n_max: int) -> AttackSpec:
    """User-supplied dense maps over the full probe x channel basis."""
    channel = ChannelBasis(n_max)
    return AttackSpec(
        name="general",
        outbound=ProbeChannelMap.from_dense(outbound_matrix, probe_dim, channel),
        returning=ProbeChannelMap.from_dense(return_matrix, probe_dim, channel))


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _orthonormal_triple(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    q, _ = np.linalg.qr(m)
    return q[:, :3].T


def constrained_random_attack(seed: int, probe_dim: int = 4, n_max: int = 3,
                              violation: Optional[str] = None,
                              violation_level: int = 2) -> AttackSpec:
    """Random attack obeying (or minimally breaking) every undetectability rule.

    The outbound leg spreads the plus pulse over single-mode occupations only,
    so Alice never sees both detectors click.  The return leg sends each
    measured bit back as the matching single photon with a common probe
    component, plus loss terms, which keeps reflected rounds free of
    minus-mode clicks and makes the probe independent of the key bit.

    ``violation='single-photon-mismatch'`` detunes the two single-photon probe
    components; ``violation='multi-photon-return'`` leaks an n-photon return
    component at ``violation_level``.  Everything else stays compliant, so
    each violating attack breaks exactly one rule.
    """
    if probe_dim < 1:
        raise ValueError("probe dimension must be at least 1")
    if n_max < 1:
        raise ValueError("photon cap must be at least 1")
    if violation not in (None, *VIOLATIONS):
        raise ValueError(f"unknown violation kind {violation!r}")
    if violation == "multi-photon-return" and not 2 <= violation_level <= n_max:
        raise ValueError("violation level must lie in [2, n_max]")

    rng = np.random.default_rng(seed)
    d = probe_dim

    # outbound components per occupation, zero on mixed occupations
    bit0_keys = [(0, n) for n in range(1, n_max + 1)]
    bit1_keys = [(n, 0) for n in range(1, n_max + 1)]
    comps: Dict[Occupation, np.ndarray] = {}
    for occ in bit0_keys + bit1_keys + [(0, 0)]:
        comps[occ] = (rng.normal(size=d) + 1j * rng.normal(size=d)) * rng.uniform(0.3, 1.0)
    if d < 3:
        # no room for orthogonal loss components: balance the two bit sectors
        s0 = math.sqrt(sum(np.vdot(comps[k], comps[k]).real for k in bit0_keys))
        s1 = math.sqrt(sum(np.vdot(comps[k], comps[k]).real for k in bit1_keys))
        for k in bit1_keys:
            comps[k] = comps[k] * (s0 / s1)
    total = math.sqrt(sum(np.vdot(v, v).real for v in comps.values()))
    comps = {k: v / total for k, v in comps.items()}

    basis = channel_basis(n_max)

    def column(parts: Mapping[Occupation, np.ndarray]) -> np.ndarray:
        """(d, channel dim) array with each probe vector at its occupation,
        entries at or below the amplitude floor dropped."""
        col = np.zeros((d, basis.dim), dtype=np.complex128)
        for occ, vec in parts.items():
            col[:, basis.index[occ]] = np.where(
                np.abs(vec) > AMPLITUDE_FLOOR, vec, 0.0)
        return col

    def norm(col: np.ndarray) -> float:
        # summed occupation by occupation, probe index fastest
        return math.sqrt(sum(abs(a) ** 2 for a in col.T.ravel().tolist()))

    r = 1.0 / math.sqrt(2.0)
    plus = column({(0, 1): np.eye(1, d)[0] * r, (1, 0): np.eye(1, d)[0] * r})
    outbound = ProbeChannelMap(plus[..., None], column(comps)[..., None])

    # return map on the three orthogonal branch states Alice can send back
    branch0 = column({k: comps[k] for k in bit0_keys})
    branch1 = column({k: comps[k] for k in bit1_keys})
    branch_vac = column({(0, 0): comps[(0, 0)]})
    n0, n1, nv = norm(branch0), norm(branch1), norm(branch_vac)

    if d >= 3:
        h_dirs = _orthonormal_triple(rng, d)
        keep = rng.uniform(0.4, 0.95) * min(n0, n1)
        h0 = math.sqrt(n0 ** 2 - keep ** 2)
        h1 = math.sqrt(n1 ** 2 - keep ** 2)
    else:
        h_dirs = np.vstack([_random_unit(rng, d)] * 3)
        keep = n0  # balanced above, so n0 == n1
        h0 = h1 = 0.0

    common = _random_unit(rng, d) * keep
    probe_bit0 = common
    probe_bit1 = common.copy()
    leak = None
    if violation == "single-photon-mismatch":
        # rotate the bit-1 component away from the bit-0 one, keeping its norm
        other = _random_unit(rng, d)
        mix = rng.uniform(0.2, 0.9)
        cand = (1 - mix) * common + mix * other * keep
        probe_bit1 = cand / np.linalg.norm(cand) * keep
    elif violation == "multi-photon-return":
        frac = rng.uniform(0.2, 0.8)
        leak_norm = frac * min(keep, min(n0, n1))
        keep_adj = math.sqrt(keep ** 2 - leak_norm ** 2)
        probe_bit0 = common / keep * keep_adj
        probe_bit1 = probe_bit0
        leak = _random_unit(rng, d) * leak_norm

    parts0 = {(0, 1): probe_bit0, (0, 0): h_dirs[0] * h0}
    parts1 = {(1, 0): probe_bit1, (0, 0): h_dirs[1] * h1}
    if leak is not None:
        parts0[(0, violation_level)] = leak
        parts1[(violation_level, 0)] = leak
    doms = [branch0 * (1.0 / n0), branch1 * (1.0 / n1)]
    imgs = [column(parts0) * (1.0 / n0), column(parts1) * (1.0 / n1)]
    if nv > AMPLITUDE_FLOOR:
        doms.append(branch_vac * (1.0 / nv))
        imgs.append(column({(0, 0): h_dirs[2]}))

    name = "constrained-random" if violation is None else f"violating-{violation}"
    return AttackSpec(
        name=name, outbound=outbound,
        returning=ProbeChannelMap(np.stack(doms, axis=-1), np.stack(imgs, axis=-1)))


def load_matrix_file(path: str) -> np.ndarray:
    """Read a dense complex matrix: whitespace floats, re/im pairs, row-major.

    Text after ``#`` on a line is a comment.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = " ".join(line.split("#", 1)[0] for line in fh)
        values = np.array(text.split(), dtype=float)
    except ValueError as exc:  # a malformed token or undecodable bytes
        raise ValueError(f"{path}: {exc}") from None
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None
    if len(values) % 2:
        raise ValueError(f"{path}: odd float count, expected re/im pairs")
    pairs = len(values) // 2
    dim = math.isqrt(pairs)
    if dim * dim != pairs:
        raise ValueError(f"{path}: {pairs} entries do not form a square matrix")
    flat = values.reshape(-1, 2)
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(dim, dim)
