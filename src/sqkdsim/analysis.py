"""Exact detection-probability and leakage analysis plus attack thresholds.

Everything here is computed from amplitudes, never by sampling: the
undetectability statements are exact, and tolerances only absorb float
error.  Monte-Carlo estimates of the same quantities live in the protocol
runners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .fock import Occupation, X, Z, make_basis_state, parity_state
from .joint import JointState, Pattern, THRESHOLD
from .attacks import AttackDomainError, AttackSpec, constrained_random_attack

EXACT_TOL = 1e-10
#: ``lemma_verify``'s slack on the forward fidelity (``>= 1 - tol``), the
#: single-photon click prediction and the parity decomposition
FIDELITY_TOL, PREDICTION_TOL, DECOMPOSITION_TOL = 1e-9, 1e-9, 1e-12


@dataclass
class ConstraintReport:
    """Exact detection probabilities and return-leg structure of one attack.

    ``bit_probe_distance`` is the norm of the difference between Eve's probe
    components attached to the two single-photon returns; the multiphoton map
    collects the combined norms of probe components attached to n-photon
    returns for n >= 2.  Any of those being nonzero forces a positive
    minus-click probability on reflected rounds.
    """
    alice_11_prob: float
    bob_minus_click_prob: float
    bit_probe_distance: float
    multiphoton_return_norms: Dict[int, float]
    sift_conflict_prob: float
    verdict: str


@dataclass
class LeakageReport:
    """Distinguishability of Eve's residual probe between the two key bits.

    Both numbers are None when the leakage is undefined; ``detail`` says why.
    """
    conditional_fidelity: Optional[float]
    trace_distance: Optional[float]
    detail: str = ""


def _outbound_state(attack: AttackSpec, n_max: int) -> JointState:
    start = JointState.from_product(0, make_basis_state((0, 1), X, n_max),
                                    attack.probe_dim)
    return attack.apply_outbound(start)


def _sift_and_return(attack: AttackSpec, psi: JointState, model: str,
                     patterns: Tuple[Pattern, ...]
                     ) -> Dict[Pattern, Tuple[float, JointState]]:
    """Alice's SIFT on the outbound state ``psi``, then the return leg on
    each normalized branch of ``patterns`` that occurs:
    ``{pattern: (probability, returned state)}``."""
    try:
        return {pat: (p, attack.apply_return(state))
                for pat, p, state in psi.sift_branches(model)
                if pat in patterns}
    except AttackDomainError as exc:
        raise AttackDomainError(f"the {attack.name} attack cannot run with "
                                f"{model} detectors: {exc}") from exc


def check_constraints(attack: AttackSpec, n_max: int = 3,
                      detector_model: str = THRESHOLD) -> ConstraintReport:
    """Exact undetectability audit of an attack on the reflecting protocol.

    Evaluates, without sampling: Alice's both-detectors probability on the
    outbound state, Bob's minus-mode click probability on reflected rounds
    after the linear return leg, the z-basis consistency of measured rounds,
    and the probe components attached to each return photon number.
    """
    psi = _outbound_state(attack, n_max)

    alice_11 = sum(p for occ, p in psi.occupation_distribution(Z).items()
                   if occ[0] >= 1 and occ[1] >= 1)

    ctrl_back = attack.apply_return(psi)
    minus_click = sum(p for occ, p in ctrl_back.occupation_distribution(X).items()
                      if occ[0] >= 1)

    # z-basis consistency: Bob must never contradict a measured readout
    allowed = {
        (0, 1): lambda occ: occ[0] == 0,
        (1, 0): lambda occ: occ[1] == 0,
        (0, 0): lambda occ: occ == (0, 0),
    }
    # SIFT branches, kept unnormalized as weight sqrt(p) times the projection
    returned = _sift_and_return(attack, psi, detector_model, tuple(allowed))

    def weighted(pattern: Pattern, occ: Occupation) -> np.ndarray:
        if pattern not in returned:  # the branch does not occur
            return np.zeros(attack.probe_dim, dtype=np.complex128)
        p, back = returned[pattern]
        return back.probe_component(occ) * math.sqrt(p)

    bit0 = {n: weighted((0, 1), (0, n)) for n in range(1, n_max + 1)}
    bit1 = {n: weighted((1, 0), (n, 0)) for n in range(1, n_max + 1)}

    distance = float(np.linalg.norm(bit0[1] - bit1[1]))
    multi = {n: float(np.linalg.norm(bit0[n]) + np.linalg.norm(bit1[n]))
             for n in range(2, n_max + 1)}

    conflict = 0.0
    for pattern, ok in allowed.items():
        if pattern not in returned:
            continue
        p, back = returned[pattern]
        conflict += p * sum(q for occ, q in back.occupation_distribution(Z).items()
                            if not ok(occ))

    detectable = (alice_11 > EXACT_TOL or minus_click > EXACT_TOL
                  or conflict > EXACT_TOL)
    return ConstraintReport(
        alice_11_prob=alice_11,
        bob_minus_click_prob=minus_click,
        bit_probe_distance=distance,
        multiphoton_return_norms=multi,
        sift_conflict_prob=conflict,
        verdict="detectable" if detectable else "undetectable",
    )


def _principal_vector(columns: List[np.ndarray], rank_tol: float = 1e-9
                      ) -> Tuple[Optional[np.ndarray], str]:
    """Collapse probe columns into one vector when they are effectively rank one."""
    mat = np.stack(columns, axis=1)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    if s[0] <= 1e-15:
        return None, "zero"
    if len(s) > 1 and s[1] > rank_tol * s[0]:
        return None, "mixed"
    return u[:, 0] * s[0], "ok"


def eve_leakage(attack: AttackSpec, n_max: int = 3) -> LeakageReport:
    """Fidelity and trace distance between Eve's probes for key bit 0 vs 1
    in the two-way protocol.

    Conditions on the branches that produce key bits: Alice measured a single
    detector and Bob's matching detector clicked.  Pure conditionals only;
    branches of zero probability or effective rank above one are reported as
    undefined rather than silently averaged.
    """
    returned = _sift_and_return(attack, _outbound_state(attack, n_max),
                                THRESHOLD, ((0, 1), (1, 0)))
    if len(returned) < 2:
        return LeakageReport(None, None,
                             detail="a key-bit branch has zero probability")
    vecs = []
    for bit, (p, back) in enumerate((returned[(0, 1)], returned[(1, 0)])):
        vec, status = _principal_vector(
            [back.probe_component((0, n) if bit == 0 else (n, 0)) * math.sqrt(p)
             for n in range(1, n_max + 1)])
        if status != "ok":
            why = ("branch has zero probability" if status == "zero"
                   else "conditional probe is not pure")
            return LeakageReport(None, None, detail=f"bit-{bit} {why}")
        vecs.append(vec)
    v0, v1 = vecs

    n0, n1 = np.linalg.norm(v0), np.linalg.norm(v1)
    fid = float(abs(np.vdot(v0, v1)) / (n0 * n1))
    fid = min(fid, 1.0)
    return LeakageReport(conditional_fidelity=fid,
                         trace_distance=math.sqrt(max(0.0, 1.0 - fid * fid)))


@dataclass
class LemmaSummary:
    """Outcome of the numerical two-sided undetectability verification.

    ``checks`` holds each of the lemma's conditions once, as ``(name,
    passed, detail)``, and ``passed`` is whether all of them hold.
    """
    forward_max_minus_prob: float = 0.0
    forward_min_fidelity: float = 1.0
    converse_min_minus_prob: float = math.inf
    single_photon_prediction_max_err: float = 0.0
    decomposition_max_err: float = 0.0
    passed: bool = False
    failures: List[str] = field(default_factory=list)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)


def lemma_verify(n_max: int = 3, trials: int = 200, seed: int = 0,
                 probe_dims: Tuple[int, ...] = (1, 2, 3, 4)) -> LemmaSummary:
    """Two-sided check of the reflection-round undetectability criterion.

    Forward: attacks built to satisfy every constraint never produce a
    minus-mode click and leak nothing.  Converse: attacks breaking exactly
    one constraint always produce a strictly positive minus-click
    probability, equal to half the squared probe mismatch for the
    single-photon case.  Also re-derives the even/odd split of an n-photon
    return component numerically.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2 to exercise every rule")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, not {trials}")
    summary = LemmaSummary()

    for t in range(trials):
        d = probe_dims[t % len(probe_dims)]
        attack = constrained_random_attack(seed * 1_000_003 + t, probe_dim=d,
                                           n_max=n_max)
        report = check_constraints(attack, n_max=n_max)
        summary.forward_max_minus_prob = max(summary.forward_max_minus_prob,
                                             report.bob_minus_click_prob)
        leak = eve_leakage(attack, n_max=n_max)
        if leak.conditional_fidelity is None:
            summary.failures.append(f"forward trial {t}: leakage {leak.detail}")
        else:
            summary.forward_min_fidelity = min(summary.forward_min_fidelity,
                                               leak.conditional_fidelity)

    # a forward trial whose leakage is undefined leaves the fidelity alone
    leaks = list(summary.failures)

    levels = list(range(2, n_max + 1))
    for t in range(trials):
        d = probe_dims[t % len(probe_dims)]
        if t % 2 == 0:
            attack = constrained_random_attack(
                seed * 2_000_003 + t, probe_dim=d, n_max=n_max,
                violation="single-photon-mismatch")
        else:
            attack = constrained_random_attack(
                seed * 2_000_003 + t, probe_dim=d, n_max=n_max,
                violation="multi-photon-return",
                violation_level=levels[(t // 2) % len(levels)])
        report = check_constraints(attack, n_max=n_max)
        summary.converse_min_minus_prob = min(summary.converse_min_minus_prob,
                                              report.bob_minus_click_prob)
        if report.bob_minus_click_prob <= EXACT_TOL:
            summary.failures.append(
                f"converse trial {t}: violating attack stayed invisible")
        if t % 2 == 0:
            predicted = report.bit_probe_distance ** 2 / 2.0
            err = abs(report.bob_minus_click_prob - predicted)
            summary.single_photon_prediction_max_err = max(
                summary.single_photon_prediction_max_err, err)

    summary.decomposition_max_err = _parity_decomposition_error(n_max, seed)

    fidelity = f"min fidelity {summary.forward_min_fidelity:.12f}"
    summary.checks = [
        ("forward-no-minus-clicks",
         summary.forward_max_minus_prob <= EXACT_TOL,
         f"{trials} attacks, max prob "
         f"{summary.forward_max_minus_prob:.2e}"),
        ("forward-zero-leakage",
         not leaks and summary.forward_min_fidelity >= 1.0 - FIDELITY_TOL,
         f"{fidelity}; {leaks[0]}" if leaks else fidelity),
        # a converse failure is a trial at or below EXACT_TOL: counted here
        ("converse-always-visible",
         summary.converse_min_minus_prob > EXACT_TOL,
         f"{trials} attacks, min prob "
         f"{summary.converse_min_minus_prob:.2e}"),
        ("single-photon-click-magnitude",
         summary.single_photon_prediction_max_err <= PREDICTION_TOL,
         f"max |observed - mismatch^2/2| = "
         f"{summary.single_photon_prediction_max_err:.2e}"),
        ("parity-decomposition",
         summary.decomposition_max_err <= DECOMPOSITION_TOL,
         f"max residual {summary.decomposition_max_err:.2e}"),
    ]
    summary.passed = all(passed for _name, passed, _detail in summary.checks)
    return summary


def _parity_decomposition_error(n_max: int, seed: int) -> float:
    """Numerical check that an n-photon return splits over the parity states.

    For probe vectors A, B:  A|0,n> + B|n,0>  equals
    [(A+B)/sqrt(2)] (|0,n>+|n,0>)/sqrt(2) + [(A-B)/sqrt(2)] (|0,n>-|n,0>)/sqrt(2).
    """
    rng = np.random.default_rng(seed + 11)
    d = 4
    worst = 0.0
    for n in range(2, n_max + 1):
        a = rng.normal(size=d) + 1j * rng.normal(size=d)
        b = rng.normal(size=d) + 1j * rng.normal(size=d)
        r = 1.0 / math.sqrt(2.0)

        lhs = (np.outer(a, make_basis_state((0, n), Z, n_max))
               + np.outer(b, make_basis_state((n, 0), Z, n_max)))
        rhs = (np.outer((a + b) * r, parity_state(n, "even", Z, n_max))
               + np.outer((a - b) * r, parity_state(n, "odd", Z, n_max)))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def b92_conclusive_prob(overlap: float) -> float:
    """Probability that the receiver's random-basis measurement is conclusive."""
    if not 0.0 <= overlap < 1.0:
        raise ValueError("overlap must lie in [0, 1)")
    return 0.5 * (1.0 - overlap ** 2)


def b92_breakable(lossrate: float, overlap: float) -> bool:
    """Intercept-resend through conclusive measurements hides inside the loss
    budget once the loss rate reaches one minus the conclusive probability."""
    return lossrate >= 0.5 * (1.0 + overlap ** 2)


def b92_povm_breakable(lossrate: float, overlap: float) -> bool:
    """Threshold for the stronger generalized-measurement discriminator:
    the loss rate only needs to reach the state overlap itself."""
    return lossrate >= overlap


@dataclass(frozen=True)
class PnsFeasibility:
    expected_count: float
    threshold_ratio: float
    feasible: bool


def pns_feasibility(p0: float, p1: float, p2: float, transmission: float,
                    rounds: int) -> PnsFeasibility:
    """Photon-splitting viability for a pulsed source over a lossy channel.

    The receiver expects ``X = (F*p1 + (1-(1-F)^2)*p2) * N`` non-empty pulses.
    Splitting alone can cover that exactly when ``p2*(1-F)^2 >= p1*F``, i.e.
    the two-photon pulse count itself reaches X.
    """
    # written so that a NaN fails them
    for name, p in (("p0", p0), ("p1", p1), ("p2", p2)):
        if not p >= -1e-12:
            raise ValueError(f"{name} must be non-negative")
    if not abs(p0 + p1 + p2 - 1.0) <= 1e-12:
        raise ValueError("pulse-size probabilities must sum to 1")
    if not 0.0 <= transmission <= 1.0:
        raise ValueError("transmission must lie in [0, 1]")
    f = transmission
    x = (f * p1 + (1.0 - (1.0 - f) ** 2) * p2) * rounds
    ratio = math.inf if f == 1.0 else f / (1.0 - f) ** 2
    # same inequality as p2/p1 >= F/(1-F)^2, kept division-free
    feasible = p2 * (1.0 - f) ** 2 >= p1 * f
    return PnsFeasibility(expected_count=x, threshold_ratio=ratio,
                          feasible=feasible)
