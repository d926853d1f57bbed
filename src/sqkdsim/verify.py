"""Built-in verification suites behind the ``verify`` CLI command.

Three suites: ``fock`` replays the frozen exact-coefficient corpus against
the basis-change code, ``lemma`` runs the two-sided undetectability check
over random attacks, and ``thresholds`` pins the closed-form attack
viability numbers to hand-computed constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import analysis, fock

SUITES = ("fock", "lemma", "thresholds", "all")


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


def load_corpus() -> List[Tuple[int, int, int, float]]:
    """Rows (n, sign, k, coefficient) from the packaged exact table."""
    rows = []
    text = resources.files("sqkdsim").joinpath(
        "data/x_expansion_corpus.txt").read_text(encoding="utf-8")
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        n, sign, k, num, rad, den = line.split()
        coeff = int(num) * math.sqrt(int(rad)) / 2.0 ** int(den)
        rows.append((int(n), int(sign), int(k), coeff))
    return rows


def run_fock(seed: int) -> List[CheckResult]:
    results = []
    corpus = load_corpus()
    worst = 0.0
    for n, sign, k, coeff in corpus:
        worst = max(worst, abs(fock.x_expansion(n, sign)[k] - coeff))
    results.append(CheckResult(
        "fock", "expansion-rows-vs-corpus", worst <= 1e-12,
        f"{len(corpus)} rows, max deviation {worst:.2e}"))

    worst = 0.0
    for n, sign, k, coeff in corpus:
        occ = (0, n) if sign == +1 else (n, 0)
        state = fock.make_basis_state(occ, fock.X, n_max=6)
        amp = complex(state[fock.channel_basis(6).index[(k, n - k)]])
        worst = max(worst, abs(amp - coeff))
    results.append(CheckResult(
        "fock", "basis-change-vs-corpus", worst <= 1e-12,
        f"max deviation {worst:.2e}"))

    rng = np.random.default_rng(seed)
    had = fock.channel_basis(6).hadamard
    worst = 0.0
    for _ in range(50):
        amps = {}
        for _k in range(4):
            n1, n0 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            if n1 + n0 <= 6:
                amps[(n1, n0)] = complex(rng.normal(), rng.normal())
        state = fock.z_vector(amps, fock.Z, 6)
        norm = math.sqrt(sum(abs(a) ** 2 for a in state.tolist()))
        state = fock.floored((1.0 / norm) * state)
        back = fock.floored(fock.floored(state @ had) @ had)
        worst = max(worst, float(np.linalg.norm(back - state)))
    results.append(CheckResult(
        "fock", "double-transform-involution", worst <= 1e-10,
        f"50 random states, max residual {worst:.2e}"))
    return results


def run_lemma(seed: int, trials: int = 200) -> List[CheckResult]:
    summary = analysis.lemma_verify(n_max=4, trials=trials, seed=seed,
                                    probe_dims=(1, 2, 3, 4))
    return [CheckResult("lemma", name, passed, detail)
            for name, passed, detail in summary.checks]


def run_thresholds(seed: int) -> List[CheckResult]:
    results = []
    feas = analysis.pns_feasibility(0.89, 0.1, 0.01, 0.01, 10 ** 6)
    results.append(CheckResult(
        "thresholds", "pulsed-source-expected-count",
        abs(feas.expected_count - 1199.0) <= 1e-9,
        f"expected count {feas.expected_count!r}"))
    results.append(CheckResult(
        "thresholds", "splitting-threshold-ratio",
        abs(feas.threshold_ratio - 0.01 / 0.9801) <= 1e-15 and feas.feasible,
        f"ratio {feas.threshold_ratio!r}, feasible {feas.feasible}"))

    at = analysis.pns_feasibility(0.25, 0.25, 0.5, 0.5, 1000)
    below = analysis.pns_feasibility(0.2501, 0.25, 0.4999, 0.5, 1000)
    results.append(CheckResult(
        "thresholds", "splitting-flips-at-equality",
        at.feasible and not below.feasible,
        f"at ratio 2.0: {at.feasible}; just below: {below.feasible}"))

    ok = (abs(analysis.b92_conclusive_prob(0.0) - 0.5) == 0.0
          and abs(analysis.b92_conclusive_prob(0.5) - 0.375) <= 1e-15
          and abs(analysis.b92_conclusive_prob(0.8) - 0.18) <= 1e-15)
    results.append(CheckResult(
        "thresholds", "two-state-conclusive-probability", ok,
        "checked overlaps 0, 0.5, 0.8"))

    ok = (analysis.b92_breakable(0.625, 0.5)
          and not analysis.b92_breakable(0.624, 0.5)
          and analysis.b92_breakable(0.5, 0.0))
    results.append(CheckResult(
        "thresholds", "two-state-loss-threshold", ok,
        "breakable iff lossrate >= (1+overlap^2)/2"))

    ok = (analysis.b92_povm_breakable(0.51, 0.5)
          and not analysis.b92_povm_breakable(0.49, 0.5))
    results.append(CheckResult(
        "thresholds", "generalized-measurement-threshold", ok,
        "breakable iff lossrate >= overlap"))
    return results


def run_suite(suite: str, seed: int, trials: int = 200) -> List[CheckResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, not {seed}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, not {trials}")
    runners: Dict[str, Callable[[], List[CheckResult]]] = {
        "fock": lambda: run_fock(seed),
        "lemma": lambda: run_lemma(seed, trials),
        "thresholds": lambda: run_thresholds(seed),
    }
    if suite == "all":
        out: List[CheckResult] = []
        for name in ("fock", "lemma", "thresholds"):
            out.extend(runners[name]())
        return out
    return runners[suite]()
