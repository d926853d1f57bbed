"""Simulator and adversary framework for photonic QKD with a classical Alice.

Two-mode Fock-space state algebra with exact basis changes, protocol
engines for the two-way classical-Alice scheme plus one-way BB84/B92
baselines, a library of eavesdropping attacks, and exact detection and
leakage analysis.  Monte-Carlo rounds are sampled by one vectorized numpy
walk over precomputed branch tables (``sqkdsim.kernels``).
"""

from .fock import (
    ChannelBasis,
    X,
    Z,
    make_basis_state,
    parity_state,
    x_expansion,
    z_vector,
)
from .joint import JointState
from .attacks import (
    AttackSpec,
    constrained_random_attack,
    general_attack,
    identity_attack,
    pns_attack,
    tagging_attack,
    usd_attack_b92,
)
from .analysis import (
    ConstraintReport,
    LeakageReport,
    b92_breakable,
    b92_conclusive_prob,
    check_constraints,
    eve_leakage,
    pns_feasibility,
)
from .protocol import (
    ProtocolConfig,
    RunReport,
    alice_sift,
    run,
)
from .scenario import Scenario, describe_attack, list_attacks, load_scenario

__all__ = [
    "AttackSpec",
    "ChannelBasis",
    "ConstraintReport",
    "JointState",
    "LeakageReport",
    "ProtocolConfig",
    "RunReport",
    "Scenario",
    "X",
    "Z",
    "alice_sift",
    "b92_breakable",
    "b92_conclusive_prob",
    "check_constraints",
    "constrained_random_attack",
    "describe_attack",
    "eve_leakage",
    "general_attack",
    "identity_attack",
    "list_attacks",
    "load_scenario",
    "make_basis_state",
    "parity_state",
    "pns_attack",
    "pns_feasibility",
    "run",
    "tagging_attack",
    "usd_attack_b92",
    "x_expansion",
    "z_vector",
]

__version__ = "0.1.0"
