"""Run-wide knobs: search budgets, site truncation bounds, operad table caps."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Budget:
    # search nodes allowed per oracle call before SearchBudgetExceeded
    nodes: int = 10**6


@dataclass(frozen=True)
class SiteBounds:
    max_vertices: int = 3
    max_edges: int = 6
    max_arity: int = 3


@dataclass(frozen=True)
class OperadCaps:
    # longest profile tabulated, and most operations per profile
    max_arity: int = 4
    max_ops_per_profile: int = 16


DEFAULT_BUDGET = Budget()
DEFAULT_BOUNDS = SiteBounds()
DEFAULT_CAPS = OperadCaps()
