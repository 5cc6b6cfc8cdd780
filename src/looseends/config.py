"""Run-wide knobs: search budgets, site truncation bounds, operad table caps."""

from .records import Record, setfield


class Budget(Record):
    # search nodes allowed per oracle call before SearchBudgetExceeded
    __slots__ = ("nodes",)

    def __init__(self, nodes=10**6):
        setfield(self, "nodes", nodes)


class SiteBounds(Record):
    __slots__ = ("max_vertices", "max_edges", "max_arity")

    def __init__(self, max_vertices=3, max_edges=6, max_arity=3):
        setfield(self, "max_vertices", max_vertices)
        setfield(self, "max_edges", max_edges)
        setfield(self, "max_arity", max_arity)


class OperadCaps(Record):
    # longest profile tabulated, and most operations per profile
    __slots__ = ("max_arity", "max_ops_per_profile")

    def __init__(self, max_arity=4, max_ops_per_profile=16):
        setfield(self, "max_arity", max_arity)
        setfield(self, "max_ops_per_profile", max_ops_per_profile)


DEFAULT_BUDGET = Budget()
DEFAULT_BOUNDS = SiteBounds()
DEFAULT_CAPS = OperadCaps()
