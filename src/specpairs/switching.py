"""Spectrum-preserving partition switching.

A plan names disjoint vertex classes X_1..X_m inside a graph; every
vertex outside them is "free".  The plan is admissible when

(i)  for each ordered class pair (i, j), all vertices of X_i have the
     same number of neighbors in X_j (including i == j), and
(ii) every free vertex has exactly 0, |X_i|/2, or |X_i| neighbors in
     each class X_i.

Switching complements the adjacency between each class and exactly
those free vertices seeing half of it.  The operation preserves the
adjacency spectrum and is an involution; ``switch`` refuses
inadmissible plans so those guarantees always hold on outputs.  The
Laplacian spectrum is preserved too when the graph is regular, but an
irregular graph's can change.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _integer

__all__ = [
    "SwitchingPlan",
    "Violation",
    "ValidationReport",
    "InvalidPlanError",
    "validate_plan",
    "switch",
]


@dataclass(frozen=True)
class SwitchingPlan:
    """Disjoint vertex classes on a graph of a stated order.

    The free set is implicit: every vertex of range(n) in no class.
    Class membership is normalized to sorted tuples; overlapping or
    out-of-range classes are rejected at construction, and so are a
    negative order, an order or a member that is not an integer (bools
    and floats included) and classes that are not iterables.
    """

    n: int
    classes: tuple

    def __init__(self, n, classes):
        n = _integer(n, "n")
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        if not isinstance(classes, Iterable):
            raise ValueError(f"classes must be a list of classes, got {classes!r}")
        norm = []
        seen = set()
        for ci, cls in enumerate(classes):
            if not isinstance(cls, Iterable):
                raise ValueError(f"class {ci} must be a list of vertices, got {cls!r}")
            members = sorted(_integer(v, f"class {ci} member") for v in cls)
            if not members:
                raise ValueError(f"class {ci} is empty")
            for v in members:
                if not (0 <= v < n):
                    raise ValueError(
                        f"class {ci} contains vertex {v}, out of range for n={n}"
                    )
                if v in seen:
                    raise ValueError(f"vertex {v} appears in two classes")
                seen.add(v)
            norm.append(tuple(members))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "classes", tuple(norm))

    @property
    def free(self) -> tuple:
        """Vertices in no class, ascending."""
        member = set()
        for cls in self.classes:
            member.update(cls)
        return tuple(v for v in range(self.n) if v not in member)

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "classes": [list(c) for c in self.classes]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "SwitchingPlan":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"plan is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict) or "n" not in obj or "classes" not in obj:
            raise ValueError('plan JSON must be {"n": ..., "classes": [...]}')
        return cls(obj["n"], obj["classes"])


@dataclass(frozen=True)
class Violation:
    """One admissibility failure.

    condition: "class-regularity" for (i), "free-vertex-count" for (ii).
    subject: (vertex, class index) the failure is about.
    detail: human-readable specifics.
    """

    condition: str
    subject: tuple
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple

    def __bool__(self):
        return self.valid


class InvalidPlanError(ValueError):
    """Raised by ``switch`` for an inadmissible plan; carries the report."""

    def __init__(self, report: ValidationReport):
        head = "; ".join(v.detail for v in report.violations[:3])
        more = len(report.violations) - 3
        if more > 0:
            head += f"; and {more} more"
        super().__init__(f"plan violates switching conditions: {head}")
        self.report = report


def validate_plan(g: Graph, plan: SwitchingPlan) -> ValidationReport:
    """Check conditions (i) and (ii); collects every violation."""
    if plan.n != g.n:
        raise ValueError(f"plan is for n={plan.n}, graph has n={g.n}")
    adj = g.adj
    violations = []
    for i, ci in enumerate(plan.classes):
        for j, cj in enumerate(plan.classes):
            counts = adj[np.ix_(ci, cj)].sum(axis=1)
            ref = int(counts[0])
            for v, c in zip(ci, counts):
                if int(c) != ref:
                    violations.append(
                        Violation(
                            "class-regularity",
                            (int(v), j),
                            f"vertex {v} has {int(c)} neighbors in class {j}, "
                            f"but vertex {ci[0]} has {ref}",
                        )
                    )
    free = plan.free
    for i, ci in enumerate(plan.classes):
        size = len(ci)
        counts = adj[np.ix_(free, ci)].sum(axis=1)
        for y, c in zip(free, counts):
            if int(c) not in (0, size) and 2 * int(c) != size:
                violations.append(
                    Violation(
                        "free-vertex-count",
                        (int(y), i),
                        f"free vertex {y} has {int(c)} neighbors in class {i} "
                        f"of size {size}; admissible counts are 0, "
                        f"{size}/2, {size}",
                    )
                )
    return ValidationReport(not violations, tuple(violations))


def switch(g: Graph, plan: SwitchingPlan) -> Graph:
    """Apply an admissible plan, complementing each class's adjacency to
    the free vertices that see exactly half of it.

    Raises InvalidPlanError (with the full report) on an inadmissible
    plan.  Applying the same plan twice restores the input.
    """
    report = validate_plan(g, plan)
    if not report.valid:
        raise InvalidPlanError(report)
    a = g.adj.copy()
    free = np.array(plan.free, dtype=np.intp)
    for cls in plan.classes:
        if free.size == 0:
            break
        ci = np.array(cls, dtype=np.intp)
        counts = g.adj[np.ix_(free, ci)].sum(axis=1)
        half = free[2 * counts == len(cls)]
        if half.size:
            a[np.ix_(half, ci)] ^= True
            a[np.ix_(ci, half)] ^= True
    return Graph(g.n, a)
