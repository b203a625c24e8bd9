"""Verdicts with criterion-level evidence records.

The criteria differ in logical strength, and a verdict never collapses them
into a bare boolean.  Each evidence item carries a *sufficiency class*:

* ``rigorous-sufficient`` -- a finite certificate (e.g. the Carleman sum with
  a caller-certified growth bound, or exact finite-rank degeneracy).
* ``limit-rigorous-numeric`` -- the criterion is exact in the limit and the
  finite-degree trend is unambiguous (e.g. a Christoffel plateau); always
  flagged numeric.
* ``necessary-only`` -- the quantity is a necessary-condition probe; it can
  support but never establish a verdict.
* ``heuristic`` -- grid-relaxed or threshold-based estimates.

Status rules: ``DETERMINATE`` requires at least one rigorous-sufficient item
supporting it; ``INDETERMINATE`` requires at least one limit-rigorous-numeric
item, so an indeterminate verdict is always numeric-flagged
(``Verdict.numeric_flagged`` is read off the status); conflicting or
insufficient evidence yields ``INCONCLUSIVE``.
"""

from __future__ import annotations

import enum
from typing import Any, NamedTuple


class Status(enum.Enum):
    DETERMINATE = "determinate"
    INDETERMINATE = "indeterminate"
    INCONCLUSIVE = "inconclusive"


class Flavor(enum.Enum):
    HAMBURGER = "hamburger"   # support on the whole line
    STIELTJES = "stieltjes"   # support on [0, inf)


class Sufficiency(enum.Enum):
    RIGOROUS_SUFFICIENT = "rigorous-sufficient"
    LIMIT_RIGOROUS_NUMERIC = "limit-rigorous-numeric"
    NECESSARY_ONLY = "necessary-only"
    HEURISTIC = "heuristic"


class Leaning(enum.Enum):
    """Which status an evidence item supports."""

    DETERMINATE = "determinate"
    INDETERMINATE = "indeterminate"
    NEUTRAL = "neutral"


class Evidence(NamedTuple):
    criterion: str
    degree: int
    value: Any
    sufficiency: Sufficiency
    leaning: Leaning = Leaning.NEUTRAL
    detail: str = ""

    def as_dict(self, value_formatter=str) -> dict:
        return {
            "criterion": self.criterion,
            "degree": self.degree,
            "value": value_formatter(self.value),
            "sufficiency": self.sufficiency.value,
            "leaning": self.leaning.value,
            "detail": self.detail,
        }


class Verdict(NamedTuple):
    status: Status
    flavor: Flavor
    evidence: tuple

    @property
    def numeric_flagged(self) -> bool:
        return self.status is Status.INDETERMINATE

    def as_dict(self, value_formatter=str) -> dict:
        return {
            "status": self.status.value,
            "flavor": self.flavor.value,
            "numeric_flagged": self.numeric_flagged,
            "evidence": [e.as_dict(value_formatter) for e in self.evidence],
        }


def synthesize(flavor: Flavor, evidence: list) -> Verdict:
    """Combine evidence items under the status rules above."""
    ev = tuple(evidence)
    det_rigorous = any(e.leaning is Leaning.DETERMINATE
                       and e.sufficiency is Sufficiency.RIGOROUS_SUFFICIENT for e in ev)
    ind_limit = any(e.leaning is Leaning.INDETERMINATE
                    and e.sufficiency is Sufficiency.LIMIT_RIGOROUS_NUMERIC for e in ev)
    if det_rigorous and not ind_limit:
        return Verdict(Status.DETERMINATE, flavor, ev)
    if ind_limit and not det_rigorous:
        return Verdict(Status.INDETERMINATE, flavor, ev)
    return Verdict(Status.INCONCLUSIVE, flavor, ev)
