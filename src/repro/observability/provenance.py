"""Structured optimizer/translator provenance.

Every plan decision — an optimizer pass that fired, a translator
buffer-reuse substitution, a cost-based strategy pick — is recorded as one
:class:`RewriteEvent` on the owning :attr:`Dag.rewrites
<repro.lolepop.base.Dag.rewrites>` log instead of an opaque string.

A :class:`RewriteEvent` is a plain record: ``str(event)`` is the
human-readable rewrite text, and the fields carry what regression
attribution needs — the pass name, the names of the affected DAG nodes, and
the estimated plan cost before/after the rewrite (priced by
:func:`repro.costmodel.dag_cost`). The *serialized* profile
(``QueryProfile.to_dict``) keeps a ``rewrites`` list of strings beside the
structured ``rewrite_events`` list (see :func:`rewrite_events_to_dicts`),
which is the shape ``tools/plan_diff.py`` and ``.profile json`` read.

Analyzer rule ``R5-stringly-rewrite`` (:mod:`repro.analysis.contracts`)
enforces that engine code appends through :meth:`Dag.record_rewrite
<repro.lolepop.base.Dag.record_rewrite>` (which constructs events), never a
bare string.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

__all__ = ["RewriteEvent", "rewrite_events_to_dicts"]


class RewriteEvent:
    """One recorded plan-rewrite decision.

    - ``text`` — the display text (``"elide_redundant_sorts x2"``,
      ``"buffer-reuse: ..."``), also ``str(event)``;
    - ``pass_name`` — the pass / decision family that fired;
    - ``detail`` — free-text qualifier (counts, reuse-spec summary);
    - ``nodes`` — ``describe()``-style names of the DAG nodes the rewrite
      touched (removed, substituted, or rewired), possibly empty;
    - ``cost_before`` / ``cost_after`` — estimated whole-DAG cost (see
      :func:`repro.costmodel.dag_cost`) around the rewrite, ``None`` for
      construction-time decisions where the "before" DAG never existed.
    """

    __slots__ = (
        "text", "pass_name", "detail", "nodes", "cost_before", "cost_after",
    )

    def __init__(
        self,
        text: str,
        pass_name: str,
        detail: str = "",
        nodes: Iterable[str] = (),
        cost_before: Optional[float] = None,
        cost_after: Optional[float] = None,
    ) -> None:
        self.text = text
        self.pass_name = pass_name
        self.detail = detail
        self.nodes: Tuple[str, ...] = tuple(nodes)
        self.cost_before = cost_before
        self.cost_after = cost_after

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"RewriteEvent({self.text!r}, pass_name={self.pass_name!r})"

    # ------------------------------------------------------------------
    @property
    def cost_delta(self) -> Optional[float]:
        """``cost_after - cost_before`` (negative = the rewrite made the
        plan cheaper), or ``None`` when either side is unknown."""
        if self.cost_before is None or self.cost_after is None:
            return None
        return self.cost_after - self.cost_before

    def to_dict(self) -> dict:
        out: dict = {
            "text": self.text,
            "pass": self.pass_name,
        }
        if self.detail:
            out["detail"] = self.detail
        if self.nodes:
            out["nodes"] = list(self.nodes)
        if self.cost_before is not None:
            out["cost_before"] = self.cost_before
        if self.cost_after is not None:
            out["cost_after"] = self.cost_after
        delta = self.cost_delta
        if delta is not None:
            out["cost_delta"] = delta
        return out

    def render_cost(self) -> str:
        """``"Δcost -12345 (67890 -> 55545)"`` or ``""`` without costs."""
        delta = self.cost_delta
        if delta is None:
            return ""
        return (
            f"Δcost {delta:+.0f} "
            f"({self.cost_before:.0f} -> {self.cost_after:.0f})"
        )


def rewrite_events_to_dicts(rewrites: Iterable[RewriteEvent]) -> List[dict]:
    """Structured view of a rewrites log (the profile's
    ``rewrite_events`` list)."""
    return [event.to_dict() for event in rewrites]
