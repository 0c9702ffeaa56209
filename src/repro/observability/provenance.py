"""Structured optimizer/translator provenance.

Every plan decision — an optimizer pass that fired, a translator
buffer-reuse substitution, the §3.3 DISTINCT strategy pick — is recorded as
one :class:`RewriteEvent` on the owning :attr:`Dag.rewrites
<repro.lolepop.base.Dag.rewrites>` log instead of an opaque string.

A :class:`RewriteEvent` is a plain record of what fired: ``str(event)`` is
the human-readable rewrite text, and the fields carry what regression
attribution needs — the pass name, a qualifier, and the names of the
affected DAG nodes. It carries no price: the only prices the engine
compares are the §3.3 decision's own, which that event writes into its
``detail``. A run's :attr:`QueryResult.rewrites
<repro.lolepop.engine.QueryResult.rewrites>` holds the logical plan's
events, then each DAG's; the serialized profile
(:func:`~repro.observability.metrics.profile_dict`) writes that log once,
as the ``rewrites`` list of :meth:`RewriteEvent.to_dict` dicts, which is
the shape ``tools/plan_diff.py`` and ``.profile json`` read.

Engine code appends through :meth:`Dag.record_rewrite
<repro.lolepop.base.Dag.record_rewrite>` (which constructs events), never a
bare string: a string in the log breaks every reader of the fields.
"""

from __future__ import annotations

from typing import Iterable, Tuple

__all__ = ["RewriteEvent"]


class RewriteEvent:
    """One recorded plan-rewrite decision.

    - ``text`` — the display text (``"elide_redundant_sorts x2"``,
      ``"buffer-reuse: ..."``), also ``str(event)``;
    - ``pass_name`` — the pass / decision family that fired;
    - ``detail`` — free-text qualifier (counts, reuse-spec summary, the
      §3.3 decision's two prices);
    - ``nodes`` — ``describe()``-style names of the DAG nodes the rewrite
      touched (removed, substituted, or rewired), possibly empty.
    """

    __slots__ = ("text", "pass_name", "detail", "nodes")

    def __init__(
        self,
        text: str,
        pass_name: str,
        detail: str = "",
        nodes: Iterable[str] = (),
    ) -> None:
        self.text = text
        self.pass_name = pass_name
        self.detail = detail
        self.nodes: Tuple[str, ...] = tuple(nodes)

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"RewriteEvent({self.text!r}, pass_name={self.pass_name!r})"

    def to_dict(self) -> dict:
        out: dict = {
            "text": self.text,
            "pass": self.pass_name,
        }
        if self.detail:
            out["detail"] = self.detail
        if self.nodes:
            out["nodes"] = list(self.nodes)
        return out
