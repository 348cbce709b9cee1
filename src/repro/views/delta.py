"""Mutation-event classification for incremental view maintenance.

The maintainer consumes the same typed :class:`MutationEvent` stream the
WAL and the plan cache ride.  Each event is classified once into an
:class:`EventContext` that every view's node tree then shares:

* ``anchors`` — the *removal anchors* of the event.  A delete anchors on
  the removed instance (every pattern that mentioned it — as a vertex or
  as an endpoint of any of its incident edges — contains it); an unlink
  anchors on the removed positive edge; a link anchors on the
  *complement* edge it destroys (complement-polarity operators lose
  exactly the patterns carrying that edge).  Inserts and value updates
  remove nothing and anchor on nothing.

  Anchors drive the central soundness shortcut: at a pattern-combining
  node (Associate, A-Intersect), an output pattern contains the union of
  its input patterns' contents plus any join edges, so when every child
  removal contains an anchor, filtering the node's materialization by
  ``anchor in pattern`` is an *exact* removal — complete because every
  derivation through a removed input carries the anchor, and minimal
  because post-event children hold no anchor-bearing patterns from which
  a dropped output could be re-derived.

* ``created_edge`` — the edge the event brings into the domain: a link
  creates the Inter-pattern ``(a b)``, an unlink the Complement-pattern
  ``(~a b)``.  A graph node joins standing patterns across it only when
  its polarity matches the node's own (Associate: regular, A-Complement:
  complement) and the event names the node's association.

* ``shared_pair`` — edges carry no association, so when a second
  association joins the same two classes, ``(a b)`` / ``(~a b)`` may
  still exist through it after the event and the anchor no longer
  singles out dead patterns.  Anchor-consuming nodes recompute instead.

* ``touched_classes`` / ``association`` — relevance tests for operators
  whose value is a function of the graph beyond their operands
  (NonAssociate reads complement edges; it must rescan when the event
  touches its end classes or its association).

* ``updated`` — the instance whose value changed, for σ nodes to
  re-filter only the patterns containing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.edges import Edge, complement, inter
from repro.core.identity import IID

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.database import MutationEvent
    from repro.schema.graph import SchemaGraph

__all__ = ["EventContext", "classify"]


@dataclass(frozen=True)
class EventContext:
    """One mutation event, classified for delta propagation."""

    kind: str
    instances: tuple[IID, ...]
    #: Removal anchors (IIDs and/or edges); empty for insert/update.
    anchors: tuple[object, ...]
    #: The edge a link (regular) or unlink (complement) created, else ``None``.
    created_edge: Edge | None
    #: The association name a link/unlink event names, ``None`` otherwise.
    association: str | None
    #: The instance whose value an update event changed, ``None`` otherwise.
    updated: IID | None
    touched_classes: frozenset[str] = field(default=frozenset())
    #: A link/unlink between two classes that another association also joins.
    shared_pair: bool = False

    def anchored(self, pattern) -> bool:
        """Whether the pattern contains any of the event's anchors."""
        return any(anchor in pattern for anchor in self.anchors)


def classify(event: "MutationEvent", schema: "SchemaGraph") -> EventContext:
    """Classify one mutation event for the maintainer node trees."""
    kind = event.kind
    touched = frozenset(i.cls for i in event.instances)
    anchors: tuple[object, ...] = ()
    created_edge: Edge | None = None
    updated: IID | None = None
    if kind == "delete":
        anchors = tuple(event.instances)
    elif kind == "unlink":
        a, b = event.instances
        anchors = (inter(a, b),)
        created_edge = complement(a, b)
    elif kind == "link":
        a, b = event.instances
        # Linking destroys the complement edge between the endpoints:
        # complement-polarity patterns carrying it are the removals.
        anchors = (complement(a, b),)
        created_edge = inter(a, b)
    elif kind == "update":
        (updated,) = event.instances
    shared_pair = created_edge is not None and (
        len(schema.associations_between(created_edge.u.cls, created_edge.v.cls)) > 1
    )
    return EventContext(
        kind=kind,
        instances=tuple(event.instances),
        anchors=anchors,
        created_edge=created_edge,
        association=event.association,
        updated=updated,
        touched_classes=touched,
        shared_pair=shared_pair,
    )
