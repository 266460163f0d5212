"""Declarative fault plans.

A :class:`FaultPlan` is an ordered list of typed :class:`FaultEvent`
records — *what* goes wrong, *where*, and *when* — kept deliberately
free of any live simulation object so a plan can travel inside a
:class:`~repro.experiments.runner.RunSpec`'s JSON-able parameters,
be hashed into cache keys, and be replayed bit-identically in any
worker process.  Compiling a plan onto a kernel is the
:class:`~repro.faults.injector.FaultInjector`'s job.

Supported event kinds
---------------------
``link_flap``
    Hard outage of one link: ``fail()`` at ``at``, ``restore()`` at
    ``at + duration``.
``link_down``
    Permanent outage of one link: ``fail()`` at ``at`` with no
    restore.  The backbone-failure event of the fig11 rerouting
    scenarios — recovery must come from the routing plane, not the
    fault clearing.
``loss_burst``
    Correlated random loss on one link: every packet crossing the
    link during the window is dropped with probability ``loss``
    (drawn from the injector's named RNG stream).
``link_degrade``
    Bandwidth collapse: the link serializes at ``factor`` times its
    nominal rate for the window (a congested or flapping carrier).
``node_crash``
    Crash-and-restart of a router or host NIC: every attached link
    fails for the window; with ``lose_state`` (default) the node's
    RSVP agent forgets all path and reservation state, as a reboot
    would.
``resv_loss``
    RSVP state loss: transit agents silently drop the installed
    reservation (token bucket + booked rate) for one flow, without
    any signaling.  Models lost router state; with no soft-state
    refresh, only a re-signal by the sender re-installs it.

A ``link`` or ``node`` target is a name (a ``[device, device]`` pair,
a device name) or an int index: the injector takes it modulo the count
of the built network's links or nodes, in the sorted order its error
message lists them, so a plan of indexes holds on any topology.

A plan that names an unknown kind or field, a bad value, or (at
install) a link or node the topology lacks raises
:class:`FaultPlanError`, whose message names the event and the valid
choices.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["FaultEvent", "FaultPlan", "FaultPlanError", "KINDS"]

#: kind -> (required fields, optional fields with defaults)
KINDS: Dict[str, Tuple[Tuple[str, ...], Dict[str, Any]]] = {
    "link_flap": (("link", "at", "duration"), {}),
    "link_down": (("link", "at"), {}),
    "loss_burst": (("link", "at", "duration", "loss"), {}),
    "link_degrade": (("link", "at", "duration", "factor"), {}),
    "node_crash": (("node", "at", "duration"), {"lose_state": True}),
    "resv_loss": (("flow", "at"), {}),
}

_WINDOWED = ("link_flap", "loss_burst", "link_degrade", "node_crash")


class FaultPlanError(ValueError):
    """A fault event that cannot be parsed or whose target is missing."""


def _label(kind: str, fields: Dict[str, Any]) -> str:
    """``kind:where``, e.g. ``link_flap:r1-dst``; just ``kind`` when the
    fields name no target."""
    if isinstance(fields.get("link"), (list, tuple)):
        where = "-".join(str(end) for end in fields["link"])
    else:
        where = fields.get("node", fields.get("flow", fields.get("link")))
    return kind if where is None else f"{kind}:{where}"


class FaultEvent:
    """One typed fault occurrence.  Immutable and JSON-able."""

    __slots__ = ("kind", "fields")

    def __init__(self, kind: str, **fields: Any) -> None:
        def bad(problem: str) -> FaultPlanError:
            return FaultPlanError(f"fault {_label(kind, fields)}: {problem}")

        if kind not in KINDS:
            raise bad(f"unknown fault kind {kind!r}; choose from: "
                      f"{', '.join(sorted(KINDS))}")
        required, optional = KINDS[kind]
        unknown = set(fields) - set(required) - set(optional)
        if unknown:
            raise bad(f"unexpected fields {sorted(unknown)}; {kind} takes "
                      f"{', '.join((*required, *optional))}")
        missing = [f for f in required if f not in fields]
        if missing:
            raise bad(f"missing fields {missing}")
        merged = dict(optional)
        merged.update(fields)
        if merged["at"] < 0:
            raise bad("'at' must be >= 0")
        duration = merged.get("duration")
        if kind in _WINDOWED and (duration is None or duration <= 0):
            raise bad("'duration' must be positive")
        if kind == "loss_burst" and not 0.0 < merged["loss"] <= 1.0:
            raise bad("'loss' must be in (0, 1]")
        if kind == "link_degrade" and not 0.0 < merged["factor"] < 1.0:
            raise bad("'factor' must be in (0, 1)")
        if "link" in merged:
            link = merged["link"]
            if isinstance(link, (list, tuple)) and len(link) == 2:
                merged["link"] = [str(link[0]), str(link[1])]
            elif type(link) is not int:
                raise bad("'link' must be a [device, device] pair or an "
                          "index")
        if "node" in merged and type(merged["node"]) not in (str, int):
            raise bad("'node' must be a device name or an index")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "fields", merged)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("FaultEvent is immutable")

    # -- field access ---------------------------------------------------
    @property
    def at(self) -> float:
        return float(self.fields["at"])

    @property
    def until(self) -> Optional[float]:
        """End of the fault window, or None for point events."""
        duration = self.fields.get("duration")
        return None if duration is None else self.at + float(duration)

    def label(self) -> str:
        """Stable human-readable identity, e.g. ``link_flap:r1-dst``."""
        return _label(self.kind, self.fields)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind}
        out.update(self.fields)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultEvent":
        if not isinstance(data, dict) or "kind" not in data:
            raise FaultPlanError(
                f"fault {data!r}: expected an object with a 'kind'")
        data = dict(data)
        kind = data.pop("kind")
        return cls(kind, **data)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FaultEvent)
                and self.kind == other.kind
                and self.fields == other.fields)

    def __repr__(self) -> str:  # pragma: no cover
        fields = ", ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"FaultEvent({self.kind!r}, {fields})"


class FaultPlan:
    """An ordered collection of fault events.

    Events are stored in injection order (sorted by ``at``, ties kept
    in authoring order) so a plan's dict form is canonical: two plans
    with the same events serialize identically and hash identically
    in the result cache.
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        ordered = sorted(enumerate(events), key=lambda item: (item[1].at,
                                                              item[0]))
        self.events: Tuple[FaultEvent, ...] = tuple(e for _, e in ordered)

    # -- construction helpers -------------------------------------------
    @classmethod
    def from_dicts(cls, dicts: Sequence[Dict[str, Any]]) -> "FaultPlan":
        return cls(FaultEvent.from_dict(d) for d in dicts)

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [event.to_dict() for event in self.events]

    # -- introspection --------------------------------------------------
    def windows(self) -> List[Tuple[str, float, float]]:
        """(label, start, end) for every windowed fault; point events
        get a zero-width window."""
        return [(e.label(), e.at, e.until if e.until is not None else e.at)
                for e in self.events]

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultPlan) and self.events == other.events

    def __repr__(self) -> str:  # pragma: no cover
        return f"FaultPlan({list(self.events)!r})"
