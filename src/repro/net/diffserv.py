"""DiffServ codepoints and per-hop behaviour classification.

The paper marks video flows with the Expedited Forwarding codepoint
("Diffserv CodePoint = EF", Figure 2) so DiffServ-enabled routers give
them "preferred delivery ... against lower priority competing traffic".

This module defines the standard codepoints (RFC 2474/2597/3246 values)
and the mapping from codepoint to service class used by
:class:`repro.net.queues.DiffServQueue`.
"""

from __future__ import annotations

import enum


class Dscp(enum.IntEnum):
    """DiffServ codepoints (6-bit values)."""

    BE = 0  # best effort / default PHB
    # Assured Forwarding: AFxy = class x, drop precedence y.
    AF11 = 10
    AF12 = 12
    AF13 = 14
    AF21 = 18
    AF22 = 20
    AF23 = 22
    AF31 = 26
    AF32 = 28
    AF33 = 30
    AF41 = 34
    AF42 = 36
    AF43 = 38
    # Class selectors (backward compatible with IP precedence).
    CS1 = 8
    CS2 = 16
    CS3 = 24
    CS4 = 32
    CS5 = 40
    CS6 = 48
    CS7 = 56
    # Expedited Forwarding.
    EF = 46


# Read per request by the ORB's DSCP fallback: a module global, not an
# attribute load on the class, which ``EnumMeta.__getattr__`` slows
# (CPython 3.10 / 3.11).
BE = Dscp.BE


class PhbClass(enum.IntEnum):
    """Service classes, ordered from most to least preferred.

    Lower numeric value = served first by strict-priority schedulers.
    """

    EXPEDITED = 0  # EF: low-loss, low-latency, strict priority
    ASSURED4 = 1
    ASSURED3 = 2
    ASSURED2 = 3
    ASSURED1 = 4
    DEFAULT = 5  # best effort


_AF_CLASSES = {
    1: PhbClass.ASSURED1,
    2: PhbClass.ASSURED2,
    3: PhbClass.ASSURED3,
    4: PhbClass.ASSURED4,
}


def _classify(dscp: Dscp) -> PhbClass:
    if dscp == Dscp.EF or dscp in (Dscp.CS5, Dscp.CS6, Dscp.CS7):
        return PhbClass.EXPEDITED
    value = int(dscp)
    if 10 <= value <= 38 and value not in (16, 24, 32):
        return _AF_CLASSES[value >> 3]
    return PhbClass.DEFAULT


def drop_precedence(dscp: Dscp) -> int:
    """AF drop precedence (1..3); non-AF codepoints get the lowest (1)."""
    value = int(dscp)
    if 10 <= value <= 38 and value not in (16, 24, 32):
        return ((value >> 1) & 0x3)
    return 1


#: RFC 2597 drop precedence -> the band-fill fraction above which it is
#: rejected (precedence 1 only drops when the band is full).
DROP_PRECEDENCE_THRESHOLDS = {1: 1.0, 2: 2.0 / 3.0, 3: 1.0 / 3.0}


def band_of(dscp: Dscp) -> tuple:
    """``(band, AF drop-precedence fill fraction | None)``, computed."""
    phb = _classify(dscp)
    if PhbClass.ASSURED4 <= phb <= PhbClass.ASSURED1:
        return phb, DROP_PRECEDENCE_THRESHOLDS[drop_precedence(dscp)]
    return phb, None


# Classification runs once per enqueue on every hop — the hottest
# per-packet code in the simulator — so it is precomputed over the
# (closed) codepoint set into the one table every queue shares (a queue
# keeps only its band capacities): codepoint -> :func:`band_of`, which
# is also the fallback for codepoints outside the set.
BAND_OF: dict = {dscp: band_of(dscp) for dscp in Dscp}


def classify(dscp: Dscp) -> PhbClass:
    """Map a codepoint to its per-hop behaviour class.

    EF and CS5..CS7 land in the expedited class; AF classes keep their
    relative ordering; everything else is best effort.
    """
    entry = BAND_OF.get(dscp)
    return entry[0] if entry is not None else _classify(dscp)
