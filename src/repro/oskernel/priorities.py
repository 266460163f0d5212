"""Native priority ranges for the operating systems in the paper.

Figure 2 of the paper shows one RT-CORBA priority (100) landing on
different native priorities per OS: QNX 16, LynxOS 128, Solaris 136.
The ORB's priority-mapping layer (:mod:`repro.orb.rt`) converts CORBA
priorities (0..32767) into these native ranges; this module records the
ranges themselves.

Higher native value always means "more important" in this simulation
(real Solaris/Linux nice semantics differ, but RT classes on all four
systems are higher-is-stronger, which is the convention RT-CORBA
mappings normalize to).
"""

from __future__ import annotations

import enum
from typing import Tuple


class OsType(enum.Enum):
    """Operating systems appearing in the paper's testbed and Figure 2."""

    LINUX = "linux"
    TIMESYS_LINUX = "timesys-linux"
    QNX = "qnx"
    LYNXOS = "lynxos"
    SOLARIS = "solaris"

    # ``_RANGES[os_type]`` runs per served request; ``Enum.__hash__`` is
    # a Python-level ``hash(self._name_)``.  Members are singletons, so
    # the identity hash is the same equivalence at C speed.
    __hash__ = object.__hash__


#: (min, max) native real-time priority per OS.
_RANGES = {
    OsType.LINUX: (1, 99),  # SCHED_FIFO static priorities
    OsType.TIMESYS_LINUX: (1, 99),
    OsType.QNX: (0, 31),
    OsType.LYNXOS: (0, 255),
    OsType.SOLARIS: (100, 159),  # RT scheduling class, global priorities
}


def native_priority_range(os_type: OsType) -> Tuple[int, int]:
    """Return the (lowest, highest) native RT priority for ``os_type``."""
    return _RANGES[os_type]


def clamp_native(os_type: OsType, priority: int) -> int:
    """Clamp ``priority`` into the native range of ``os_type``."""
    low, high = _RANGES[os_type]
    return max(low, min(high, int(priority)))
