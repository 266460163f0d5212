"""The one definition of what an experiment arm is.

Every ``*Arm`` class is a dataclass deriving from :class:`Arm`:
its field list is written once, in the class body, and the
RunSpec form, equality, repr and pickling all follow from it.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict


class Arm:
    """A named set of mechanism switches (``name`` is the first field)."""

    def params(self) -> Dict[str, Any]:
        """The arm as RunSpec-ready constructor kwargs.

        ``type(arm)(**arm.params()) == arm``; this dict is what travels
        under a spec's ``"arm"`` key.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __reduce__(self):
        # Not the default dict-state protocol: the "adaptive" arm's
        # *name* equals an *attribute* name, and whether those two
        # equal strings are one interned object or two changes
        # pickle's memo structure — so a result that crossed a worker
        # process repickled 9 bytes longer than a fresh one, breaking
        # the byte-parity guarantee.  A constructor-call reduce never
        # serializes the attribute dict, so the bytes are stable.
        return (self.__class__, tuple(self.params().values()))
