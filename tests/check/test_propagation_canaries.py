"""Fig 2 on the wire: propagation canaries.

Fig 2 is read off one real call, client -> LynxOS relay -> Solaris
sink: each row holds the priority a tier was dispatched at, its
thread's native priority and the DSCP of the connection the call used
(``experiments/priority_exp.py``).  So a break anywhere on that path
moves the figure.  Each canary breaks the middle tier in process and
requires ``repro verify fig2`` to fail on the claim the break
falsifies, besides the rendered bytes.
"""

import pathlib

from repro.cli import main
from repro.orb.core import Orb
from repro.orb.giop import SERVICE_ID_RT_CORBA_PRIORITY
from repro.orb.poa import Poa

ROOT = pathlib.Path(__file__).resolve().parents[2]
MIDDLE = "middle-tier"


def verify_fig2(monkeypatch, capsys) -> str:
    """``repro verify fig2``'s output; it must fail."""
    monkeypatch.chdir(ROOT)
    assert main(["--jobs", "1", "verify", "fig2"]) == 1
    out = capsys.readouterr().out
    assert "differs from results/fig2_priority_propagation.txt" in out
    return out


def test_a_middle_tier_that_drops_the_priority_context_fails_fig2(
        monkeypatch, capsys):
    """The relay's POA never sees RTCorbaPriority: it dispatches at 0
    and calls on at 0, so neither server lands at the mapped priority."""
    dispatch = Poa.dispatch

    def dropping(self, connection, message):
        if self.orb.host.name == MIDDLE:
            message.service_contexts = [
                context for context in message.service_contexts
                if context.context_id != SERVICE_ID_RT_CORBA_PRIORITY]
        dispatch(self, connection, message)

    monkeypatch.setattr(Poa, "dispatch", dropping)
    out = verify_fig2(monkeypatch, capsys)
    assert ("claim does not hold: RT-CORBA priority 100 lands as QNX 16, "
            "LynxOS 128 and Solaris 136") in out


def test_a_middle_tier_that_stops_marking_fails_fig2(monkeypatch, capsys):
    """The relay's ORB no longer maps priority to DSCP: its onward
    segments go out best effort, and the sink's connection mirrors
    that."""
    effective_dscp = Orb._effective_dscp

    def unmapped(self, objref, priority, dscp):
        if self.host.name == MIDDLE:
            self.map_priority_to_dscp = False
        return effective_dscp(self, objref, priority, dscp)

    monkeypatch.setattr(Orb, "_effective_dscp", unmapped)
    out = verify_fig2(monkeypatch, capsys)
    assert "claim does not hold: DSCP EF on every network segment" in out
    assert "claim does not hold: RT-CORBA priority" not in out
