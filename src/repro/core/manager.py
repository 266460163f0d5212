"""The end-to-end QoS manager: the one place a mechanism is applied.

"Although TimeSys Linux provides COTS mechanisms for reserving OS CPU
resources, it is the responsibility of the higher level QuO and TAO
middleware to determine who gets the reserved capacity, how much, and
for how long.  These policy decisions will be performed via the higher
level middleware since it retains the end-to-end perspective."

An application states a :class:`~repro.core.policies.QosPolicy` and
hands it here; it never wires a mechanism itself:

* :meth:`EndToEndQoSManager.apply` — the end system: native thread
  priority and the stub's CORBA priority and DSCP (through the ORB's
  priority mapping manager), and the CPU reserve;
* :meth:`EndToEndQoSManager.open_stream` — the network of an A/V flow:
  its DSCP and RSVP reservation, handed to the A/V service at bind;
* :meth:`EndToEndQoSManager.allocate_reservations` — the section 6
  research direction: reserved capacity handed out in priority order
  until it runs out.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Sequence, Tuple

from repro.oskernel.host import Host
from repro.oskernel.reserve import AdmissionError, Reserve
from repro.oskernel.thread import SimThread
from repro.net.diffserv import Dscp
from repro.core.policies import QosPolicy


class EndToEndQoSManager:
    """Applies :class:`QosPolicy` values across all four mechanisms.

    A priority maps through the ORB handed in: its
    :class:`~repro.orb.rt.PriorityMappingManager` owns both the native
    and the DSCP mapping, so a policy with a priority needs one.
    """

    def native_priority(self, policy: QosPolicy, host: Host,
                        orb) -> Optional[int]:
        """The native priority ``policy`` gives a thread on ``host``
        (``None`` without a priority), for a thread spawned at it."""
        if policy.priority is None:
            return None
        return orb.mapping_manager.to_native(policy.priority, host.os_type)

    def dscp(self, policy: QosPolicy, orb) -> Optional[Dscp]:
        """The codepoint ``policy`` marks packets with (``None``: none)."""
        if not policy.dscp:
            return None
        return orb.mapping_manager.to_dscp(policy.priority)

    # ------------------------------------------------------------------
    def apply(self, policy: QosPolicy, host: Host,
              thread: Optional[SimThread] = None, orb=None,
              stub=None) -> Optional[Reserve]:
        """Apply ``policy`` on ``host``: the priority lands on ``thread``
        and ``stub``, the CPU reserve on ``thread``.

        Returns the reserve, or ``None`` without one.  A reserve that is
        not admitted raises :class:`AdmissionError` when the policy is
        mandatory and yields ``None`` when it is not.
        """
        native = self.native_priority(policy, host, orb)
        if thread is not None and native is not None:
            thread.set_priority(native)
        if stub is not None and policy.priority is not None:
            stub.priority = policy.priority
            if policy.dscp:
                stub.dscp = self.dscp(policy, orb)
        if thread is None or policy.cpu is None:
            return None
        compute, period = policy.cpu
        try:
            return host.reserve_manager.request(
                thread, compute, period, policy.enforcement)
        except AdmissionError:
            if policy.mandatory:
                raise
            return None

    def open_stream(self, name: str, policy: QosPolicy, ctrl, producer,
                    consumer) -> Generator:
        """Bind flow ``name`` through the A/V ``ctrl`` with the policy's
        network cells: the DSCP (mapped by ``ctrl``'s ORB) and the RSVP
        reservation.  A generator; returns the stream binding."""
        dscp = self.dscp(policy, ctrl.orb)
        return (yield from ctrl.bind(
            name, producer, consumer, dscp=dscp or Dscp.BE,
            reservation=policy.reservation, mandatory=policy.mandatory))

    def allocate_reservations(
        self,
        host: Host,
        requests: Sequence[Tuple[SimThread, QosPolicy]],
    ) -> Dict[SimThread, Optional[Reserve]]:
        """Priority-driven reservation assignment (paper section 6).

        Each request's CPU reserve is admitted in descending policy
        priority (requests without one last, all in the order given);
        one that no longer fits gets ``None`` rather than failing the
        allocation, which realizes "using the priority paradigm to
        drive who gets reservations".  The threads keep their native
        priorities: the priority decides the order, nothing else.
        """
        def rank(request: Tuple[SimThread, QosPolicy]) -> int:
            priority = request[1].priority
            return -1 if priority is None else priority

        results: Dict[SimThread, Optional[Reserve]] = {}
        for thread, policy in sorted(requests, key=rank, reverse=True):
            compute, period = policy.cpu
            try:
                results[thread] = host.reserve_manager.request(
                    thread, compute, period, policy.enforcement)
            except AdmissionError:
                results[thread] = None
        return results
