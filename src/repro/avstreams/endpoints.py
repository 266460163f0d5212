"""Flow endpoints: the A/V data plane.

A flow is a one-way media path identified by ``avflow:<name>``.  The
producer fragments each frame to MTU-sized datagrams (as RTP/UDP
does); the consumer reassembles and delivers a frame only when *every*
fragment arrived.  No retransmission: late video is useless video.

The fragmentation detail carries real weight in the Fig 7 experiment:
a 15 kB I frame spans ten packets, so under heavy congestion the
probability that a whole frame survives is the per-packet survival
probability to the tenth power — which is why the paper's unreserved
stream lost essentially everything under the 43.8 Mbps burst.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Optional, Tuple

from repro.sim.kernel import Kernel
from repro.net.diffserv import Dscp
from repro.net.nic import Nic
from repro.net.packet import MTU_BYTES, UDP, Packet
from repro.net.transport import DatagramSocket

#: Media payload bytes per fragment (MTU minus the 40 B header).
FRAGMENT_BYTES = MTU_BYTES - 40


def flow_id_for(flow_name: str) -> str:
    """The network-level flow identity for a named A/V flow."""
    return f"avflow:{flow_name}"


#: One wire fragment of a frame, as its datagram's payload:
#: ``(frame, key, index, count)``, with ``key`` the frame's
#: ``(flow id, frame counter)`` and ``count`` its fragments.
Fragment = Tuple[Any, Tuple[str, int], int, int]


class FlowProducer:
    """Sends frames on one flow, fragmenting to MTU.

    ``dscp`` is mutable: the QuO layer re-marks streams at run time
    ("the QuO middleware can change these priorities dynamically by
    marking application streams with appropriate DSCPs").
    """

    def __init__(
        self,
        kernel: Kernel,
        nic: Nic,
        flow_name: str,
        peer_host: str,
        peer_port: int,
        dscp: Dscp = Dscp.BE,
    ) -> None:
        self.kernel = kernel
        self.flow_name = flow_name
        self.flow_id = flow_id_for(flow_name)
        self.peer_host = peer_host
        self.peer_port = peer_port
        self.dscp = dscp
        # Holds the flow's source port; fragments bypass its send_to.
        self._socket = DatagramSocket(kernel, nic)
        self._nic = nic
        self._src = nic.host.name
        self._packet_id = kernel.ids("packet")
        self._frame_counter = 0
        self.frames_sent = 0
        self.fragments_sent = 0
        self.bytes_sent = 0

    def send_frame(self, frame: Any, size_bytes: Optional[int] = None) -> bool:
        """Fragment and transmit one frame.

        Returns False if *any* fragment was dropped at the first hop
        (the frame is then already doomed).
        """
        nbytes = size_bytes if size_bytes is not None else frame.size_bytes
        if nbytes < 0:
            raise ValueError(f"frame size must not be negative, got {nbytes}")
        self._frame_counter += 1
        key = (self.flow_id, self._frame_counter)
        count = max(1, -(-nbytes // FRAGMENT_BYTES))  # ceil division
        self.frames_sent += 1
        self.bytes_sent += nbytes
        tracer = self.kernel.tracer
        if tracer is not None:
            frame_type = getattr(frame, "frame_type", None)
            tracer.begin(
                "av", "frame",
                span=f"frame:{self.flow_id}:{self._frame_counter}",
                flow=self.flow_id,
                fields={"bytes": nbytes, "fragments": count,
                        "dscp": self.dscp._name_,
                        "frame_type": getattr(frame_type, "value",
                                              frame_type)},
            )
        socket = self._socket
        if socket._closed:
            raise RuntimeError("socket is closed")
        # Each fragment is the datagram ``socket.send_to`` would build,
        # built here and handed to the NIC: one frame per fragment less.
        send = self._nic.send
        packet_id = self._packet_id
        src, port = self._src, socket.port
        dst, dst_port = self.peer_host, self.peer_port
        dscp, flow_id = self.dscp, self.flow_id
        now = self.kernel.now
        all_accepted = True
        remaining = nbytes
        for index in range(count):
            chunk = FRAGMENT_BYTES if remaining > FRAGMENT_BYTES else remaining
            remaining -= chunk
            accepted = send(Packet(
                src, dst, port, dst_port, UDP,
                (frame, key, index, count), chunk, dscp, flow_id,
                now, packet_id()))
            all_accepted = all_accepted and accepted
        self.fragments_sent += count
        socket.sent += count
        return all_accepted

    def close(self) -> None:
        self._socket.close()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<FlowProducer {self.flow_name!r} -> "
            f"{self.peer_host}:{self.peer_port}>"
        )


class FlowConsumer:
    """Reassembles and delivers frames from one flow.

    ``on_frame`` is called as ``on_frame(frame, latency_seconds)`` once
    per *complete* frame; frames with any missing fragment are counted
    in :attr:`frames_incomplete` when evicted.
    """

    #: Partial frames kept pending before the oldest is abandoned.
    REASSEMBLY_SLOTS = 64

    def __init__(
        self,
        kernel: Kernel,
        nic: Nic,
        flow_name: str,
        port: Optional[int] = None,
        on_frame: Optional[Callable[[Any, float], None]] = None,
    ) -> None:
        self.kernel = kernel
        self.flow_name = flow_name
        self.flow_id = flow_id_for(flow_name)
        self.on_frame = on_frame
        self._socket = DatagramSocket(
            kernel, nic, port=port, on_receive=self._deliver
        )
        # frame key -> indexes of its fragments received so far
        self._partial: "OrderedDict[Tuple[str, int], set]" = OrderedDict()
        self.frames_received = 0
        self.fragments_received = 0
        self.frames_incomplete = 0
        self.bytes_received = 0

    @property
    def port(self) -> int:
        return self._socket.port

    def _deliver(self, fragment: Fragment, packet: Packet) -> None:
        frame, key, index, count = fragment
        self.fragments_received += 1
        self.bytes_received += packet.payload_bytes
        partial = self._partial
        have = partial.get(key)
        if have is None:
            have = partial[key] = set()
            if len(partial) > self.REASSEMBLY_SLOTS:
                partial.popitem(last=False)
                self.frames_incomplete += 1
        have.add(index)
        if len(have) < count:
            return
        del partial[key]
        self.frames_received += 1
        kernel = self.kernel
        tracer = kernel.tracer
        if tracer is not None:
            flow_id, counter = key
            tracer.end(
                "av", "frame", span=f"frame:{flow_id}:{counter}",
                flow=self.flow_id,
                fields={"latency": kernel.now - packet.created_at},
            )
        if self.on_frame is not None:
            self.on_frame(frame, kernel.now - packet.created_at)

    def close(self) -> None:
        self._socket.close()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<FlowConsumer {self.flow_name!r} port={self.port}>"
