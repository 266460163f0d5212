"""A pub-sub timer stopped while it fires stays stopped.

The deadline monitor and the liveliness heartbeat are periodic handles
that re-arm themselves after each firing.  A firing calls out (the
reader's ``on_deadline_check``, the broker's ``heartbeat``), and that
code may stop the timer, directly or through ``Broker.close()``.  The
firing then re-arms only if no stop ran meanwhile, so such a stop ends
the chain; a stop followed by a start inside the same firing leaves
exactly one timer, the fresh one.  Everything runs in local mode.
"""

from repro.pubsub import Broker, DataReader, DataWriter, QosPolicy, Topic
from repro.sim import Kernel

DEADLINE = 0.1
LEASE = 0.3


def _topic():
    return Topic("t", sample_bytes=100, rate_hz=10.0)


def _monitored_reader(kernel, on_check):
    broker = Broker(kernel)
    topic = _topic()
    broker.register_writer(DataWriter(kernel, topic,
                                      QosPolicy(deadline=0.05), "w"))
    reader = DataReader(kernel, topic, QosPolicy(deadline=DEADLINE), "r",
                        on_deadline_check=on_check)
    broker.register_reader(reader)
    return reader


def test_a_monitor_stopped_by_its_own_check_stays_stopped():
    kernel = Kernel()
    checks = []

    def on_check(reader, missed):
        checks.append(kernel.now)
        reader.stop_deadline_monitor()

    _monitored_reader(kernel, on_check)
    kernel.run(until=1.0)
    assert len(checks) == 1


def test_a_monitor_restarted_by_its_own_check_runs_once():
    kernel = Kernel()
    checks = []

    def on_check(reader, missed):
        checks.append(kernel.now)
        if len(checks) == 1:
            reader.stop_deadline_monitor()
            reader.start_deadline_monitor()

    _monitored_reader(kernel, on_check)
    kernel.run(until=1.0 + DEADLINE / 2)
    # One chain, one check per deadline period: ten checks, not twenty.
    assert len(checks) == 10


class _ClosingBroker(Broker):
    """A broker that quiesces everything inside the first heartbeat."""

    def heartbeat(self, writer_name, seq=None):
        super().heartbeat(writer_name, seq)
        self.close()


def test_heartbeats_stopped_inside_the_first_beat_stay_stopped():
    kernel = Kernel()
    broker = _ClosingBroker(kernel)
    writer = DataWriter(kernel, _topic(), QosPolicy(lease=LEASE), "w")
    broker.register_writer(writer)
    kernel.run(until=2.0)
    assert writer.heartbeats_sent == 1


class _RestartingBroker(Broker):
    """A broker that stops and restarts a writer's beats on its first
    heartbeat."""

    restarted = False

    def heartbeat(self, writer_name, seq=None):
        super().heartbeat(writer_name, seq)
        if not self.restarted:
            self.restarted = True
            writer = self.writers[writer_name]
            writer.stop_heartbeats()
            writer.start_heartbeats()


def test_heartbeats_restarted_inside_a_beat_run_once():
    kernel = Kernel()
    broker = _RestartingBroker(kernel)
    writer = DataWriter(kernel, _topic(), QosPolicy(lease=LEASE), "w")
    broker.register_writer(writer)
    kernel.run(until=1.0 + LEASE / 6)
    # The restart beats again at once (t=0), then every lease/3: the
    # beats at 0, 0, 0.1, ..., 1.0 make twelve.
    assert writer.heartbeats_sent == 12
