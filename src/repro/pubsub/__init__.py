"""DDS-style declarative QoS pub-sub on the ORB/transport stack.

The paper's A/V streaming study is point-to-point; modern DRE
middleware is topic-based publish-subscribe with *declarative*
per-endpoint QoS.  This package grows that layer on the existing
simulation stack:

* :mod:`repro.pubsub.policies` — the QoS policy vocabulary
  (reliability, history, deadline, latency budget, liveliness lease,
  ownership strength);
* :mod:`repro.pubsub.matching` — pure, table-driven RxO
  (offered-vs-requested) compatibility matching;
* :mod:`repro.pubsub.history` — KEEP_LAST ring / resource-bounded
  KEEP_ALL sample caches (also the TRANSIENT_LOCAL writer cache);
* :mod:`repro.pubsub.filters` — content-filtered topics (a small safe
  expression evaluator run writer-side before send);
* :mod:`repro.pubsub.dedup` — bounded per-writer dedup ledgers
  (low-watermark + sparse tail, trimmed by heartbeat piggybacks);
* :mod:`repro.pubsub.liveliness` — lease monitoring with writer-death
  detection (two-phase expiry, so a heartbeat landing in the same
  kernel tick as the lease edge cannot flap the liveliness state);
* :mod:`repro.pubsub.core` — :class:`Topic`, :class:`DataWriter`,
  :class:`DataReader` over the datagram/stream transports;
* :mod:`repro.pubsub.broker` — the discovery/matching broker with
  deterministic ownership-strength failover and admission-controller
  integration.

The fan-out gauntlet built on it (fig 12) is
:mod:`repro.experiments.pubsub_exp`; the reader-side pacing qosket its
adaptive arm runs is :class:`repro.core.adaptation.PacingQosket`.
"""

from repro.pubsub.policies import (
    Durability,
    HistoryKind,
    OwnershipKind,
    QosPolicy,
    Reliability,
)
from repro.pubsub.matching import MatchResult, rxo_check
from repro.pubsub.history import HistoryCache
from repro.pubsub.filters import ContentFilter
from repro.pubsub.dedup import DedupLedger, DEDUP_WINDOW
from repro.pubsub.liveliness import LivelinessMonitor
from repro.pubsub.core import DataReader, DataWriter, Sample, Topic
from repro.pubsub.broker import Broker

__all__ = [
    "Reliability",
    "HistoryKind",
    "OwnershipKind",
    "Durability",
    "QosPolicy",
    "ContentFilter",
    "DedupLedger",
    "DEDUP_WINDOW",
    "MatchResult",
    "rxo_check",
    "HistoryCache",
    "LivelinessMonitor",
    "Topic",
    "Sample",
    "DataWriter",
    "DataReader",
    "Broker",
]
