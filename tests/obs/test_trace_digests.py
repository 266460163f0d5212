"""Trace digests: the JSONL bytes of one short arm per traced family.

Each arm is traced into a :class:`~repro.obs.JsonlSink` over
``io.StringIO``; the sha256 of the text and its record count are
pinned.  A refactor of a trace site, the tracer or the event loop is
bit-identical only if none of them moves; a field renamed or reordered,
a record added or dropped, or two same-time events swapped (every ``sim``
record carries its event's seq) changes a digest.

The families, and what their records cover:

* table 1 ``2-partial``: sim, net (hop, route, nic), av, orb, os;
* fig 9 ``reserves``: CPU reserves and preemption;
* fig 8 ``adaptive``: fault windows and QuO region transitions;
* fig 11 ``dynamic-resignal``: LSA flooding, SPF and RSVP re-signal;
* fig 12 ``ownership``: pub-sub matching, liveliness and failover;
* fig 10 ``adaptive``: the hybrid model's fluid epochs;
* table 2 ``load``: GIOP over the stream transport: ACK clocking,
  thousands of RTO restarts and one fired retransmission timeout;
* table 2 ``load+reserve``: a CPU reserve's budget depleted and
  replenished (``os.reserve.deplete`` / ``replenish``); no other arm
  here spends a budget;
* fig 2 ``corba-100``: one two-hop GIOP call across three operating
  systems, its priority carried in the request's service context and
  its DSCP on every segment.

Ids (packets, requests, work, threads, ...) are numbered per kernel
(DESIGN §8, "Ids"), so an arm's bytes do not depend on what its process
ran before: each arm runs here in process, after whatever the session
ran first, and once more in a two-worker ``fork`` pool where each worker
runs several arms back to back.  The pins were taken with ``repro trace
--scenario FIGURE --arm ARM --set ...`` and hold under CPython 3.10,
3.11 and 3.12 (fig 2's was taken under 3.11 only).
"""

import hashlib
import io
import multiprocessing

import pytest

from repro.cli import resolve_figure, select
from repro.experiments.runner import scenario_function
from repro.obs import JsonlSink, Tracer

#: (figure, arm, ``--set`` settings, records, sha256 of the JSONL text).
ARMS = [
    ("table1", "2-partial", ["duration=2", "load_start=1", "load_end=1.5"],
     20167,
     "ef421dd43b91253dda5c4d1437f8d43f1408d57cada0e91f9e789d070a6011a2"),
    ("fig9", "reserves", ["streams=8", "duration=2"], 32449,
     "f88da0f785b24106d1e94e8bb1718dd5af1356a8a3c1087d56dea9951b3e6189"),
    ("fig8", "adaptive", ["duration=12"], 4810,
     "b83f90fe712f72c6feadcd7b595b7c50b73332522187b47a00f587157681bfdb"),
    ("fig11", "dynamic-resignal",
     ["routers=10", "duration=2.5", "fail_at=1.2"], 39840,
     "bb996b6cd7c82eb895b138a6e674a0b6a9c2d9acc239510e5355accfbe270753"),
    ("fig12", "ownership", ["subscribers=32", "duration=2"], 20484,
     "32088b0053f5ea8d49730c2ba3bfc6c1c42c7f18506455ee48900177fd6b86de"),
    ("fig10", "adaptive", ["streams=100", "duration=2"], 12820,
     "901368cb72e23a2327dc133d6585a6b11f2d24c43579eb13eed599026ddcbdd5"),
    ("table2", "load", ["duration=2"], 12364,
     "8774e103627fdc6999175437dd8f8abaa2776255afb4c785483691cb277c95ac"),
    ("table2", "load+reserve", ["duration=2"], 14858,
     "6fbe275e2066fbd062b42bf77c9014f4eee0bb37b5d56ca812886b29d4df56b1"),
    ("fig2", "corba-100", [], 188,
     "97d706b07af4e1bbb79e30da81703e5b209c6ac36d9719e80e051318d8ed6cab"),
]


def trace_one_arm(figure, arm, settings):
    """``[records, sha256]`` of one arm's JSONL trace, as ``repro trace``
    writes it."""
    selected = select(resolve_figure(figure), [arm], settings, 1)
    (spec,) = selected.specs()
    out = io.StringIO()
    tracer = Tracer(sinks=[JsonlSink(out)])
    scenario_function(selected.scenario)(**spec.call_kwargs(), tracer=tracer)
    tracer.close()
    text = out.getvalue()
    return [text.count("\n"), hashlib.sha256(text.encode("utf-8")).hexdigest()]


@pytest.mark.parametrize("figure, arm, settings, records, digest", ARMS,
                         ids=[f"{f}-{a}" for f, a, *_ in ARMS])
def test_trace_digest_is_pinned(figure, arm, settings, records, digest):
    assert trace_one_arm(figure, arm, settings) == [records, digest]


def test_trace_digests_hold_back_to_back_in_workers():
    """Nine arms over two workers: each worker runs several in a row."""
    with multiprocessing.get_context("fork").Pool(2) as pool:
        got = pool.starmap(trace_one_arm,
                           [(figure, arm, settings)
                            for figure, arm, settings, *_ in ARMS])
    assert got == [[records, digest] for *_, records, digest in ARMS]
