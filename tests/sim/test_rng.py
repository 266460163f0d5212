"""Unit tests for seeded random streams."""

import json
import os
import subprocess
import sys

import repro
from repro.sim import RngRegistry


def test_same_name_same_stream_object():
    reg = RngRegistry(seed=1)
    assert reg.stream("x") is reg.stream("x")


def test_streams_reproducible_across_registries():
    a = RngRegistry(seed=7).stream("traffic")
    b = RngRegistry(seed=7).stream("traffic")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_are_independent():
    reg = RngRegistry(seed=7)
    a = [reg.stream("a").random() for _ in range(5)]
    b = [reg.stream("b").random() for _ in range(5)]
    assert a != b


def test_different_seeds_differ():
    a = RngRegistry(seed=1).stream("x").random()
    b = RngRegistry(seed=2).stream("x").random()
    assert a != b


def test_adding_stream_does_not_perturb_existing():
    reg1 = RngRegistry(seed=3)
    s1 = reg1.stream("keep")
    first = s1.random()
    reg2 = RngRegistry(seed=3)
    reg2.stream("new-component")  # extra stream created first
    s2 = reg2.stream("keep")
    assert s2.random() == first


def test_fork_is_deterministic_and_distinct():
    """A run forks streams, not registries: one name draws the same in
    two registries of one seed, and another name draws otherwise."""
    first, second = RngRegistry(seed=9), RngRegistry(seed=9)
    assert first.stream("arm-1").random() == second.stream("arm-1").random()
    assert first.stream("arm-2").random() != second.stream("arm-1").random()


#: ``(seed, name)`` pairs whose first draws the two
#: SHA-256 sources must agree on (negative seeds and non-ASCII names
#: included: the material is UTF-8 text).
PAIRS = [(0, "cross-traffic"), (1, "video:cap03"), (42, "cpu-load"),
         (-7, "fault:loss:router-dst"), (123456789, "stréam-ü")]

FALLBACK = """
import json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import hashlib
from repro.sim import RngRegistry, rng
assert rng.sha256 is hashlib.sha256, "the fallback branch did not run"
pairs = json.loads(sys.argv[1])
print(json.dumps([
    [RngRegistry(seed).stream(name).random() for _ in range(3)]
    for seed, name in pairs]))
"""


def test_hashlib_fallback_derives_the_same_streams_and_forks():
    """With neither built-in module importable, ``sim/rng.py`` falls back
    to ``hashlib``; draws match the built-in's exactly."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c", FALLBACK, json.dumps(PAIRS)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60, check=True)
    builtin = [[RngRegistry(seed).stream(name).random() for _ in range(3)]
               for seed, name in PAIRS]
    assert json.loads(done.stdout) == builtin
