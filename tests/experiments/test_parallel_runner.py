"""The parallel experiment engine: parity, ordering, and the cache.

The load-bearing guarantee is *bit-identical* results at any worker
count: the figures a contributor regenerates with ``--jobs 4`` must be
byte-for-byte the figures CI regenerates serially.  Parity is asserted
on the pickled payload bytes — stronger than comparing extracted
metrics, since it covers every recorder, series and counter in the
result objects.
"""

import hashlib
import pickle

import pytest

from repro.experiments import runner as runner_mod
from repro.experiments.runner import (
    ExperimentRunner,
    ResultCache,
    RunSpec,
    registered_scenarios,
    source_tree_digest,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _runner(tmp_path, **kwargs):
    kwargs.setdefault("cache_dir", tmp_path / "cache")
    kwargs.setdefault("source_digest", "test-digest")
    return ExperimentRunner(**kwargs)


def _mixed_specs(seed):
    """A cross-section of scenarios, sized for test-suite budgets."""
    return [
        RunSpec("priority",
                {"arm": {"name": "fig4a", "thread_priorities": False,
                         "dscp": False, "cpu_load": False,
                         "cross_traffic": False},
                 "duration": 3.0}, seed=seed),
        RunSpec("reservation_cpu",
                {"arm": {"name": "no-load", "cpu_load": False,
                         "reservation": False},
                 "duration": 5.0}, seed=seed),
        RunSpec("ablation_reserve_policy", {"policy": "HARD"}),
        RunSpec("ablation_reserve_policy", {"policy": "SOFT"}),
        # Chaos arms: fault injection must replay bit-identically too
        # (its loss bursts draw from a named, seeded RNG stream).
        RunSpec("faults",
                {"arm": {"name": "static", "adaptive": False},
                 "duration": 8.0}, seed=seed),
        RunSpec("faults",
                {"arm": {"name": "adaptive", "adaptive": True},
                 "duration": 8.0}, seed=seed),
        # Capacity arms: N concurrent streams behind admission control
        # must fan out and replay bit-identically like everything else.
        RunSpec("capacity",
                {"arm": {"name": "best-effort", "priorities": False,
                         "admission": False, "adaptation": False},
                 "streams": 3, "duration": 3.0}, seed=seed),
        RunSpec("capacity",
                {"arm": {"name": "adaptive", "priorities": True,
                         "admission": True, "adaptation": True},
                 "streams": 3, "duration": 3.0}, seed=seed),
        # Fig 10 hybrid arms: the fluid engine's analytic ledgers must
        # round-trip workers bit-identically like packet payloads do.
        RunSpec("scale",
                {"arm": {"name": "reserves", "admission": True,
                         "adaptation": False, "overload": False},
                 "streams": 40, "duration": 2.0, "fluid": True,
                 "bottleneck_bps": 10e6, "cross_traffic_bps": 4e6},
                seed=seed),
    ]


# ----------------------------------------------------------------------
# Parity: jobs=1 vs jobs=4
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_parallel_bit_identical_to_serial(tmp_path, seed):
    specs = _mixed_specs(seed)
    serial = _runner(tmp_path / "s", cache=False, jobs=1).run(specs)
    parallel = _runner(tmp_path / "p", cache=False, jobs=4).run(specs)
    assert len(serial) == len(parallel) == len(specs)
    for spec, a, b in zip(specs, serial, parallel):
        assert a.spec is spec and b.spec is spec
        assert not a.cached and not b.cached
        assert a.events == b.events
        assert pickle.dumps(a.payload) == pickle.dumps(b.payload)


def test_results_come_back_in_spec_order(tmp_path):
    # Mix cache hits and misses: order must still follow the specs.
    runner = _runner(tmp_path, jobs=4)
    specs = _mixed_specs(seed=1)
    runner.run([specs[2]])  # pre-warm one arm
    results = runner.run(specs)
    assert [r.spec for r in results] == specs
    assert [r.cached for r in results] == [False, False, True, False,
                                           False, False, False, False,
                                           False]


def test_unknown_scenario_is_an_error(tmp_path):
    with pytest.raises(KeyError, match="unknown scenario"):
        _runner(tmp_path).run([RunSpec("no-such-scenario", {})])


def test_builtin_scenarios_registered():
    names = registered_scenarios()
    for expected in ("priority", "reservation_net", "reservation_cpu",
                     "faults", "capacity", "ablation_ecn", "ablation_phb",
                     "ablation_reserve_policy", "ablation_priority_driven"):
        assert expected in names


# ----------------------------------------------------------------------
# Fig 9 determinism: the capacity sweep across jobs and cache states
# ----------------------------------------------------------------------
def _fig9_small_specs(seed=1):
    """A miniature fig 9 sweep: every arm at two stream counts."""
    arms = [
        {"name": "best-effort", "priorities": False,
         "admission": False, "adaptation": False},
        {"name": "priority", "priorities": True,
         "admission": False, "adaptation": False},
        {"name": "reserves", "priorities": True,
         "admission": True, "adaptation": False},
        {"name": "adaptive", "priorities": True,
         "admission": True, "adaptation": True},
    ]
    return [RunSpec("capacity", {"arm": arm, "streams": streams,
                                 "duration": 3.0}, seed=seed)
            for arm in arms for streams in (1, 3)]


def test_fig9_capacity_parity_across_jobs_and_cache(tmp_path):
    """The capacity figure is byte-identical serial vs parallel and
    cold vs warm cache — the fig 9 determinism guarantee."""
    specs = _fig9_small_specs()
    serial = _runner(tmp_path / "s", cache=False, jobs=1).run(specs)
    parallel = _runner(tmp_path / "p", cache=False, jobs=4).run(specs)
    cold = _runner(tmp_path / "c", jobs=4).run(specs)
    warm = _runner(tmp_path / "c", jobs=4).run(specs)
    for a, b, c, w in zip(serial, parallel, cold, warm):
        blob = pickle.dumps(a.payload)
        assert pickle.dumps(b.payload) == blob
        assert pickle.dumps(c.payload) == blob
        assert pickle.dumps(w.payload) == blob
        assert not c.cached and w.cached


# ----------------------------------------------------------------------
# The result cache
# ----------------------------------------------------------------------
SPEC = RunSpec("ablation_reserve_policy", {"policy": "HARD"})


def test_cache_hit_on_rerun(tmp_path):
    first = _runner(tmp_path).run_one(SPEC)
    assert not first.cached

    rerun = _runner(tmp_path).run_one(SPEC)
    assert rerun.cached
    assert rerun.wall_seconds == 0.0
    assert pickle.dumps(rerun.payload) == pickle.dumps(first.payload)


def test_cached_payload_survives_figures(tmp_path):
    """Cached results carry everything the figure renderers consume."""
    spec = RunSpec("priority",
                   {"arm": {"name": "fig4a", "thread_priorities": False,
                            "dscp": False, "cpu_load": False,
                            "cross_traffic": False},
                    "duration": 3.0}, seed=1)
    live = _runner(tmp_path).run_one(spec).payload
    cached = _runner(tmp_path).run_one(spec).payload
    for sender in ("sender1", "sender2"):
        assert cached.stats(sender).mean == live.stats(sender).mean
        assert cached.series(sender, 1.0) == live.series(sender, 1.0)


@pytest.mark.parametrize("change", ["param", "seed", "source"])
def test_cache_invalidation(tmp_path, change):
    base = RunSpec("uav", {"duration": 1.0}, seed=1)  # a seeded scenario
    _runner(tmp_path).run_one(base)

    if change == "param":
        probe, digest = RunSpec(base.scenario, {"duration": 2.0},
                                seed=1), "test-digest"
    elif change == "seed":
        probe, digest = RunSpec(base.scenario, base.params, seed=2), \
            "test-digest"
    else:
        probe, digest = base, "a-different-source-tree"
    result = _runner(tmp_path, source_digest=digest).run_one(probe)
    assert not result.cached


def test_corrupt_cache_entry_falls_back_to_recompute(tmp_path):
    runner = _runner(tmp_path)
    first = runner.run_one(SPEC)
    key = ResultCache.key_for(SPEC, "test-digest")
    entry = runner.cache._path(key)
    assert entry.exists()
    entry.write_bytes(b"not a pickle")

    again = _runner(tmp_path)
    result = again.run_one(SPEC)
    assert not result.cached  # corrupt entry treated as a miss
    assert pickle.dumps(result.payload) == pickle.dumps(first.payload)
    # ...and the recomputed run repaired the entry.
    assert _runner(tmp_path).run_one(SPEC).cached


def test_truncated_cache_entry_is_a_miss(tmp_path):
    runner = _runner(tmp_path)
    runner.run_one(SPEC)
    entry = runner.cache._path(ResultCache.key_for(SPEC, "test-digest"))
    entry.write_bytes(entry.read_bytes()[:10])  # torn write
    assert not _runner(tmp_path).run_one(SPEC).cached


def _generator_scenario():
    return (n for n in range(3))


def test_an_unpicklable_payload_is_returned_not_cached(tmp_path,
                                                      monkeypatch):
    """Caching never fails a finished run: a payload ``pickle`` cannot
    write (a generator: ``TypeError``) comes back to the caller, and the
    cache keeps no entry and no temp file."""
    registered_scenarios()  # the built-ins first: tests walk the registry
    monkeypatch.setitem(runner_mod._SCENARIOS, "_test_generator",
                        _generator_scenario)
    result = _runner(tmp_path, cache=True, jobs=1).run_one(
        RunSpec("_test_generator"))
    assert not result.cached
    assert list(result.payload) == [0, 1, 2]
    assert [path for path in (tmp_path / "cache").rglob("*")
            if path.is_file()] == []


def test_cache_disabled_never_touches_disk(tmp_path):
    runner = _runner(tmp_path, cache=False)
    runner.run_one(SPEC)
    runner.run_one(SPEC)
    assert not (tmp_path / "cache").exists()


def _fig9_arm(**extra):
    return RunSpec("capacity",
                   {"arm": {"name": "reserves", "priorities": True,
                            "admission": True, "adaptation": False},
                    "streams": 1, "duration": 1.0, **extra}, seed=1)


def test_checked_run_is_never_served_from_the_cache(tmp_path):
    """Regression: ``canonical()`` fell back to ``str()``, so every
    ``default_suite()`` keyed alike (``<CheckSuite [...]>``) and the
    second checked run of an arm was a cache hit that checked nothing."""
    from repro.check import default_suite

    for _ in range(2):
        suite = default_suite()
        result = _runner(tmp_path).run_one(_fig9_arm(checks=suite))
        assert not result.cached
        assert suite.events_dispatched > 0
    assert not (tmp_path / "cache").exists()
    with pytest.raises(TypeError):
        _fig9_arm(checks=default_suite()).canonical()
    # The same arm without a live object in its params still caches.
    assert not _runner(tmp_path).run_one(_fig9_arm()).cached
    assert _runner(tmp_path).run_one(_fig9_arm()).cached


def test_source_digest_changes_with_source(tmp_path, monkeypatch):
    # The real digest is stable within a process...
    assert source_tree_digest() == source_tree_digest()
    # ...and is part of the cache key.
    a = ResultCache.key_for(SPEC, "digest-a")
    b = ResultCache.key_for(SPEC, "digest-b")
    assert a != b


# ----------------------------------------------------------------------
# Source-tree digest: the whole package, not just imported .py files
# ----------------------------------------------------------------------
def _make_pkg(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "core.py").write_text("VALUE = 1\n")
    return root


def _fresh_digest(root):
    """The digest as a fresh process would compute it.

    ``source_tree_digest`` memoizes per root for the life of the
    process (sources can't change under a running experiment), so tests
    that mutate the tree must drop the memo between computations.
    """
    import repro.experiments.runner as runner_mod
    runner_mod._digest_cache.pop(str(root), None)
    return source_tree_digest(root)


def test_digest_sees_a_brand_new_module(tmp_path):
    """Regression: the digest used to enumerate only modules already
    imported, so adding a file left stale cache entries valid."""
    root = _make_pkg(tmp_path)
    before = _fresh_digest(root)
    (root / "new_subsystem.py").write_text("NEW = True\n")
    assert _fresh_digest(root) != before


def test_digest_sees_non_python_inputs(tmp_path):
    root = _make_pkg(tmp_path)
    before = _fresh_digest(root)
    (root / "table.csv").write_text("a,b\n1,2\n")
    with_data = _fresh_digest(root)
    assert with_data != before
    sub = root / "sub"
    sub.mkdir()
    (sub / "mod.py").write_text("X = 3\n")  # new subpackage, no __init__
    assert _fresh_digest(root) != with_data


def test_digest_ignores_bytecode_and_hidden_files(tmp_path):
    root = _make_pkg(tmp_path)
    before = _fresh_digest(root)
    cache_dir = root / "__pycache__"
    cache_dir.mkdir()
    (cache_dir / "core.cpython-312.pyc").write_bytes(b"\x00magic")
    (root / "core.pyo").write_bytes(b"\x00magic")
    (root / ".hidden").write_text("scratch")
    hidden_dir = root / ".scratch"
    hidden_dir.mkdir()
    (hidden_dir / "notes.py").write_text("IGNORED = 1\n")
    assert _fresh_digest(root) == before


def test_cache_key_and_source_digest_are_hashlib_sha256(tmp_path):
    """The runner hashes with the interpreter's built-in SHA-256; its
    keys and tree digests are ``hashlib.sha256``'s bytes, so entries
    written by a ``hashlib`` build of the runner stay valid."""
    material = f"{SPEC.canonical()}\x00test-digest".encode()
    assert (ResultCache.key_for(SPEC, "test-digest")
            == hashlib.sha256(material).hexdigest())

    root = _make_pkg(tmp_path)
    (root / "sub").mkdir()
    (root / "sub" / "mod.py").write_text("X = 3\n")
    (root / "table.bin").write_bytes(bytes(range(256)) * 512)
    oracle = hashlib.sha256()
    for rel in ("__init__.py", "core.py", "sub/mod.py", "table.bin"):
        oracle.update(rel.encode() + b"\x00")
        oracle.update((root / rel).read_bytes() + b"\x00")
    assert _fresh_digest(root) == oracle.hexdigest()


def test_new_module_invalidates_the_cache(tmp_path):
    """End to end: adding a module to the watched tree must produce a
    cache miss even for an identical spec."""
    root = _make_pkg(tmp_path)
    first = _runner(tmp_path, source_digest=_fresh_digest(root)).run_one(SPEC)
    assert not first.cached
    warm = _runner(tmp_path, source_digest=_fresh_digest(root)).run_one(SPEC)
    assert warm.cached
    (root / "added_later.py").write_text("ADDED = True\n")
    cold = _runner(tmp_path, source_digest=_fresh_digest(root)).run_one(SPEC)
    assert not cold.cached
