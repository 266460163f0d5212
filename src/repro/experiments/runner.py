"""Parallel experiment engine with content-addressed result caching.

Every figure/table in the paper's evaluation is a set of *independent*
simulation arms (figure 4a vs 4b, the six Table 1 combinations, the
three Table 2 conditions, the ablations).  Each arm is fully described
by a :class:`RunSpec` — a scenario name from the registry plus a
picklable parameter dict and a seed — and produces a picklable
:class:`RunResult`.  The :class:`ExperimentRunner` fans specs out
across a ``multiprocessing`` pool and merges results back *in spec
order*, so aggregated metrics and rendered tables are bit-identical to
serial execution regardless of worker count.

Determinism
-----------

Safe parallelism rests on a property the simulator already guarantees
(see ``tests/experiments/test_determinism.py``): a run's results are a
pure function of its spec.  Every kernel, RNG registry and recorder is
built fresh inside the run, and no process-global state feeds an arm:
entity ids come from the arm's own kernel (``Kernel.ids``), object ids
from their POA.  Workers therefore compute exactly what a serial loop
would, and the order-preserving merge does the rest.

Caching
-------

Results are cached on disk, content-addressed by
``sha256(scenario, params, seed, source-tree digest)``.  The source
digest covers every ``.py`` file under ``repro``'s package root, so
*any* code change invalidates *every* cached result — coarse but
impossible to get stale results from.  Corrupt or unreadable entries
are treated as misses and recomputed; a payload that cannot be stored
is returned uncached.  ``cache=False`` (``repro --no-cache``) bypasses
the cache entirely, and ``REPRO_CACHE_DIR`` relocates it.

Memory
------

A finished arm's world (kernel, heap, actors, queues) is a web of
cycles that only the cyclic collector frees.  ``_execute`` freezes the
heap before the scenario call and collects once after it returns, so
the collection walks only what the arm allocated and the next arm
starts without the last one's garbage.  ``RunResult.wall_seconds``
excludes that collection; the per-arm times ``perf/`` takes round
``run_one`` include it.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.rng import sha256

__all__ = [
    "RunSpec",
    "RunResult",
    "ExperimentRunner",
    "ResultCache",
    "scenario",
    "scenario_function",
    "registered_scenarios",
    "source_tree_digest",
]


# ----------------------------------------------------------------------
# Scenario registry
# ----------------------------------------------------------------------
_SCENARIOS: Dict[str, Callable[..., Any]] = {}


def scenario(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a scenario function under ``name``.

    The function is called as ``fn(**params)`` (plus ``seed=`` when the
    spec carries one) and must return a *picklable* payload.  Payloads
    may expose an ``events_executed`` attribute (or ``"events"`` dict
    key) so the engine can report simulation throughput.
    """

    def register(fn: Callable[..., Any]) -> Callable[..., Any]:
        if name in _SCENARIOS:
            raise ValueError(f"scenario {name!r} already registered")
        _SCENARIOS[name] = fn
        return fn

    return register


def registered_scenarios() -> List[str]:
    _ensure_builtin_scenarios()
    return sorted(_SCENARIOS)


def scenario_function(name: str) -> Callable[..., Any]:
    """The function registered under ``name``."""
    _ensure_builtin_scenarios()
    try:
        return _SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(_SCENARIOS)) or "(none)"
        raise KeyError(
            f"unknown scenario {name!r}; registered: {known}") from None


def _ensure_builtin_scenarios() -> None:
    """Import the modules whose import registers the built-in scenarios.

    Kept lazy so ``runner`` itself stays import-cheap and free of
    circular imports (the experiment modules never import ``runner``).
    """
    from repro.experiments import scenario_registry  # noqa: F401


# ----------------------------------------------------------------------
# Specs and results
# ----------------------------------------------------------------------
class RunSpec:
    """One independent simulation run: scenario + params + seed.

    ``params`` must be picklable (it crosses the process boundary).
    Its canonical JSON encoding is the cache key material, so a spec
    whose params are not JSON-serializable (a live ``CheckSuite`` under
    ``"checks"``) has no key: the runner executes it every time and
    never stores it.
    """

    __slots__ = ("scenario", "params", "seed")

    def __init__(self, scenario: str, params: Optional[Dict[str, Any]] = None,
                 seed: Optional[int] = None) -> None:
        self.scenario = scenario
        self.params = dict(params or {})
        self.seed = seed

    def canonical(self) -> str:
        """Canonical JSON identity (sorted keys, no whitespace).

        Raises ``TypeError`` for params JSON cannot encode.  There is
        no ``str()`` fallback on purpose: every ``default_suite()`` has
        the same repr, so checked runs of an arm would share one key
        and the second would be served from the cache unchecked.
        """
        return json.dumps(
            {"scenario": self.scenario, "params": self.params,
             "seed": self.seed},
            sort_keys=True, separators=(",", ":"),
        )

    def call_kwargs(self) -> Dict[str, Any]:
        kwargs = dict(self.params)
        if self.seed is not None:
            kwargs["seed"] = self.seed
        return kwargs

    def __eq__(self, other: Any) -> bool:
        return (isinstance(other, RunSpec)
                and other.canonical() == self.canonical())

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RunSpec({self.scenario!r}, params={self.params!r}, "
                f"seed={self.seed!r})")


class RunResult:
    """Outcome of one spec: the payload plus execution metadata.

    ``payload`` is whatever the scenario function returned;
    ``wall_seconds`` is the worker-side execution time (0.0 for cache
    hits); ``events`` is the simulation's executed-event count when the
    payload reports one.
    """

    __slots__ = ("spec", "payload", "wall_seconds", "events", "cached")

    def __init__(self, spec: RunSpec, payload: Any, wall_seconds: float,
                 events: int, cached: bool) -> None:
        self.spec = spec
        self.payload = payload
        self.wall_seconds = wall_seconds
        self.events = events
        self.cached = cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        origin = "cache" if self.cached else f"{self.wall_seconds:.2f}s"
        return f"<RunResult {self.spec.scenario} [{origin}]>"


def _events_of(payload: Any) -> int:
    events = getattr(payload, "events_executed", None)
    if events is None and isinstance(payload, dict):
        events = payload.get("events")
    return int(events or 0)


# ----------------------------------------------------------------------
# Source-tree digest
# ----------------------------------------------------------------------
_digest_cache: Dict[str, str] = {}


def _digest_files(package_root: Path) -> List[Path]:
    """Every cache-relevant file under ``package_root``, sorted.

    The walk is automatic — new subpackages and non-``.py`` inputs
    (data tables, templates) are picked up without enumeration; only
    bytecode and hidden/cache directories are excluded, since they
    never influence results.
    """
    files = []
    for path in package_root.rglob("*"):
        if not path.is_file():
            continue
        rel = path.relative_to(package_root)
        if any(part == "__pycache__" or part.startswith(".")
               for part in rel.parts):
            continue
        if path.suffix in (".pyc", ".pyo"):
            continue
        files.append(path)
    files.sort()
    return files


def source_tree_digest(package_root: Optional[Path] = None) -> str:
    """SHA-256 over every file in the ``repro`` package tree.

    Computed once per process per root.  Any source edit — simulator,
    ORB, experiment definitions, a freshly added subpackage, even a
    non-``.py`` data file — changes the digest and invalidates the
    whole cache, which is the only safe default for a simulator whose
    every byte can influence results.  ``package_root`` is overridable
    for tests; the default is the installed ``repro`` package.
    """
    root = (Path(package_root) if package_root is not None
            else Path(__file__).resolve().parents[1])
    key = str(root)
    cached = _digest_cache.get(key)
    if cached is None:
        digest = sha256()
        for path in _digest_files(root):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
        cached = _digest_cache[key] = digest.hexdigest()
    return cached


# ----------------------------------------------------------------------
# On-disk result cache
# ----------------------------------------------------------------------
class ResultCache:
    """Content-addressed pickle store for run payloads.

    Entries are written atomically (temp file + ``os.replace``) so a
    crashed or concurrent writer can never leave a torn entry; readers
    treat any load failure as a miss.
    """

    _MISS = object()

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key_for(spec: RunSpec, source_digest: str) -> str:
        material = f"{spec.canonical()}\x00{source_digest}".encode()
        return sha256(material).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def load(self, key: str) -> Tuple[bool, Any]:
        """Return ``(hit, payload)``; corrupt entries count as misses."""
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return False, None
        except Exception:
            # Torn write, unpicklable class after a refactor, disk
            # error: recompute rather than fail or trust bad data.
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return False, None
        self.hits += 1
        return True, payload

    def store(self, key: str, payload: Any) -> None:
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            # Caching is an optimization; never fail the run over it
            # (a full disk, or a payload pickle cannot write).
            pass


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    # Project-local by default: src/repro/experiments -> repo root.
    return Path(__file__).resolve().parents[3] / ".repro-cache"


# ----------------------------------------------------------------------
# Worker entry point (must be module-level for pickling under spawn)
# ----------------------------------------------------------------------
def _execute(spec_fields: Tuple[str, Dict[str, Any], Optional[int]]
             ) -> Tuple[Any, int, float]:
    scenario_name, params, seed = spec_fields
    fn = scenario_function(scenario_name)
    spec = RunSpec(scenario_name, params, seed)
    # Everything alive before the arm goes to the permanent generation,
    # so the collection below walks only what the arm allocated.
    gc.freeze()
    try:
        started = time.perf_counter()
        payload = fn(**spec.call_kwargs())
        wall = time.perf_counter() - started
        gc.collect()
    finally:
        gc.unfreeze()
    return payload, _events_of(payload), wall


def outlives_collection(ref: Callable[[], Any]) -> bool:
    """Whether the weakly referenced object survives a full collection:
    the retention law's test, asked by the ``checked`` scenario while it
    still holds the arm's payload and suite."""
    gc.collect()
    return ref() is not None


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class ExperimentRunner:
    """Fan independent :class:`RunSpec`\\ s across a process pool.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` uses the CPU count.  ``1`` runs
        everything inline in this process (no pool).
    cache:
        Whether to consult/populate the on-disk result cache; ``None``
        means on.
    cache_dir:
        Cache location override (default: repo-local ``.repro-cache``
        or ``REPRO_CACHE_DIR``).
    source_digest:
        Cache-key source fingerprint override.  Tests use this to
        simulate source-tree changes; the default is
        :func:`source_tree_digest`.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[bool] = None,
                 cache_dir: Optional[Path] = None,
                 source_digest: Optional[str] = None) -> None:
        self.jobs = max(1, int(jobs) if jobs is not None
                        else os.cpu_count() or 1)
        self.cache_enabled = cache is None or bool(cache)
        self.cache = ResultCache(cache_dir or default_cache_dir())
        self._source_digest = source_digest
        #: Cumulative stats across run() calls (observability).
        self.runs_executed = 0
        self.cache_hits = 0

    @property
    def source_digest(self) -> str:
        if self._source_digest is None:
            self._source_digest = source_tree_digest()
        return self._source_digest

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Execute every spec; results come back in spec order.

        Cache hits are resolved first; only misses are dispatched to
        the pool.  The merge is deterministic by construction: slot
        ``i`` of the returned list is always spec ``i``'s result, and
        payloads are pure functions of their specs holding plain data
        only (no live simulation object to drop at a process boundary),
        so worker count can never change what this returns.
        """
        results: List[Optional[RunResult]] = [None] * len(specs)
        pending: List[Tuple[int, RunSpec, Optional[str]]] = []

        for index, spec in enumerate(specs):
            scenario_function(spec.scenario)  # unknown names fail early
            key = self._cache_key(spec)
            if key is not None:
                hit, payload = self.cache.load(key)
                if hit:
                    self.cache_hits += 1
                    results[index] = RunResult(
                        spec, payload, wall_seconds=0.0,
                        events=_events_of(payload), cached=True)
                    continue
            pending.append((index, spec, key))

        if pending:
            fields = [(spec.scenario, spec.params, spec.seed)
                      for _, spec, _ in pending]
            if self.jobs == 1 or len(pending) == 1:
                outcomes = [_execute(f) for f in fields]
            else:
                outcomes = self._run_pool(fields)
            for (index, spec, key), (payload, events, wall) in zip(
                    pending, outcomes):
                self.runs_executed += 1
                if key is not None:
                    self.cache.store(key, payload)
                results[index] = RunResult(spec, payload, wall_seconds=wall,
                                           events=events, cached=False)
        return results  # type: ignore[return-value]

    def _cache_key(self, spec: RunSpec) -> Optional[str]:
        """``None`` when the cache is off or the spec cannot be keyed."""
        if not self.cache_enabled:
            return None
        try:
            return ResultCache.key_for(spec, self.source_digest)
        except TypeError:
            return None

    def run_one(self, spec: RunSpec) -> RunResult:
        return self.run([spec])[0]

    def payloads(self, specs: Sequence[RunSpec]) -> List[Any]:
        """Shorthand: run and strip the metadata wrappers."""
        return [result.payload for result in self.run(specs)]

    # ------------------------------------------------------------------
    def _run_pool(self, fields: List[Tuple[str, Dict[str, Any],
                                           Optional[int]]]
                  ) -> List[Tuple[Any, int, float]]:
        import multiprocessing

        # Fork shares the already-imported interpreter (cheap start,
        # identical module state); platforms without it get spawn,
        # which re-imports from the same sources — either way workers
        # compute the same pure function of the spec.
        method = ("fork" if "fork" in
                  multiprocessing.get_all_start_methods() else "spawn")
        ctx = multiprocessing.get_context(method)
        workers = min(self.jobs, len(fields))
        with ctx.Pool(processes=workers) as pool:
            # pool.map preserves input order — the deterministic merge.
            # One arm per task: arms differ in length a hundredfold, so
            # a worker takes the next arm whenever it frees up rather
            # than a fixed slice of the list.
            return pool.map(_execute, fields, chunksize=1)
