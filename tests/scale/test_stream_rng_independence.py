"""Per-stream RNG independence: the farm's determinism foundation.

Every capacity-farm stream draws frame jitter from its own named RNG
stream (``video:<name>`` via
:func:`repro.scale.capacity_exp.stream_rng`).
The whole fig 9 determinism story rests on two properties checked
here: derived seeds never collide across stream names, and the draw
sequence one stream sees is invariant to which *other* streams exist
or how much they draw.
"""

import hashlib

from repro.sim.rng import RngRegistry
from repro.scale.capacity_exp import stream_rng


def derived_seed(root_seed, name):
    """The registry's documented seed derivation, re-stated here so a
    silent formula change fails loudly."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def farm_names(count):
    return [f"cap{i:02d}" for i in range(count)]


def test_derived_seeds_never_collide():
    """256 farm streams (and their qosket/load neighbours) on several
    root seeds: every derived seed is distinct."""
    for root_seed in (0, 1, 7, 123456789):
        names = [f"video:{name}" for name in farm_names(256)]
        names += ["cpu-load", "cross-traffic"]
        names += [f"qosket:{name}" for name in farm_names(256)]
        seeds = [derived_seed(root_seed, name) for name in names]
        assert len(set(seeds)) == len(seeds)


def test_stream_rng_matches_documented_derivation():
    registry = RngRegistry(42)
    rng = stream_rng(registry, "cap03")
    expected = type(rng)(derived_seed(42, "video:cap03"))
    assert [rng.random() for _ in range(5)] == [
        expected.random() for _ in range(5)]


def test_stream_draws_invariant_to_other_streams():
    """Stream i's sequence is identical whether it runs alone or among
    63 neighbours that drew first, interleaved, and in any order."""
    def draws(registry, name, count=32):
        rng = stream_rng(registry, name)
        return [rng.random() for _ in range(count)]

    solo = {name: draws(RngRegistry(1), name)
            for name in ("cap00", "cap31", "cap63")}

    # Full farm, in-order creation, neighbours draw heavily first.
    crowded = RngRegistry(1)
    for name in farm_names(64):
        if name not in solo:
            stream_rng(crowded, name).random()
    for name, expected in solo.items():
        assert draws(crowded, name) == expected

    # Reverse creation order, interleaved draws.
    reversed_farm = RngRegistry(1)
    rngs = {name: stream_rng(reversed_farm, name)
            for name in reversed(farm_names(64))}
    for _ in range(10):
        for name in farm_names(64):
            if name not in solo:
                rngs[name].random()
    for name, expected in solo.items():
        assert draws(reversed_farm, name) == expected


def test_same_stream_name_is_memoized_not_reseeded():
    registry = RngRegistry(9)
    first = stream_rng(registry, "cap00")
    first.random()
    again = stream_rng(registry, "cap00")
    assert again is first  # a second lookup must not rewind the stream
