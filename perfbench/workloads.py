"""The benchmark's workloads: parameters, seeded inputs, miners, references.

Each workload is one whole ``mine`` or ``stream`` run of the program on
inputs generated from the benchmark's ``--seed``.  The parent process
(``run.py``) generates the inputs once per benchmark run and writes them
to a scratch ``.npy`` file; every measured operation then starts a fresh
interpreter (``child.py``) that imports the program, builds the miner,
loads the file and mines it.  The program never sees the seed.

Why each workload exists, and which layer it stresses, is recorded in
``WORKLOADS`` below and in ``WORKLOADS.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One named workload of the benchmark."""

    name: str
    #: "batch" (one ``FrequentEpisodeMiner.mine``) or "stream"
    #: (one ``StreamingMiner.update`` per chunk)
    kind: str
    why: str
    #: the seed the committed layer shares were measured with
    default_seed: int
    params: "dict[str, Any]" = field(default_factory=dict)


WORKLOADS: "dict[str, Workload]" = {
    wl.name: wl
    for wl in (
        Workload(
            name="mine-deep",
            kind="batch",
            why=(
                "deep level-wise mine of the CLI market stream: candidate "
                "generation and the trie leaf pass do nearly all the work"
            ),
            default_seed=5,
            params={
                "source": "market", "n_products": 12, "events": 50_000,
                "rules": [[[0, 1, 2], 0.05], [[3, 4], 0.06]],
                "policy": "subsequence", "threshold": 0.002,
                "engine": "auto", "max_level": 4,
            },
        ),
        Workload(
            name="mine-sharded",
            kind="batch",
            why=(
                "wide uniform 26-letter mine on the sharded engine: counting "
                "and shard dispatch dominate, generation is small; the "
                "control for generation changes"
            ),
            default_seed=2009,
            params={
                "source": "uniform", "alphabet": 26, "events": 300_000,
                "policy": "subsequence", "threshold": 0.015,
                "engine": "sharded", "inner": "auto", "workers": "nproc",
                "max_level": 8,
            },
        ),
        Workload(
            name="stream-landmark",
            kind="stream",
            why=(
                "drifting landmark stream: counts by chunk resume instead of "
                "batch counting, with promotion backfill under drift"
            ),
            default_seed=2009,
            params={
                "source": "stream", "alphabet": 8, "chunks": 150,
                "chunk_size": 2048, "drift": 0.2, "drift_seed": 2009,
                "mode": "landmark", "policy": "expiring", "window": 6,
                "threshold": 0.02, "engine": "auto", "max_level": 4,
            },
        ),
        Workload(
            name="stream-windowed",
            kind="stream",
            why=(
                "RESET sliding window: the only n-gram, count-cache and "
                "decremental segment-fold path"
            ),
            default_seed=2009,
            params={
                "source": "stream", "alphabet": 16, "chunks": 40,
                "chunk_size": 1024, "drift": 0.0, "drift_seed": 2009,
                "mode": "windowed", "horizon": 16_384, "policy": "reset",
                "threshold": 0.002, "engine": "auto", "max_level": 8,
            },
        ),
    )
}


def nproc() -> int:
    return os.cpu_count() or 1


# -- inputs (benchmark side: the seed never reaches the program) ---------


def make_events(wl: Workload, seed: int) -> np.ndarray:
    """The workload's whole event sequence for ``seed`` (uint8 codes).

    Stream workloads are the concatenation of their equal-sized chunks;
    :func:`chunks_of` splits them back.
    """
    from repro.data.market import MarketConfig, generate_market_stream
    from repro.data.synthetic import random_database
    from repro.mining.alphabet import Alphabet
    from repro.util.rng import make_rng

    p = wl.params
    if p["source"] == "market":
        config = MarketConfig(
            n_products=p["n_products"],
            n_events=p["events"],
            rules=tuple((tuple(seq), prob) for seq, prob in p["rules"]),
            seed=seed,
        )
        return generate_market_stream(config)
    if p["source"] == "uniform":
        return random_database(
            p["events"], Alphabet.of_size(p["alphabet"]), seed=seed
        )
    # the drift path (per-symbol log-weight walk, as in stream_chunks)
    # is part of the workload and comes from its own fixed seed; --seed
    # draws the events.  Drawing both from --seed would make the set of
    # frequent episodes, and with it the work per chunk, differ by seed.
    alphabet = Alphabet.of_size(p["alphabet"])
    walk = make_rng(p["drift_seed"])
    rng = make_rng(seed)
    log_weights = np.zeros(alphabet.size)
    chunks = []
    for _ in range(p["chunks"]):
        log_weights += walk.normal(0.0, p["drift"], alphabet.size)
        weights = np.exp(log_weights - log_weights.max())
        chunks.append(random_database(p["chunk_size"], alphabet, seed=rng,
                                      weights=weights))
    return np.concatenate(chunks)


def chunks_of(wl: Workload, events: np.ndarray) -> "list[np.ndarray]":
    size = wl.params["chunk_size"]
    return [events[i:i + size] for i in range(0, events.size, size)]


# -- the program under test (child side) ---------------------------------


def _alphabet(wl: Workload):
    from repro.mining.alphabet import Alphabet

    p = wl.params
    return Alphabet.of_size(p.get("alphabet", p.get("n_products")))


def build_miner(wl: Workload) -> "tuple[Any, Any]":
    """Construct the workload's miner (the measured set-up step).

    Returns ``(miner, engine)``: the engine instance is handed to the
    miner as-is, so its pool accounting (``pools_spawned``) is the run's.
    """
    from repro.mining.engines import ShardedEngine, get_engine
    from repro.mining.miner import FrequentEpisodeMiner
    from repro.mining.policies import MatchPolicy
    from repro.streaming import StreamingMiner

    p = wl.params
    policy = MatchPolicy(p["policy"])
    if p["engine"] == "sharded":
        engine = ShardedEngine(inner=p["inner"], workers=nproc())
    else:
        engine = get_engine(p["engine"])
    if wl.kind == "batch":
        miner: Any = FrequentEpisodeMiner(
            _alphabet(wl), p["threshold"], policy=policy,
            window=p.get("window"), engine=engine, max_level=p["max_level"],
        )
    else:
        miner = StreamingMiner(
            _alphabet(wl), p["threshold"], policy=policy,
            window=p.get("window"), engine=engine, mode=p["mode"],
            horizon=p.get("horizon"), max_level=p["max_level"],
        )
    return miner, engine


def reference_result(wl: Workload, events: np.ndarray):
    """The result every measured run must reproduce, by another path.

    Stream workloads: batch ``mine`` of the concatenated feed (landmark)
    or of the trailing horizon (windowed).  Batch workloads: the same
    mine counted by a second exact engine (single-process position-hop
    under the sharded workload, the vector sweep otherwise).
    """
    from repro.mining.miner import FrequentEpisodeMiner
    from repro.mining.policies import MatchPolicy

    p = wl.params
    policy = MatchPolicy(p["policy"])
    if wl.kind == "stream":
        db = events if p["mode"] == "landmark" else events[-p["horizon"]:]
        engine = "auto"
    else:
        db = events
        engine = "position-hop" if p["engine"] == "sharded" else "vector-sweep"
    miner = FrequentEpisodeMiner(
        _alphabet(wl), p["threshold"], policy=policy, window=p.get("window"),
        engine=engine, max_level=p["max_level"],
    )
    return miner.mine(db)


def result_digest(result) -> str:
    """sha256 over every level's candidate count and frequent episodes."""
    payload = [
        [lvl.level, lvl.n_candidates,
         [[list(ep.items), int(c)] for ep, c in zip(lvl.frequent, lvl.counts)]]
        for lvl in result.levels
    ]
    blob = json.dumps(payload, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def result_shape(result) -> "list[list[int]]":
    """``[level, candidates, frequent]`` rows, for human-readable output."""
    return [[lvl.level, lvl.n_candidates, lvl.n_frequent]
            for lvl in result.levels]
