"""Outside-in per-layer tracing for the benchmark's traced runs.

The traced run attaches a :class:`repro.obs.Recorder` to the miner (so
the program's own ``mine``/``level``/``chunk``/``shard-dispatch`` spans
and counters are recorded) and, from the outside, wraps the public
functions each layer is entered through — *in the namespace its callers
look it up in* (``from x import f`` binds ``f`` in the importer, so the
importer's binding is the one patched).  Each wrapper opens a span named
after the layer, so the program's spans and the benchmark's nest in one
tree.  :func:`restore` puts every original back, and
:func:`assert_restored` proves it did.

Untraced runs never call :func:`install`: the end-to-end metrics are
measured with every original in place.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: spans that structure a run rather than belong to one layer; their
#: self time is the run's *unattributed* share
STRUCTURAL = ("run", "mine", "level", "chunk")

#: levels reported as ``level.<L>.count_s``
LEVELS = (1, 2, 3, 4)


def _batch_shape(batch: Any) -> "tuple[int, int]":
    """``(episodes, length)`` of a trie, episode matrix or episode list."""
    if hasattr(batch, "n_nodes"):
        return len(batch), int(batch.level)
    shape = getattr(batch, "shape", None)
    if shape is not None:
        return int(shape[0]), int(shape[1])
    batch = list(batch)
    return len(batch), (len(batch[0].items) if batch else 0)


def _generated(args: tuple, out: Any) -> dict:
    return {"generated": len(out)}


def _judged(args: tuple, out: Any) -> dict:
    return {"judged": len(args[1]), "frequent": int(out[0].n_frequent)}


def _lookup(args: tuple, out: Any) -> dict:
    episodes, length = _batch_shape(args[2])
    return {"episodes": episodes, "length": length}


def _trie_count(args: tuple, out: Any) -> dict:
    return {"nodes": int(args[1].n_nodes)}


def _trie_resume(args: tuple, out: Any) -> dict:
    trie = args[1]
    return {"nodes": int(trie.n_nodes), "episodes": len(trie),
            "length": int(trie.level), "events": int(args[0].size)}


def _engine_count(args: tuple, out: Any) -> dict:
    episodes, _ = _batch_shape(args[2])
    return {"engine": args[0].name, "episodes": episodes,
            "events": int(args[1].size)}


#: (module[:class], attribute, span name, span attrs from (args, result))
SITES: "tuple[tuple[str, str, str, Callable | None], ...]" = (
    # candidate generation (A-priori extension + trie insertion)
    ("repro.mining.miner", "generate_level", "candidates.generate",
     _generated),
    ("repro.mining.miner", "generate_next_level", "candidates.generate",
     _generated),
    ("repro.streaming.miner", "generate_level", "candidates.generate",
     _generated),
    ("repro.streaming.miner", "generate_next_level", "candidates.generate",
     _generated),
    # elimination
    ("repro.mining.miner", "eliminate_level", "miner.eliminate", _judged),
    ("repro.streaming.miner", "eliminate_level", "miner.eliminate", _judged),
    # count cache (its engine call nests inside)
    ("repro.mining.engines", "cached_count_batch", "cache.lookup", _lookup),
    ("repro.streaming.miner", "cached_count_batch", "cache.lookup", _lookup),
    # engines (auto nests its chosen tier; sharded nests shard-dispatch)
    ("repro.mining.engines:CountingEngine", "count_batch", "engine.count",
     _engine_count),
    ("repro.mining.engines:PositionHopEngine", "count_batch", "engine.count",
     _engine_count),
    ("repro.mining.engines:AutoEngine", "count_batch", "engine.count",
     _engine_count),
    ("repro.mining.engines:ShardedEngine", "count_batch", "engine.count",
     _engine_count),
    # trie counting and chunk resume
    ("repro.mining.engines", "count_positions_trie", "trie.count",
     _trie_count),
    ("repro.mining.engines", "resume_positions_trie", "trie.resume",
     _trie_resume),
    # counting primitives
    ("repro.mining.engines", "count_reset_batch", "counting.reset", None),
    ("repro.mining.engines", "db_fingerprint", "counting.fingerprint", None),
    ("repro.mining.trie", "db_fingerprint", "counting.fingerprint", None),
    ("repro.mining.counting", "db_fingerprint", "counting.fingerprint", None),
    # spanning summaries, advance composition, chunk-seam replay
    # (the windowed SUBSEQUENCE/EXPIRING fold calls the spanning functions
    # through repro.streaming.miner; no workload runs it, so it is not
    # wrapped)
    ("repro.mining.trie", "expiring_summary_trie", "spanning.summary", None),
    ("repro.mining.spanning", "advance_expiring", "spanning.advance", None),
    ("repro.streaming.miner", "count_starts_in", "spanning.seam", None),
    ("repro.streaming.store", "count_starts_in", "spanning.seam", None),
    # streaming state store and chunk validation
    ("repro.streaming.store:EpisodeStateStore", "advance", "stream.advance",
     None),
    ("repro.streaming.store:EpisodeStateStore", "retrack", "stream.retrack",
     None),
    ("repro.mining.alphabet:Alphabet", "validate_database", "stream.validate",
     None),
)


@dataclass(frozen=True)
class Patch:
    """One replaced attribute and the original to put back."""

    owner: Any
    attr: str
    original: Any


def _owner(path: str) -> Any:
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _span_wrapper(fn: Callable, rec: Any, name: str,
                  describe: "Callable | None") -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with rec.span(name) as span:
            out = fn(*args, **kwargs)
            if describe is not None:
                span.attrs.update(describe(args, out))
        return out
    return wrapper


def _index_wrapper(fn: Callable, rec: Any) -> Callable:
    # positions() calls _ensure_sorted on every lookup; only the first
    # call per index sorts, and only that one is a build
    @functools.wraps(fn)
    def wrapper(self: Any) -> None:
        if self._order is not None:
            return fn(self)
        with rec.span("index.build", events=int(self.db.size)):
            return fn(self)
    return wrapper


def _select_wrapper(fn: Callable, rec: Any) -> Callable:
    @functools.wraps(fn)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        chosen = fn(self, *args, **kwargs)
        rec.count(f"auto.pick.{chosen.name}")
        return chosen
    return wrapper


def install(rec: Any) -> "list[Patch]":
    """Wrap every layer entry point so it records into ``rec``."""
    patches: "list[Patch]" = []

    def patch(owner: Any, attr: str,
              make: "Callable[[Callable], Callable]") -> None:
        original = vars(owner)[attr]
        patches.append(Patch(owner, attr, original))
        setattr(owner, attr, make(original))

    try:
        for path, attr, name, describe in SITES:
            patch(_owner(path), attr,
                  lambda fn, n=name, d=describe: _span_wrapper(fn, rec, n, d))
        patch(_owner("repro.mining.counting:DatabaseIndex"), "_ensure_sorted",
              lambda fn: _index_wrapper(fn, rec))
        patch(_owner("repro.mining.engines:AutoEngine"), "select",
              lambda fn: _select_wrapper(fn, rec))
    except BaseException:
        restore(patches)
        raise
    return patches


def restore(patches: "list[Patch]") -> None:
    """Put every original back (latest patch first)."""
    for p in reversed(patches):
        setattr(p.owner, p.attr, p.original)


def assert_restored(patches: "list[Patch]") -> None:
    """Raise unless every patched attribute is its original again."""
    stale = [f"{getattr(p.owner, '__name__', p.owner)}.{p.attr}"
             for p in patches if vars(p.owner)[p.attr] is not p.original]
    if stale:
        raise RuntimeError(f"trace wrappers still installed: {stale}")


# -- reading the span tree -------------------------------------------------
# Spans are the payload dicts of repro.obs.report (name, duration_s,
# attrs, children), so an artifact on disk reads the same as a live run.


def _walk(spans: "list[dict]") -> "Iterator[tuple[dict, tuple[str, ...]]]":
    """Yield ``(span, names of its ancestors)``, preorder."""
    stack = [(s, ()) for s in reversed(spans)]
    while stack:
        span, above = stack.pop()
        yield span, above
        stack.extend((c, above + (span["name"],))
                     for c in reversed(span.get("children", [])))


def _self_s(span: dict) -> float:
    covered = sum(float(c["duration_s"]) for c in span.get("children", []))
    return max(float(span["duration_s"]) - covered, 0.0)


def self_times(spans: "list[dict]") -> "dict[str, dict[str, float]]":
    """Per span name: ``calls``, ``total_s``, ``outer_s`` and ``self_s``.

    ``self_s`` is each span's duration minus the part its child spans
    cover; ``outer_s`` sums only spans with no same-named ancestor, so a
    layer that re-enters itself (``auto`` delegating to ``position-hop``)
    is not counted twice.
    """
    table: "dict[str, dict[str, float]]" = {}
    for span, above in _walk(spans):
        row = table.setdefault(
            span["name"],
            {"calls": 0, "total_s": 0.0, "outer_s": 0.0, "self_s": 0.0},
        )
        row["calls"] += 1
        row["total_s"] += float(span["duration_s"])
        row["self_s"] += _self_s(span)
        if span["name"] not in above:
            row["outer_s"] += float(span["duration_s"])
    return table


def self_time_rows(spans: "list[dict]") -> "list[dict[str, Any]]":
    """The trace artifact's table: every span name with its self-time
    share of the run, largest first."""
    wall = sum(float(s["duration_s"]) for s in spans)
    rows = [
        {"span": name, "calls": int(row["calls"]), "total_s": row["total_s"],
         "self_s": row["self_s"], "self_share": _ratio(row["self_s"], wall)}
        for name, row in self_times(spans).items()
    ]
    rows.sort(key=lambda r: -r["self_s"])
    return rows


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: "list[dict]",
    counters: "dict[str, int]",
    cache: "dict[str, int] | None",
    pool_spawns: int,
    degradations: int,
    levels: int,
) -> "dict[str, float]":
    """Every per-layer metric of one traced run (see ``BENCHMARK.json``)."""
    table = self_times(spans)
    wall = sum(float(s["duration_s"]) for s in spans)

    def outer(name: str) -> float:
        return table.get(name, {}).get("outer_s", 0.0)

    def calls(name: str) -> int:
        return int(table.get(name, {}).get("calls", 0))

    def attr_sum(name: str, key: str) -> float:
        return sum(float(s["attrs"].get(key, 0))
                   for s, _ in _walk(spans) if s["name"] == name)

    counting = ("cache.lookup", "trie.resume")
    per_level = {lvl: 0.0 for lvl in LEVELS}
    episode_events = 0.0
    engine_calls = inline = 0
    parent_s = turn_max = turn_mean = 0.0
    tracked: "list[float]" = []
    for span, above in _walk(spans):
        name, attrs = span["name"], span["attrs"]
        outermost = name not in above
        if name in counting and not set(above) & set(counting):
            length = int(attrs.get("length", 0))
            if length in per_level:
                per_level[length] += float(span["duration_s"])
        if outermost and name in ("engine.count", "trie.resume"):
            episode_events += attrs["episodes"] * attrs["events"]
            if name == "engine.count":
                engine_calls += 1
        if name == "engine.count" and attrs.get("engine") == "sharded":
            parent_s += _self_s(span)
            if not any(s["name"] == "shard-dispatch"
                       for s, _ in _walk(span["children"])):
                inline += 1
        if name == "shard-dispatch" and attrs.get("shards_timed"):
            turn_max += float(attrs["shard_turnaround_max_s"])
            turn_mean += (float(attrs["shard_turnaround_total_s"])
                          / float(attrs["shards_timed"]))
        if name == "chunk" and "n_tracked" in attrs:
            tracked.append(float(attrs["n_tracked"]))
    generated = attr_sum("candidates.generate", "generated")
    judged = attr_sum("miner.eliminate", "judged")
    cache = cache or {}
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    unattributed = sum(table.get(n, {}).get("self_s", 0.0)
                       for n in STRUCTURAL)
    metrics = {
        "candidates.generate_s": outer("candidates.generate"),
        "candidates.generated": generated,
        "candidates.counted_frac": _ratio(judged, generated),
        "candidates.frequent_frac": _ratio(
            attr_sum("miner.eliminate", "frequent"), judged),
        "trie.nodes": attr_sum("trie.count", "nodes")
        + attr_sum("trie.resume", "nodes"),
        "trie.count_s": outer("trie.count"),
        **{f"level.{lvl}.count_s": per_level[lvl] for lvl in LEVELS},
        "trie.resume_s": outer("trie.resume"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.evictions": cache.get("evictions", 0),
        "cache.hit_frac": _ratio(hits, hits + misses),
        "cache.lookup_s": table.get("cache.lookup", {}).get("self_s", 0.0),
        "index.build_s": outer("index.build"),
        "index.builds": calls("index.build"),
        "counting.fingerprint_s": outer("counting.fingerprint"),
        "counting.fingerprints": calls("counting.fingerprint"),
        "counting.reset_s": outer("counting.reset"),
        "counting.episode_events": episode_events,
        "engine.count_calls": engine_calls,
        "engine.count_s": outer("engine.count"),
        "auto.hop_picks": counters.get("auto.pick.position-hop", 0),
        "auto.sweep_picks": counters.get("auto.pick.vector-sweep", 0),
        "shard.jobs": counters.get("sharded.jobs", 0),
        "shard.shards": counters.get("sharded.shards", 0),
        "shard.inline_calls": inline,
        "shard.dispatch_s": outer("shard-dispatch"),
        "shard.parent_s": parent_s,
        "shard.pool_spawns": pool_spawns,
        "shard.skew": _ratio(turn_max, turn_mean),
        "shard.degradations": degradations,
        "spanning.summary_s": outer("spanning.summary"),
        "spanning.advance_s": outer("spanning.advance"),
        "spanning.seam_s": outer("spanning.seam"),
        "stream.advance_s": outer("stream.advance"),
        "stream.retrack_s": outer("stream.retrack"),
        "stream.validate_s": outer("stream.validate"),
        "stream.backfill_episodes": counters.get(
            "stream.backfill_episodes", 0),
        "stream.promoted": counters.get("stream.promoted", 0),
        "stream.demoted": counters.get("stream.demoted", 0),
        "stream.tracked_mean": _ratio(sum(tracked), len(tracked)),
        "stream.path.incremental": counters.get("stream.path.incremental", 0),
        "stream.path.recount": counters.get("stream.path.recount", 0),
        "stream.path.short-circuit": counters.get(
            "stream.path.short-circuit", 0),
        "miner.eliminate_s": outer("miner.eliminate"),
        "miner.levels": levels,
        "trace.unattributed_frac": _ratio(unattributed, wall),
        "trace.wall_s": wall,
    }
    return {k: float(v) for k, v in metrics.items()}
