"""Streaming episode mining: incremental counting over live event feeds.

The paper's characterization is strictly batch — one database, one
mining run — but its segment/state-carry decomposition (§3.3.3, Fig. 5;
:mod:`repro.mining.spanning`) is exactly the primitive needed to count
episodes *incrementally* as events arrive.  This package makes that
transformation online: an unbounded event stream is consumed one chunk
at a time, and mining state is carried between chunks so results are
always **exactly** what batch mining over the concatenated prefix would
produce.

The chunk / summary / compose contract
--------------------------------------
A *chunk* is a 1-D uint8 code array of any size (including empty); the
stream is the concatenation of all chunks in arrival order, and chunk
boundaries are an arrival accident that must never change counts (the
chunking-invariance property suite, ``tests/test_streaming.py``,
asserts streaming == batch ``scalar-oracle`` for randomized boundaries
including size-0/size-1 chunks, under all three policies).

Each arriving chunk is treated as the next *segment* of the unbounded
database and folded in by **position-hop chunk resume**: the chunk's
own :class:`~repro.mining.counting.DatabaseIndex` (per-symbol sorted
occurrence lists — built once, shared by every tracked level) lets each
tracked episode advance its carried FSM state by searchsorted-hopping
only the symbols it needs, batched across sibling episodes through the
candidate trie so shared prefixes share hop chains
(:func:`~repro.mining.trie.resume_positions_trie`, reached via the
engine's ``resume_batch``).  RESET — whose occurrences never span more
than a chunk seam — instead counts the last ``L-1`` retained events
followed by the chunk with the engine's ``count_batch`` (any
:mod:`repro.mining.engines` REGISTRY engine, dispatched by the same
fixed rule as in batch mining).  Either
way the exit state persisted in the
:class:`~repro.streaming.store.EpisodeStateStore` is bit-identical to
the scalar FSM having run the whole prefix, so per-chunk interpreter
work tracks the candidate set, never the chunk or prefix length.

Window semantics
----------------
``mode="landmark"`` (default) counts every episode over the entire
stream since the first chunk: support after chunk ``k`` is
``count / total_events``, and per-chunk work is proportional to the
chunk (the retained prefix is touched only to backfill episodes newly
*promoted* into tracking when their prefix's support crossed the
threshold).  ``retention=N`` bounds landmark memory to the trailing
``N`` events: carried counts stay exact forever, and episodes promoted
after the cap binds backfill exact *lower bounds* over the retained
suffix.  ``mode="windowed"`` counts over the trailing ``horizon``
events only, as an **exact sliding window**.  RESET counts the window
buffer with one engine ``count_batch`` per level.  SUBSEQUENCE/EXPIRING
slide decrementally: each window-resident chunk segment's behaviour is
summarized once (cached per level), expired segments retire with their
summaries, and every update folds the cached summaries left-to-right —
recounting afresh only the shrinking front partial segment and the new
chunk.  Updates that leave the window contents unchanged (size-0
chunks included) short-circuit to the previous result.  Results equal
batch mining of the window buffer, event for event — the right mode
when old events must stop influencing the frequent set (drift) or
memory must stay bounded.

Checkpoint / resume
-------------------
:meth:`StreamingMiner.checkpoint` snapshots the complete mining state
to one file at any chunk boundary, and :meth:`StreamingMiner.resume`
rebuilds a miner whose subsequent updates are **bit-identical** to the
uninterrupted run — the streaming extension of the batch-equivalence
contract, asserted at randomized kill points by
``tests/test_resilience.py``.

The file format (:mod:`repro.streaming.checkpoint`) is a single
``.npz`` archive: a ``meta`` member holding one canonical JSON object
(``schema`` version — currently 2, bumped on any incompatible layout
change; schema-1 files are rejected with a migration hint because
their ``prefix`` semantics predate bounded retention — mining config,
chunk/event progress, per-level results, and the store's
tracked-episode layout) plus named arrays (the retained prefix or
window buffer, the RESET tail, and each tracked level's counts / FSM
state).  A SHA-256 ``digest`` over the canonical meta and
every array's name/dtype/shape/bytes seals the file; writes are atomic
(temp + ``os.replace``), so readers see the old checkpoint or the new
one, never a prefix, and any torn/corrupt/mismatched file fails as
:class:`~repro.errors.CheckpointError` rather than resuming wrong.
``repro stream --checkpoint PATH`` writes one after every chunk;
``--resume PATH`` validates and continues, skipping already-consumed
chunks of the re-iterable source.
"""

from repro.streaming.checkpoint import (
    CHECKPOINT_SCHEMA,
    read_checkpoint,
    write_checkpoint,
)
from repro.streaming.miner import StreamingMiner, StreamUpdate
from repro.streaming.sources import (
    ArrayStreamSource,
    FileStreamSource,
    IterableStreamSource,
    StreamSource,
    SyntheticStreamSource,
    as_stream_source,
)
from repro.streaming.store import EpisodeStateStore, TrackedLevel

__all__ = [
    "StreamingMiner",
    "StreamUpdate",
    "StreamSource",
    "ArrayStreamSource",
    "FileStreamSource",
    "IterableStreamSource",
    "SyntheticStreamSource",
    "as_stream_source",
    "EpisodeStateStore",
    "TrackedLevel",
    "CHECKPOINT_SCHEMA",
    "read_checkpoint",
    "write_checkpoint",
]
