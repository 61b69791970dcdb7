"""Temporal data mining: frequent episode mining (paper §3).

The core contribution substrate: episodes, level-wise candidate
generation (paper Algorithm 1 / Table 1), the per-episode finite state
machine (Fig. 3) under three matching policies, vectorized batch
counting, boundary-spanning correction for segmented scans (Fig. 5),
and the full mining driver.
"""

from repro.mining.alphabet import Alphabet, UPPERCASE
from repro.mining.episode import Episode
from repro.mining.candidates import (
    count_candidates,
    generate_level,
    generate_next_level,
)
from repro.mining.policies import MatchPolicy
from repro.mining.fsm import EpisodeFSM, FSMSnapshot, build_transition_table
from repro.mining.counting import (
    DatabaseIndex,
    count_episode,
    count_batch,
    count_batch_reference,
    count_matrix_reference,
    db_fingerprint,
)
from repro.mining.spanning import count_segmented, SegmentedCount
from repro.mining.trie import (
    CandidateTrie,
    cached_count_batch,
    count_positions_trie,
)
from repro.mining.miner import FrequentEpisodeMiner, MiningResult, LevelResult
from repro.mining.engines import (
    BoundEngine,
    CountingEngine,
    EngineRegistry,
    GpuSimEngine,
    ShardedEngine,
    get_engine,
    list_engines,
    register_engine,
)
from repro.mining.gminer_ref import SerialMiner

# NOTE: repro.mining.pipeline depends on repro.algos; import it via its
# full module path or from the top-level repro package (cycle avoidance).

__all__ = [
    "Alphabet",
    "UPPERCASE",
    "Episode",
    "count_candidates",
    "generate_level",
    "generate_next_level",
    "MatchPolicy",
    "EpisodeFSM",
    "FSMSnapshot",
    "build_transition_table",
    "DatabaseIndex",
    "count_episode",
    "count_batch",
    "count_batch_reference",
    "count_matrix_reference",
    "db_fingerprint",
    "count_segmented",
    "SegmentedCount",
    "CandidateTrie",
    "cached_count_batch",
    "count_positions_trie",
    "BoundEngine",
    "CountingEngine",
    "EngineRegistry",
    "GpuSimEngine",
    "ShardedEngine",
    "get_engine",
    "list_engines",
    "register_engine",
    "FrequentEpisodeMiner",
    "MiningResult",
    "LevelResult",
    "SerialMiner",
]
