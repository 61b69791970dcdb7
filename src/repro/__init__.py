"""repro — reproduction of *Multi-Dimensional Characterization of
Temporal Data Mining on Graphics Processors* (Archuleta, Cao, Feng,
Scogland; IPPS 2009).

The library provides:

* a CUDA-like SIMT GPU substrate (:mod:`repro.gpu`) modeling the three
  cards of the paper's Table 2;
* frequent episode mining (:mod:`repro.mining`) — the paper's temporal
  data-mining workload, with candidate generation, FSM counting under
  three matching policies, and boundary-span correction;
* the four GPU algorithms and the adaptive selector (:mod:`repro.algos`),
  each expressing counting as the paper's map -> span fix -> reduce
  pipeline;
* workload generators (:mod:`repro.data`) and the experiment harness
  reproducing every table and figure (:mod:`repro.experiments`);
* streaming episode mining (:mod:`repro.streaming`) — incremental,
  exactly batch-equivalent counting over chunk-at-a-time event feeds.

Quickstart::

    from repro import (
        GpuSimulator, get_card, MiningProblem, ThreadTexKernel,
        paper_database, generate_level, UPPERCASE,
    )

    db = paper_database()
    episodes = generate_level(UPPERCASE, 2)
    problem = MiningProblem(db, tuple(episodes), UPPERCASE.size)
    kernel = ThreadTexKernel(problem, threads_per_block=128)
    result = GpuSimulator(get_card("GTX280")).launch(kernel)
    print(result.report.total_ms, result.output[:5])
"""

from repro.errors import (
    ConfigError,
    DeviceMemoryError,
    ExperimentError,
    LaunchError,
    MiningError,
    ReproError,
    ValidationError,
)
from repro.gpu import (
    CARD_REGISTRY,
    DeviceSpecs,
    Dim3,
    GpuSimulator,
    LaunchConfig,
    OccupancyCalculator,
    TimingReport,
    get_card,
    list_cards,
)
from repro.mining import (
    Alphabet,
    CandidateTrie,
    CountCache,
    DatabaseIndex,
    Episode,
    FrequentEpisodeMiner,
    GpuSimEngine,
    MatchPolicy,
    MiningResult,
    SerialMiner,
    ShardedEngine,
    UPPERCASE,
    cached_count_batch,
    count_batch,
    count_candidates,
    count_episode,
    count_segmented,
    generate_level,
    generate_next_level,
    get_engine,
    list_engines,
    register_engine,
)
from repro.algos import (
    AdaptiveSelector,
    BlockBufKernel,
    BlockTexKernel,
    MiningProblem,
    ThreadBufKernel,
    ThreadTexKernel,
    get_algorithm,
)
from repro.data import (
    PAPER_DB_LENGTH,
    generate_market_stream,
    generate_spike_stream,
    paper_database,
    random_database,
)
from repro.gpu.multi import MultiGpu, dual_gx2
from repro.mining.pipeline import PipelinedMiner
from repro.streaming import (
    ArrayStreamSource,
    FileStreamSource,
    StreamingMiner,
    StreamUpdate,
    SyntheticStreamSource,
    as_stream_source,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "ConfigError",
    "LaunchError",
    "DeviceMemoryError",
    "ValidationError",
    "ExperimentError",
    "MiningError",
    # gpu
    "DeviceSpecs",
    "Dim3",
    "LaunchConfig",
    "GpuSimulator",
    "OccupancyCalculator",
    "TimingReport",
    "CARD_REGISTRY",
    "get_card",
    "list_cards",
    # mining
    "Alphabet",
    "UPPERCASE",
    "Episode",
    "MatchPolicy",
    "CandidateTrie",
    "CountCache",
    "cached_count_batch",
    "count_batch",
    "count_episode",
    "count_candidates",
    "count_segmented",
    "generate_level",
    "generate_next_level",
    "DatabaseIndex",
    "ShardedEngine",
    "get_engine",
    "list_engines",
    "register_engine",
    "FrequentEpisodeMiner",
    "MiningResult",
    "SerialMiner",
    # algos
    "MiningProblem",
    "ThreadTexKernel",
    "ThreadBufKernel",
    "BlockTexKernel",
    "BlockBufKernel",
    "AdaptiveSelector",
    "get_algorithm",
    # data
    "paper_database",
    "random_database",
    "PAPER_DB_LENGTH",
    "generate_spike_stream",
    "generate_market_stream",
    # simulated-GPU counting engine
    "GpuSimEngine",
    # extensions
    "MultiGpu",
    "dual_gx2",
    "PipelinedMiner",
    # streaming
    "StreamingMiner",
    "StreamUpdate",
    "ArrayStreamSource",
    "FileStreamSource",
    "SyntheticStreamSource",
    "as_stream_source",
    "__version__",
]
