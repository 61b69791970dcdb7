"""Common machinery for the four mining kernels.

A :class:`MiningProblem` bundles the database, the candidate episode
batch, and the matching policy; a :class:`MiningKernel` binds a problem
to a thread count and implements the :class:`~repro.gpu.kernel.Kernel`
protocol: launch plan, functional execution against device memory, and
a timing trace.

The functional execution path is the MapReduce pipeline of §3.3.1: the
*map* emits per-unit occurrence counts (per episode for thread-level,
per thread-segment for block-level), an intermediate *span fix* handles
episodes crossing segment boundaries (block-level only, Fig. 5), and
the *reduce* sums — an identity for thread-level parallelism.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import MiningError, ValidationError
from repro.gpu.calibration import (
    AlgoCostParams,
    BUFFER_BYTES,
    DEFAULT_ALGO_COSTS,
    timing_params_for,
)
from repro.gpu.kernel import Kernel
from repro.gpu.launch import Dim3, LaunchConfig
from repro.gpu.memory import DeviceMemory
from repro.gpu.specs import DeviceSpecs
from repro.mining.alphabet import check_database, check_episode_codes
from repro.mining.episode import Episode, episodes_to_matrix
from repro.mining.policies import MatchPolicy, validate_window
from repro.mining.trie import CandidateTrie, as_trie


@dataclass(frozen=True)
class MiningProblem:
    """One counting step: database x same-length episode batch.

    ``episodes`` is a tuple of :class:`Episode` objects, a raw
    ``(E, L)`` integer matrix — the matrix form admits repeated symbols
    within a row, which the distinct-item :class:`Episode` type cannot
    express but the counting kernels handle exactly — or a
    :class:`~repro.mining.trie.CandidateTrie`, kept as given so a
    counting engine's batch reaches the kernels without a rebuild.

    Construction is the simulated kernels' validation boundary: the
    database and episode-code rules of :mod:`repro.mining.alphabet`,
    plus the uint8 staging bound ``alphabet_size <= 256``; the database
    and ``matrix`` are then narrowed to uint8 for the device buffers.
    """

    db: np.ndarray
    episodes: "tuple[Episode, ...] | np.ndarray | CandidateTrie"
    alphabet_size: int
    policy: MatchPolicy = MatchPolicy.RESET
    window: int | None = None
    #: the batch as the kernels' uint8 ``(E, L)`` matrix
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.alphabet_size > 256:
            raise ValidationError(
                f"simulated kernels stage the database as uint8; alphabet_size "
                f"{self.alphabet_size} exceeds the 256 representable symbols"
            )
        db = check_database(self.db, self.alphabet_size)
        validate_window(self.policy, self.window)
        if isinstance(self.episodes, np.ndarray):
            matrix = self.episodes
            if matrix.ndim != 2 or 0 in matrix.shape:
                raise ValidationError(
                    "episode matrix must be 2-D and non-empty, got shape "
                    f"{matrix.shape}"
                )
        elif isinstance(self.episodes, CandidateTrie):
            matrix = self.episodes.matrix
        else:
            if not self.episodes:
                raise ValidationError("problem needs at least one episode")
            object.__setattr__(self, "episodes", tuple(self.episodes))
            matrix = episodes_to_matrix(list(self.episodes))
        check_episode_codes(matrix, self.alphabet_size)
        object.__setattr__(self, "matrix", matrix.astype(np.uint8, copy=False))
        object.__setattr__(self, "db", db.astype(np.uint8, copy=False))

    @cached_property
    def trie(self) -> CandidateTrie:
        """The batch as a trie, built at most once per problem — the
        form the host counting path takes."""
        return as_trie(self.episodes)

    @property
    def n(self) -> int:
        return int(self.db.size)

    @property
    def n_episodes(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def level(self) -> int:
        return int(self.matrix.shape[1])


class MiningKernel(Kernel, abc.ABC):
    """Base class for the four algorithms."""

    #: paper's algorithm number (1-4)
    algorithm_id: int = 0
    #: True for block-level parallelism (one block per episode)
    block_level: bool = False
    #: True when the database is staged through shared memory
    buffered: bool = False

    def __init__(
        self,
        problem: MiningProblem,
        threads_per_block: int,
        costs: AlgoCostParams | None = None,
        buffer_bytes: int = BUFFER_BYTES,
    ) -> None:
        if threads_per_block < 1:
            raise ValidationError(
                f"threads_per_block must be >= 1, got {threads_per_block}"
            )
        self.problem = problem
        self.threads_per_block = threads_per_block
        self.costs = costs or DEFAULT_ALGO_COSTS
        self.buffer_bytes = buffer_bytes
        if self.block_level and problem.policy is not MatchPolicy.RESET:
            raise MiningError(
                f"{self.name}: block-level kernels require the RESET policy "
                "(segment decomposition with span fix-up is exact only for "
                "contiguous matching; see repro.mining.spanning)"
            )

    # -- launch ---------------------------------------------------------
    @property
    def grid_blocks(self) -> int:
        if self.block_level:
            return self.problem.n_episodes
        return -(-self.problem.n_episodes // self.threads_per_block)

    def launch_config(self, device: DeviceSpecs) -> LaunchConfig:
        blocks = self.grid_blocks
        # CUDA grids are limited to 65535 per axis; fold overflow into y.
        gx = min(blocks, 65535)
        gy = -(-blocks // gx)
        return LaunchConfig(
            grid=Dim3(gx, gy),
            block=Dim3(self.threads_per_block),
            shared_mem_bytes=self.buffer_bytes if self.buffered else 0,
            registers_per_thread=self.costs.registers_per_thread,
        )

    # -- functional plumbing ---------------------------------------------
    def upload(self, memory: DeviceMemory) -> None:
        """Stage the database and episode batch, replacing stale buffers.

        Re-launching on the same simulator with a new problem (the
        level-wise miner does this every level) must not read stale
        device buffers, so staging is content-checked, not just
        key-checked.
        """
        space = memory.texture_mem if not self.buffered else memory.global_mem
        self._stage(space, f"{self.name}/db", self.problem.db)
        matrix = self.problem.matrix
        if matrix.nbytes <= memory.constant_mem.capacity_bytes:
            self._stage(memory.constant_mem, f"{self.name}/episodes", matrix)
        else:
            self._stage(memory.global_mem, f"{self.name}/episodes", matrix)

    @staticmethod
    def _stage(space, key: str, data: np.ndarray) -> None:
        try:
            existing = space.get(key)
        except Exception:
            space.alloc(key, data)
            return
        if existing.shape != data.shape or not np.array_equal(existing, data):
            space.free(key)
            space.alloc(key, data)

    def describe(self) -> dict[str, object]:
        return {
            "kernel": self.name,
            "algorithm": self.algorithm_id,
            "block_level": self.block_level,
            "buffered": self.buffered,
            "threads_per_block": self.threads_per_block,
            "episodes": self.problem.n_episodes,
            "level": self.problem.level,
            "db_length": self.problem.n,
        }

    # -- helpers shared by traces -----------------------------------------
    def _card(self, device: DeviceSpecs):
        return timing_params_for(device)

    @property
    def chunk_chars(self) -> int:
        """Characters staged per shared-memory chunk (1 byte/char)."""
        return self.buffer_bytes

    @property
    def n_chunks(self) -> int:
        return -(-self.problem.n // self.chunk_chars)
