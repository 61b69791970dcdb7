"""Algorithm 2 — thread-level parallelism with shared-memory buffering
(paper §3.3.2).

Each thread still owns one episode, but the block stages the database
chunk-by-chunk into a shared-memory buffer: cooperative load, barrier,
scan the buffer, barrier, next chunk.  "The initial load time is high
... As more threads are added to a block Algorithm 2 exponentially
decreases in execution time" (Characterization 2): the per-thread load
share is ``chunk/t``, so the staging term decays hyperbolically with
the thread count while the scan term stays fixed.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.launch import LaunchConfig
from repro.gpu.memory import DeviceMemory
from repro.gpu.specs import DeviceSpecs
from repro.gpu.trace import KernelTrace, Pattern, Phase, Space
from repro.mining.counting import count_batch
from repro.algos.base import MiningKernel


class ThreadBufKernel(MiningKernel):
    """Paper Algorithm 2: one thread per episode, buffered."""

    name = "algo2-thread-buf"
    algorithm_id = 2
    block_level = False
    buffered = True

    def __init__(self, problem, threads_per_block, costs=None, buffer_bytes=None):
        from repro.gpu.calibration import a2_buffer_bytes

        if buffer_bytes is None:
            buffer_bytes = a2_buffer_bytes(threads_per_block)
        super().__init__(problem, threads_per_block, costs, buffer_bytes)

    def execute(self, memory: DeviceMemory, config: LaunchConfig) -> np.ndarray:
        p = self.problem
        db = memory.global_mem.get(f"{self.name}/db")
        # Functional equivalence: staging through shared memory does not
        # change the scanned character sequence; chunk boundaries do not
        # split matches because each thread scans the *whole* buffer
        # stream in order (state persists across chunks).
        memory.global_mem.counters.reads += p.n  # one staging pass
        return count_batch(db, p.trie, p.alphabet_size, p.policy, p.window)

    def build_trace(self, device: DeviceSpecs, config: LaunchConfig) -> KernelTrace:
        card = self._card(device)
        t = config.threads_per_block
        chunk = self.chunk_chars
        chunks = self.n_chunks
        load = Phase(
            name="load",
            # staged as 4-byte words so CC 1.1 half-warps coalesce
            elements_per_thread=chunk / (4.0 * t),
            instructions_per_element=self.costs.load_instructions,
            chain_cycles_per_element=card.a2_load_chain,
            space=Space.GLOBAL,
            pattern=Pattern.COALESCED,
            bytes_per_element=4.0,
            repeats=float(chunks),
            fixed_cycles_per_repeat=2.0 * self.costs.barrier_cycles,
        )
        scan = Phase(
            name="scan",
            elements_per_thread=float(chunk),
            instructions_per_element=self.costs.fsm_instructions_smem,
            chain_cycles_per_element=card.smem_chain,
            space=Space.SHARED,
            pattern=Pattern.NONE,
            repeats=float(chunks),
        )
        return KernelTrace(
            kernel_name=self.name,
            phases=(load, scan),
            notes=(
                f"{chunks} chunks of {chunk} B; cooperative load "
                "(no compute overlaps the load, paper C2); reduce=identity"
            ),
        )
