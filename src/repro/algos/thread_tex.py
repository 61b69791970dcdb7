"""Algorithm 1 — thread-level parallelism, texture memory (paper §3.3.2).

One thread searches for one episode by scanning the whole database
through texture memory.  Every thread starts at offset zero, so the
access pattern is a broadcast: the texture cache serves the entire warp
(and, in steady state, the entire SM) from one stream.  The MapReduce
*reduce* is the identity — each thread's count is final.

When the grid carries more threads than episodes (high thread counts at
low levels), surplus threads re-search episodes ``tid mod E`` — work
that "contributes nothing but contention" (paper §5.2.1) but keeps the
warp instruction stream uniform, exactly the uptrend Fig. 7(a) shows.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.launch import LaunchConfig
from repro.gpu.memory import DeviceMemory
from repro.gpu.specs import DeviceSpecs
from repro.gpu.trace import KernelTrace, Pattern, Phase, Space
from repro.mining.counting import count_batch
from repro.algos.base import MiningKernel


class ThreadTexKernel(MiningKernel):
    """Paper Algorithm 1: one thread per episode, unbuffered."""

    name = "algo1-thread-tex"
    algorithm_id = 1
    block_level = False
    buffered = False

    def execute(self, memory: DeviceMemory, config: LaunchConfig) -> np.ndarray:
        p = self.problem
        db = memory.texture_mem.get(f"{self.name}/db")
        memory.texture_mem.counters.reads += p.n * min(
            config.total_threads, p.n_episodes
        )
        # map: per-episode counts; reduce: identity
        return count_batch(db, p.trie, p.alphabet_size, p.policy, p.window)

    def build_trace(self, device: DeviceSpecs, config: LaunchConfig) -> KernelTrace:
        card = self._card(device)
        scan = Phase(
            name="scan",
            elements_per_thread=float(self.problem.n),
            instructions_per_element=self.costs.fsm_instructions_tex,
            chain_cycles_per_element=card.tex_broadcast_chain,
            space=Space.TEXTURE,
            pattern=Pattern.BROADCAST,
            bytes_per_element=1.0,
        )
        return KernelTrace(
            kernel_name=self.name,
            phases=(scan,),
            notes="map=FSM scan per episode; reduce=identity",
        )
