#!/usr/bin/env python
"""Market-basket scenario: ordered purchase rules (paper §3.1).

Demonstrates the full mining loop of the paper's Algorithm 1 — generate
candidates, count on the simulated GPU, eliminate below threshold,
extend survivors — on a purchase stream where order matters: the stream
contains {peanut-butter, bread} -> {jelly} far more often than the
reversed ordering, and temporal mining distinguishes the two.

Run:  python examples/market_basket.py
"""

from repro import FrequentEpisodeMiner, GpuSimEngine
from repro.data import MarketConfig, generate_market_stream

# Product code legend for readability.
PRODUCTS = {0: "peanut-butter", 1: "bread", 2: "jelly", 3: "milk", 4: "cereal"}


def name_of(items: tuple[int, ...], alphabet) -> str:
    return " -> ".join(PRODUCTS.get(i, alphabet.symbol(i)) for i in items)


def main() -> None:
    config = MarketConfig(
        n_products=12,
        n_events=30_000,
        rules=(
            ((0, 1, 2), 0.05),  # peanut-butter -> bread -> jelly (frequent)
            ((3, 4), 0.08),  # milk -> cereal
            ((1, 0), 0.01),  # bread -> peanut-butter (rare reversal)
        ),
        seed=5,
    )
    alphabet = config.alphabet()
    stream = generate_market_stream(config)
    print(f"purchase stream: {stream.size:,} events over {config.n_products} products")

    # Level-wise mining with the GPU engine + adaptive algorithm selection.
    engine = GpuSimEngine(device="GTX280", algorithm="auto")
    miner = FrequentEpisodeMiner(alphabet, threshold=0.02, engine=engine, max_level=4)
    result = miner.mine(stream)

    print(f"\nmined {len(result.levels)} levels at alpha={result.threshold}")
    for lvl in result.levels:
        print(
            f"  level {lvl.level}: {lvl.n_candidates} candidates -> "
            f"{lvl.n_frequent} frequent"
        )

    print("\nfrequent episodes (order-sensitive):")
    for ep, count in sorted(result.all_frequent.items(), key=lambda kv: -kv[1]):
        print(f"  {name_of(ep.items, alphabet)}: {count:,}")

    # Order sensitivity: the planted direction must dominate its reversal.
    freq = {ep.items: c for ep, c in result.all_frequent.items()}
    pb_bread = freq.get((0, 1), 0)
    bread_pb = freq.get((1, 0), 0)
    print(
        f"\npeanut-butter->bread: {pb_bread:,} vs bread->peanut-butter: {bread_pb:,}"
    )
    assert pb_bread > bread_pb, "ordered rule should dominate its reversal"

    print(
        f"\nsimulated GPU kernel time across {len(engine.reports)} counting "
        f"launches: {engine.total_kernel_ms:.2f} ms"
    )
    for report in engine.reports:
        print(f"  {report.kernel_name}: {report.total_ms:.3f} ms")


if __name__ == "__main__":
    main()
