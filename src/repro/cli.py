"""Command-line interface: ``python -m repro <command>``.

Commands mirror the experiment harness so the paper's artifacts can be
regenerated without writing Python:

* ``tables`` — print Tables 1 and 2;
* ``figure --id fig7`` — run the sweep and print one figure's series;
* ``characterize`` — run the full sweep, print C1-C8 and expectations;
* ``advise --level 2 [--card GTX280]`` — the §5.3 card/config advisor;
* ``mine --events 20000 --threshold 0.02`` — end-to-end mining demo on a
  synthetic market stream with the auto-selected GPU algorithm;
* ``stream --chunks 12 --chunk-size 2048`` — incremental mining over a
  chunk-at-a-time event feed (synthetic drifting feed by default, or
  ``--input`` to replay a saved database), with per-chunk
  promotion/demotion reporting (see :mod:`repro.streaming`);
* ``report out.json`` — render a run report written by the ``--trace``
  flag of ``mine``/``stream`` (phase table, counters,
  degradation events; see :mod:`repro.obs`);
* ``probe`` — run the §6 micro-benchmark suite on a card;
* ``lint`` — run the contract linter (:mod:`repro.analysis`, rules
  REP001-REP006 per ``CONTRACTS.md``) over the source trees; also
  reachable as ``python -m repro.analysis``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.errors import ReproError

if TYPE_CHECKING:  # engines load lazily, inside the commands
    from repro.mining.engines import CountingEngine


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Multi-Dimensional Characterization of "
        "Temporal Data Mining on Graphics Processors' (IPPS 2009)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables 1 and 2")

    fig = sub.add_parser("figure", help="regenerate one figure's series")
    fig.add_argument(
        "--id",
        dest="figure_id",
        choices=("fig6", "fig7", "fig8", "fig9"),
        required=True,
    )
    fig.add_argument("--step", type=int, default=32, help="thread sweep step")

    chz = sub.add_parser("characterize", help="run C1-C8 on the full sweep")
    chz.add_argument("--step", type=int, default=16, help="thread sweep step")

    adv = sub.add_parser("advise", help="best (algorithm, threads) per card")
    adv.add_argument("--level", type=int, default=2, choices=(1, 2, 3))
    adv.add_argument("--card", default=None, help="restrict to one card")

    mine = sub.add_parser("mine", help="end-to-end mining on a market stream")
    mine.add_argument("--events", type=int, default=20_000)
    mine.add_argument("--threshold", type=float, default=0.02)
    mine.add_argument("--card", default="GTX280")
    mine.add_argument(
        "--engine",
        default="gpu",
        help="counting engine: a registry name (gpu-sim, auto, "
        "position-hop, vector-sweep, sharded, scalar-oracle); "
        "'gpu' is an alias for gpu-sim (simulated card, default)",
    )
    mine.add_argument(
        "--policy",
        default="reset",
        choices=("reset", "subsequence", "expiring"),
        help="episode matching policy (default: reset)",
    )
    mine.add_argument(
        "--window",
        type=int,
        default=None,
        help="expiry window in events (required by --policy expiring, "
        "rejected otherwise)",
    )
    mine.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard counting across this many worker processes (wraps "
        "the chosen engine in the sharded engine; the pool is acquired "
        "once for the whole run)",
    )
    mine.add_argument(
        "--min-shard-work",
        type=int,
        default=None,
        help="minimum db-chars x episodes before a counting call is "
        "sharded (smaller problems run inline); only with --workers "
        "or --engine sharded",
    )
    mine.add_argument(
        "--trace", type=Path, default=None, metavar="PATH",
        help="record run telemetry (span tree, counters, "
        "degradation events) and write it as a JSON run report; "
        "inspect with `repro report PATH`",
    )

    strm = sub.add_parser(
        "stream",
        help="incremental mining over a chunked event feed",
    )
    strm.add_argument(
        "--chunks", type=int, default=None,
        help="number of synthetic chunks to generate (default: 12; "
        "synthetic feed only)",
    )
    strm.add_argument(
        "--chunk-size", type=int, default=2048,
        help="events per chunk (default: 2048)",
    )
    strm.add_argument(
        "--input", type=Path, default=None,
        help="replay a database saved by the data IO helpers "
        "(.npy/.txt) instead of the synthetic feed",
    )
    strm.add_argument(
        "--alphabet-size", type=int, default=26,
        help="synthetic feed alphabet size (default: 26)",
    )
    strm.add_argument(
        "--drift", type=float, default=None,
        help="per-chunk symbol-frequency drift of the synthetic feed "
        "(0 = stationary; default: 0.15; synthetic feed only)",
    )
    strm.add_argument(
        "--seed", type=int, default=None,
        help="synthetic feed seed (default: 2009; synthetic feed only)",
    )
    strm.add_argument("--threshold", type=float, default=0.02)
    strm.add_argument(
        "--policy", default="reset",
        choices=("reset", "subsequence", "expiring"),
    )
    strm.add_argument("--window", type=int, default=None)
    strm.add_argument(
        "--mode", default="landmark", choices=("landmark", "windowed"),
        help="landmark: counts over the whole stream (incremental state "
        "carry); windowed: counts over the trailing --horizon events",
    )
    strm.add_argument(
        "--horizon", type=int, default=None,
        help="window size in events (required by --mode windowed)",
    )
    strm.add_argument("--max-level", type=int, default=3)
    strm.add_argument(
        "--engine", default="auto",
        help="counting engine for chunk/backfill dispatch (registry "
        "name; 'gpu' aliases gpu-sim)",
    )
    strm.add_argument(
        "--workers", type=int, default=None,
        help="shard chunk counting across worker processes (wraps the "
        "engine in the sharded engine, run-scoped per chunk)",
    )
    strm.add_argument(
        "--min-shard-work", type=int, default=None,
        help="minimum db-chars x episodes before a counting call is "
        "sharded; only with --workers",
    )
    strm.add_argument(
        "--checkpoint", type=Path, default=None, metavar="PATH",
        help="write an atomic, digest-sealed checkpoint after every "
        "chunk (see repro.streaming.checkpoint); an interrupted run "
        "leaves the last completed chunk's checkpoint on disk",
    )
    strm.add_argument(
        "--resume", type=Path, default=None, metavar="PATH",
        help="resume from a checkpoint written by --checkpoint: mining "
        "configuration (threshold/policy/window/mode/horizon/max-level) "
        "comes from the file, already-consumed chunks of the feed are "
        "skipped, and results are bit-identical to an uninterrupted run",
    )
    strm.add_argument(
        "--trace", type=Path, default=None, metavar="PATH",
        help="record per-chunk telemetry (spans, counters, "
        "incremental-vs-recount decisions, degradation events) and "
        "write it as a JSON run report; inspect with `repro report PATH`",
    )

    rep = sub.add_parser(
        "report",
        help="render a run report written by --trace: phase table, "
        "counters, degradation events",
    )
    rep.add_argument("path", type=Path, metavar="PATH",
                     help="run-report file written by a --trace run")

    probe = sub.add_parser("probe", help="run the micro-benchmark suite")
    probe.add_argument("--card", default="GTX280")

    lint = sub.add_parser(
        "lint",
        help="run the contract linter (rules REP001-REP006, see "
        "CONTRACTS.md); exits 1 on any unbaselined finding",
    )
    lint.add_argument(
        "paths", nargs="*", type=Path, metavar="PATH",
        help="files or directories to lint (default: src plus "
        "benchmarks/examples when present)",
    )
    lint.add_argument(
        "--format", dest="lint_format", default="text",
        choices=("text", "json"),
        help="report format (default: text)",
    )
    lint.add_argument(
        "--baseline", type=Path, default=None, metavar="PATH",
        help="baseline file of tolerated findings (default: "
        "lint-baseline.json at the repo root; missing file = empty)",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="write the current findings to the baseline file and exit "
        "0 (adoption escape hatch; the committed baseline stays empty)",
    )
    lint.add_argument(
        "--rules", default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all registered)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    lint.add_argument(
        "--verbose", action="store_true",
        help="also show baselined findings in text output",
    )
    return parser


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.experiments.tables import render_table1, render_table2

    print(render_table1())
    print()
    print(render_table2())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments import Harness, SweepConfig, run_figure
    from repro.experiments.figures import fig6_spec, fig7_spec, fig8_spec, fig9_spec

    specs = {
        "fig6": fig6_spec,
        "fig7": fig7_spec,
        "fig8": fig8_spec,
        "fig9": fig9_spec,
    }
    config = SweepConfig(threads=tuple(range(max(16, args.step), 513, args.step)))
    results = Harness(config).run()
    rendered = run_figure(specs[args.figure_id](), results)
    print(rendered.render_text(y_fmt="{:.2f}"))
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.experiments import Harness, SweepConfig, run_characterizations
    from repro.experiments.expectations import check_all

    config = SweepConfig(threads=tuple(range(max(16, args.step), 513, args.step)))
    results = Harness(config).run()
    ok = True
    for c in run_characterizations(results):
        status = "PASS" if c.passed else "FAIL"
        ok &= c.passed
        print(f"[{status}] C{c.cid}: {c.title}")
        print(f"        {c.evidence}")
    for e in check_all(results):
        status = "PASS" if e.passed else "FAIL"
        ok &= e.passed
        print(f"[{status}] {e.source}: {e.name}")
    return 0 if ok else 1


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.algos import AdaptiveSelector, MiningProblem
    from repro.data.synthetic import paper_database
    from repro.gpu.specs import get_card, list_cards
    from repro.mining.alphabet import UPPERCASE
    from repro.mining.candidates import generate_level

    db = paper_database()
    episodes = tuple(generate_level(UPPERCASE, args.level))
    problem = MiningProblem(db, episodes, UPPERCASE.size)
    cards = [args.card] if args.card else list_cards()
    for card in cards:
        choice = AdaptiveSelector(get_card(card)).select(problem)
        print(
            f"{card}: level {args.level} ({len(episodes)} episodes) -> "
            f"Algorithm {choice.algorithm_id} with "
            f"{choice.threads_per_block} threads/block "
            f"({choice.best_ms:.3f} ms modeled)"
        )
    return 0


def _trace_recorder(args: argparse.Namespace):
    """A live recorder when ``--trace`` was given, else ``None``."""
    if getattr(args, "trace", None) is None:
        return None
    from repro.obs.recorder import Recorder

    return Recorder()


def _write_trace(report, path: Path) -> None:
    if report is None:
        return
    report.write(path)
    print(f"wrote run report to {path} (inspect with `repro report {path}`)")


def _degradation_line(ev) -> str:
    """One-line human summary of a DegradationEvent."""
    shards = ",".join(str(s) for s in ev.shards) if ev.shards else "-"
    return (f"  degradation: [{ev.kind}] shard(s) {shards} "
            f"attempt {ev.attempt}: {ev.detail}")


def _engine_from_args(
    args: argparse.Namespace, card: "str | None" = None
) -> "tuple[str, CountingEngine]":
    """``(name, engine)`` for ``--engine``/``--workers``/``--min-shard-work``.

    ``gpu`` aliases ``gpu-sim``, built on ``card`` when one is given.
    ``--workers`` (or ``--engine sharded``) wraps the engine in a
    :class:`~repro.mining.engines.ShardedEngine`; ``ConfigError`` on an
    unknown engine or on ``--min-shard-work`` without sharding.
    """
    from repro.errors import ConfigError
    from repro.mining.engines import (
        GpuSimEngine,
        ShardedEngine,
        get_engine,
        list_engines,
    )

    engine_name = "gpu-sim" if args.engine == "gpu" else args.engine
    if engine_name not in list_engines():
        raise ConfigError(
            f"unknown engine {args.engine!r}; expected 'gpu' or one of "
            f"{', '.join(list_engines())}"
        )
    sharded = engine_name == "sharded" or args.workers is not None
    if args.min_shard_work is not None and not sharded:
        raise ConfigError(
            "--min-shard-work requires --workers or --engine sharded"
        )
    if engine_name == "gpu-sim" and card is not None:
        from repro.gpu.specs import get_card

        # same registry engine the name resolves to, on that card
        engine = GpuSimEngine(device=get_card(card))
    else:
        engine = get_engine(engine_name)
    if sharded:
        shard_kwargs = {}
        if args.workers is not None:
            shard_kwargs["workers"] = args.workers
        if args.min_shard_work is not None:
            shard_kwargs["min_shard_work"] = args.min_shard_work
        inner = "auto" if engine_name == "sharded" else engine
        # ConfigError on bad values
        engine = ShardedEngine(inner=inner, **shard_kwargs)
    return engine_name, engine


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError
    from repro.obs import clock
    from repro.mining.alphabet import Alphabet
    from repro.mining.engines import ShardedEngine
    from repro.mining.policies import MatchPolicy, validate_window
    from repro.streaming import (
        FileStreamSource,
        StreamingMiner,
        SyntheticStreamSource,
    )

    policy = MatchPolicy(args.policy)
    validate_window(policy, args.window)
    engine_name, engine = _engine_from_args(args)
    alphabet = Alphabet.of_size(args.alphabet_size)
    if args.input is not None:
        # fail fast on synthetic-only flags rather than silently
        # replaying the whole file regardless of them
        for flag, value in (("--chunks", args.chunks),
                            ("--drift", args.drift),
                            ("--seed", args.seed)):
            if value is not None:
                raise ConfigError(
                    f"{flag} applies to the synthetic feed only; "
                    "--input replays the whole file in --chunk-size pieces"
                )
        source = FileStreamSource(
            args.input, chunk_size=args.chunk_size, alphabet=alphabet
        )
        feed = f"replay of {args.input}"
    else:
        n_chunks = args.chunks if args.chunks is not None else 12
        drift = args.drift if args.drift is not None else 0.15
        seed = args.seed if args.seed is not None else 2009
        source = SyntheticStreamSource(
            n_chunks,
            args.chunk_size,
            alphabet=alphabet,
            seed=seed,
            drift=drift,
        )
        feed = (
            f"synthetic feed ({n_chunks} chunks x {args.chunk_size} "
            f"events, drift {drift:g})"
        )
    recorder = _trace_recorder(args)
    skip = 0
    if args.resume is not None:
        # mining configuration comes from the checkpoint — the feed
        # flags above still define the (re-iterable) source, whose
        # already-consumed chunks are skipped
        miner = StreamingMiner.resume(args.resume, engine=engine)
        miner.recorder = recorder
        skip = miner.chunk_index
        mode = miner.mode
        print(
            f"resumed from {args.resume}: {miner.total_events:,} events "
            f"across {skip} chunk(s) already consumed "
            f"(mode={miner.mode} policy={miner.policy.value} "
            f"alpha={miner.threshold})"
        )
    else:
        miner = StreamingMiner(
            alphabet,
            threshold=args.threshold,
            policy=policy,
            window=args.window,
            engine=engine,
            mode=args.mode,
            horizon=args.horizon,
            max_level=args.max_level,
            recorder=recorder,
        )
        mode = args.mode
    print(
        f"streaming {feed}: mode={mode} policy={miner.policy.value} "
        f"alpha={miner.threshold} engine={engine_name}"
    )
    interrupted = False
    last_checkpoint = None
    t0 = clock.now()
    try:
        for i, chunk in enumerate(source.chunks()):
            if i < skip:
                continue
            update = miner.update(chunk)
            line = (
                f"  chunk {update.chunk_index:>3}: +{update.chunk_events:,} "
                f"events ({update.total_events:,} total), "
                f"{update.n_frequent} frequent"
            )
            if mode == "landmark":
                line += f", {update.n_tracked} tracked"
                if update.promoted:
                    line += f", +{len(update.promoted)} promoted"
                if update.demoted:
                    line += f", -{len(update.demoted)} demoted"
            print(line)
            for ev in update.events:
                print(_degradation_line(ev))
            if args.checkpoint is not None:
                # after every completed chunk, so an interrupt or crash
                # at any point leaves a consistent resume point
                last_checkpoint = miner.checkpoint(args.checkpoint)
    except KeyboardInterrupt:
        # a mid-update interrupt leaves the in-memory state partially
        # advanced, so no checkpoint is written *here* — the per-chunk
        # checkpoint after the last completed chunk is the resume point
        interrupted = True
        print()
        if last_checkpoint is not None:
            print(
                f"interrupted; resume with --resume {last_checkpoint} "
                f"(state as of chunk {miner.chunk_index - 1})"
            )
        elif args.checkpoint is not None:
            print("interrupted before the first chunk completed; "
                  "no checkpoint written by this run")
        else:
            print("interrupted (run with --checkpoint PATH to make "
                  "streams resumable)")
    elapsed = clock.now() - t0
    result = miner.result()
    for lvl in result.levels:
        print(
            f"  level {lvl.level}: {lvl.n_candidates} candidates -> "
            f"{lvl.n_frequent} frequent"
        )
    top = sorted(result.all_frequent.items(), key=lambda kv: -kv[1])[:10]
    for ep, count in top:
        print(f"  {ep.to_symbols(miner.alphabet)}: {count:,}")
    rate = miner.total_events / elapsed if elapsed > 0 else float("inf")
    print(
        f"consumed {miner.total_events:,} events in {elapsed * 1e3:.1f} ms "
        f"({rate:,.0f} events/s)"
    )
    if isinstance(engine, ShardedEngine):
        print(
            f"sharded over {engine.workers} workers "
            f"({engine.pools_spawned} pool spawn(s))"
        )
    if args.trace is not None:
        # also after an interrupt: every completed chunk's telemetry is
        # balanced, so the partial trace is still a valid report
        _write_trace(miner.last_report, args.trace)
    return 130 if interrupted else 0


def _cmd_mine(args: argparse.Namespace) -> int:
    from repro.data.market import MarketConfig, generate_market_stream
    from repro.obs import clock
    from repro.mining.engines import GpuSimEngine, ShardedEngine
    from repro.mining.miner import FrequentEpisodeMiner
    from repro.mining.policies import MatchPolicy, validate_window

    # validate policy, window, engine and sharding before the (possibly
    # multi-million event) stream is built
    policy = MatchPolicy(args.policy)
    validate_window(policy, args.window)
    engine_name, engine = _engine_from_args(args, card=args.card)
    if engine_name == "gpu-sim" and isinstance(engine, ShardedEngine):
        # workers re-resolve gpu-sim by name on the default card, so
        # per-card kernel-time reporting is lost; counts stay exact
        print(
            "note: --workers shards the simulated-GPU engine across "
            "host processes; simulated kernel time is not reported "
            "and --card only affects unsharded calls"
        )
    config = MarketConfig(
        n_products=12,
        n_events=args.events,
        rules=(((0, 1, 2), 0.05), ((3, 4), 0.06)),
        seed=5,
    )
    alphabet = config.alphabet()
    stream = generate_market_stream(config)
    recorder = _trace_recorder(args)
    miner = FrequentEpisodeMiner(
        alphabet, threshold=args.threshold, policy=policy,
        window=args.window, engine=engine, max_level=4,
        recorder=recorder,
    )
    t0 = clock.now()
    try:
        result = miner.mine(stream)
    except KeyboardInterrupt:
        # batch mining has no resumable state; discard cleanly (worker
        # pools shut down via the engine scope's __exit__)
        print("\ninterrupted: partial batch mining state discarded",
              file=sys.stderr)
        return 130
    elapsed = clock.now() - t0
    print(
        f"mined {stream.size:,} events at alpha={args.threshold} "
        f"(engine={engine_name}, policy={policy.value})"
    )
    for lvl in result.levels:
        print(
            f"  level {lvl.level}: {lvl.n_candidates} candidates -> "
            f"{lvl.n_frequent} frequent"
        )
    for ep, count in sorted(result.all_frequent.items(), key=lambda kv: -kv[1])[:10]:
        print(f"  {ep.to_symbols(alphabet)}: {count:,}")
    if isinstance(engine, GpuSimEngine):
        print(
            f"simulated kernel time: {engine.total_kernel_ms:.3f} ms across "
            f"{len(engine.reports)} launches"
        )
    else:
        print(f"host mining wall time: {elapsed * 1e3:.1f} ms")
    if isinstance(engine, ShardedEngine):
        print(
            f"sharded over {engine.workers} workers "
            f"({engine.pools_spawned} pool spawn(s) for the whole run)"
        )
    for ev in miner.degradation_events:
        print(_degradation_line(ev))
    if args.trace is not None:
        _write_trace(miner.last_report, args.trace)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import RunReport
    from repro.util.tables import format_table

    report = RunReport.read(args.path)
    print(
        f"run report: command={report.command} created={report.created_at} "
        f"wall {report.wall_s * 1e3:.1f} ms"
    )
    if report.meta:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(report.meta.items()))
        print(f"  {pairs}")
    rows = [
        (phase, calls, total * 1e3, pct)
        for phase, calls, total, pct in report.phase_rows()
    ]
    if rows:
        print()
        print(format_table(
            ("phase", "calls", "total ms", "% of wall"),
            rows,
            title="phases (nested spans count toward their parents)",
        ))
    if report.counters:
        print()
        print("counters:")
        for name, value in sorted(report.counters.items()):
            print(f"  {name} = {value:,}")
    if report.gauges:
        print("gauges:")
        for name, value in sorted(report.gauges.items()):
            print(f"  {name} = {value:g}")
    if report.calibration:
        pairs = ", ".join(
            f"{k}={v}" for k, v in sorted(report.calibration.items())
        )
        print(f"calibration: {pairs}")
    if report.degradation_events:
        print(f"degradation events ({len(report.degradation_events)}):")
        for ev in report.degradation_events:
            shards = ev.get("shards") or []
            where = ",".join(str(s) for s in shards) if shards else "-"
            print(f"  [{ev.get('kind', '?')}] shard(s) {where} "
                  f"attempt {ev.get('attempt', 0)}: {ev.get('detail', '')}")
    if report.dropped_spans:
        print(f"note: {report.dropped_spans:,} span(s) over the retention "
              "cap were timed but dropped from the tree")
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    from repro.experiments.microbench import run_all_probes
    from repro.gpu.specs import get_card
    from repro.util.tables import format_series

    device = get_card(args.card)
    for probe in run_all_probes(device):
        print(format_series(f"{probe.name} on {device.name}", probe.xs, probe.ys))
        for key, value in probe.derived.items():
            print(f"    {key} = {value:.3f}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        DEFAULT_BASELINE,
        DEFAULT_REGISTRY,
        Analyzer,
        baseline_payload,
        default_lint_paths,
        load_baseline,
        render_json,
        render_text,
    )
    from repro.resilience.atomic import atomic_write_text

    if args.list_rules:
        for rule in DEFAULT_REGISTRY:
            print(f"{rule.id}  [{rule.severity:7s}]  {rule.title}")
        return 0
    only = (
        [r.strip().upper() for r in args.rules.split(",") if r.strip()]
        if args.rules is not None
        else None
    )
    baseline_path = (
        args.baseline if args.baseline is not None else Path(DEFAULT_BASELINE)
    )
    paths = [str(p) for p in args.paths] or default_lint_paths()
    analyzer = Analyzer(rules=only, baseline=load_baseline(baseline_path))
    report = analyzer.run(paths)
    if args.write_baseline:
        import json as _json

        atomic_write_text(
            baseline_path,
            _json.dumps(baseline_payload(report.findings), indent=2) + "\n",
        )
        print(
            f"wrote {len(report.findings)} finding(s) to {baseline_path}"
        )
        return 0
    if args.lint_format == "json":
        print(render_json(report))
    else:
        print(render_text(report, verbose=args.verbose))
    return 0 if report.ok else 1


_COMMANDS = {
    "tables": _cmd_tables,
    "lint": _cmd_lint,
    "stream": _cmd_stream,
    "figure": _cmd_figure,
    "characterize": _cmd_characterize,
    "advise": _cmd_advise,
    "mine": _cmd_mine,
    "report": _cmd_report,
    "probe": _cmd_probe,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # commands with resumable state (stream) catch this themselves
        # to report their last checkpoint; everything else exits with
        # the conventional SIGINT status instead of a traceback
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
