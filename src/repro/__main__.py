"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Package, subsystem, and experiment inventory.
``demo``
    A 30-second end-to-end demonstration (replicated volume, dual-layer
    writes, reads, space report).
``experiments``
    List every benchmark target and the paper artifact it reproduces.
``metrics``
    Run a short OLTP workload and dump the volume-wide metric snapshot
    (JSON or Prometheus text), plus one traced write's per-layer
    latency breakdown on stderr.
``chaos``
    Run a seeded fault-injection schedule (bit flips, torn/dropped/
    misdirected writes, slow I/O, device failure, replica crash +
    rejoin, quorum loss) against a replicated volume and assert the
    durability invariants.  Exit 0 iff every invariant held.
``raft``
    Run the consensus scenario: real Raft elections on a replicated
    volume under symmetric and asymmetric partitions, clock skew, and
    leader crashes (including one with an AppendEntries in flight),
    asserting the split-brain invariants — one leader per term, no
    committed write lost, monotonic terms, fenced leaders commit
    nothing — plus a quorum redo-durability oracle.  Exit 0 iff every
    invariant held.  Artifacts are byte-deterministic (``--out``).
``bench``
    Run a trimmed, deterministic profile of a thread-scaling figure
    (Fig 12 cluster sweep or Fig 15 per-page log) on the event-driven
    stack and persist its table + JSON artifact.
``cluster``
    Run the seeded sharded-runtime scenario: ingest a skewed tenant
    layout across real replica groups, show zone A/B/C/D occupancy,
    live-migrate chunks under both schedulers, and persist the wasted-
    space / migration-traffic table + JSON artifact (Figures 10/11).
``events``
    Run an observed scenario (sysbench / chaos / cluster / raft) with
    the flight recorder active and print (or dump as JSONL) the
    structured event log: page I/O, GC relocations, group-commit
    flushes, migrations, injected faults, codec selections, scrub
    repairs, elections, admissions — all stamped with simulated time.
    ``--load PATH`` replays and filters a previously-written dump
    instead of running anything.
``compaction``
    Drive the three consolidation policies (single-level / leveled /
    tiered) with the same flush workload over a compressible and an
    incompressible corpus, report write/space/read amplification from
    the unified ``storage.amp.*`` accountant, and check the
    B-tree-vs-LSM WA crossover (arXiv:2107.13987); persists a
    byte-deterministic table + JSON artifact.
``serve``
    Host a PolarStore deployment (engine-bound volume or sharded
    cluster) on a TCP socket speaking the ``repro.net`` wire protocol;
    ``PolarStore.connect(addr)`` and ``python -m repro load`` are the
    clients.  Runs until interrupted.
``load``
    Drive a seeded open-loop arrival process (Poisson / bursty /
    diurnal) through the socket serving layer and report latency
    percentiles, admission rejections, and SLO verdicts.  With no
    ``--addr`` it spins up a loopback server in-process; the ``sim``
    half of the ``--out`` JSON artifact is byte-identical across runs
    of the same spec (the CI ``net-smoke`` gate).

``--workers N`` (``bench``, ``cluster``; default 1) means one thing
everywhere: independent programs fanned across N forked worker
processes with byte-identical output.
"""

from __future__ import annotations

import argparse
import sys

EXPERIMENTS = [
    ("fig2", "benchmarks/bench_fig2_granularity.py",
     "index granularity / input size / algorithm sweep"),
    ("fig5", "benchmarks/bench_fig5_algorithms.py",
     "lz4 vs zstd and the dual-layer collapse"),
    ("fig7", "benchmarks/bench_fig7_device_latency.py",
     "device latency vs compression ratio"),
    ("fig8", "benchmarks/bench_fig8_tail_latency.py",
     ">=4ms tail: PolarCSD1.0 vs 2.0"),
    ("fig9", "benchmarks/bench_fig9_scheduling.py",
     "cluster ratio dispersion + zone-scheduling model"),
    ("fig10-11", "benchmarks/bench_fig10_11_scheduling.py",
     "live-migration scheduling on the sharded runtime"),
    ("fig12", "benchmarks/bench_fig12_overall.py",
     "sysbench overall performance (N1/C1/N2/C2)"),
    ("fig13", "benchmarks/bench_fig13_ablation.py",
     "technique-by-technique ablation"),
    ("fig14", "benchmarks/bench_fig14_space_ablation.py",
     "space ablation across datasets"),
    ("fig15", "benchmarks/bench_fig15_perpage_log.py",
     "per-page log vs scattered logs"),
    ("fig16", "benchmarks/bench_fig16_comparison.py",
     "vs InnoDB / MyRocks"),
    ("table2", "benchmarks/bench_table2_costs.py",
     "compression ratios and cost per GB"),
    ("table3", "benchmarks/bench_table3_selection.py",
     "algorithm selection split per dataset"),
    ("ablation", "benchmarks/bench_ablation_design.py",
     "per-page-log space, L2P granularity, heavy compression"),
    ("extensions", "benchmarks/bench_ablation_extensions.py",
     "shared dictionaries + estimation selection (§6)"),
    ("gc", "benchmarks/bench_ablation_ftl_gc.py",
     "FTL GC policy / over-provisioning"),
    ("contention", "benchmarks/bench_gen1_contention.py",
     "gen-1 host-FTL contention study"),
    ("micro", "benchmarks/bench_codec_micro.py",
     "codec wall-time microbenchmarks"),
    ("ec-dedup", "benchmarks/bench_ablation_ec_dedup.py",
     "erasure coding vs replication; dedup negative result (§6)"),
    ("innodb-modes", "benchmarks/bench_ablation_innodb_modes.py",
     "InnoDB table vs page compression vs PolarStore (§2.2.1)"),
    ("placement", "benchmarks/bench_ablation_placement.py",
     "ratio-aware chunk placement (extension)"),
]


def cmd_info(_args) -> int:
    import repro

    print(f"repro {repro.__version__} — PolarStore reproduction (FAST 2026)")
    print(__doc__.split("Commands")[0].strip())
    subsystems = [
        ("repro.compression", "LZ4 + zstd-like codecs (dictionary mode), "
                              "Algorithm-1 selector"),
        ("repro.csd", "PolarCSD simulator: FTL, NAND, GC, TRIM, faults"),
        ("repro.storage", "storage node, replication, WAL recovery, "
                          "per-page log, heavy archive"),
        ("repro.db", "pages, B+tree, buffer pool, RW/RO compute nodes"),
        ("repro.baselines", "InnoDB / MyRocks / log-structured baselines"),
        ("repro.cluster", "zone scheduler, migration, cost model"),
        ("repro.workloads", "datasets, fio buffers, sysbench driver"),
    ]
    print("\nsubsystems:")
    for name, blurb in subsystems:
        print(f"  {name:<20} {blurb}")
    return 0


def cmd_experiments(_args) -> int:
    print(f"{'id':<11} {'target':<46} reproduces")
    for exp_id, target, blurb in EXPERIMENTS:
        print(f"{exp_id:<11} {target:<46} {blurb}")
    print("\nrun all with: pytest benchmarks/ --benchmark-only")
    return 0


def cmd_demo(_args) -> int:
    from repro.api import PolarStore
    from repro.common.units import MiB
    from repro.workloads.datagen import dataset_pages

    print("building a 3-replica PolarStore volume (PolarCSD2.0) ...")
    client = PolarStore.open(store={"volume_bytes": 64 * MiB})
    pages = dataset_pages("finance", 16, seed=0)
    for page_no, page in enumerate(pages):
        client.write_page(page_no, page)
    now = client.now_us
    result = client.read_page(3)
    assert result.data == pages[3]
    leader = client.store.leader
    print(f"wrote {len(pages)} pages; read one back in "
          f"{result.done_us - now:.0f}us (simulated)")
    print(f"logical  : {leader.logical_used_bytes // 1024} KiB")
    print(f"software : {leader.device_used_bytes // 1024} KiB "
          f"(4 KiB-aligned blocks)")
    print(f"physical : {leader.physical_used_bytes // 1024} KiB of NAND")
    print(f"dual-layer ratio: {client.compression_ratio():.2f}x")
    return 0


def cmd_metrics(args) -> int:
    from repro.common.units import MiB

    if args.rows < 1:
        print("metrics: --rows must be at least 1", file=sys.stderr)
        return 2
    from repro.api import PolarStore
    from repro.obs.export import to_json, to_prometheus
    from repro.workloads.sysbench import prepare_table, run_sysbench

    db = PolarStore.open(store={"volume_bytes": 64 * MiB})
    loaded_us = prepare_table(db, rows=args.rows, seed=0)
    result = run_sysbench(
        db,
        "read_write",
        duration_s=args.duration,
        threads=4,
        key_range=args.rows,
        start_us=loaded_us,
        seed=0,
    )

    # One explicitly traced write so the per-layer span breakdown of a
    # single request can be inspected (spans sum to end-to-end latency).
    start = loaded_us + result.elapsed_s * 1e6
    payload = (b"trace-me" * 512)[: 16 * 1024]
    commit = db.store.write_page(start, 1, payload)
    trace = db.metrics.tracer.last
    if trace is not None:
        end_to_end = commit.commit_us - start
        print("# one traced OLTP page write "
              f"({end_to_end:.1f}us end-to-end):", file=sys.stderr)
        print(trace.render(), file=sys.stderr)
        breakdown = trace.breakdown()
        total = sum(breakdown.values())
        print(f"# span sum {total:.1f}us vs end-to-end {end_to_end:.1f}us "
              f"(delta {abs(total - end_to_end):.3f}us)", file=sys.stderr)
        print("# per-layer:", file=sys.stderr)
        for layer, us in sorted(trace.layer_breakdown().items()):
            print(f"#   {layer:<12} {us:10.1f}us "
                  f"({100.0 * us / total:5.1f}%)", file=sys.stderr)
    print(f"# workload: read_write, {result.transactions} txns, "
          f"{result.tps:.0f} tps (simulated)", file=sys.stderr)

    if args.format == "prometheus":
        print(to_prometheus(db.metrics))
    else:
        print(to_json(db.metrics))
    return 0


def cmd_chaos(args) -> int:
    from repro.chaos.harness import run_chaos

    if args.ops < 50:
        print("chaos: --ops must be at least 50 (the schedule needs "
              "room for crash, rejoin, and quorum phases)", file=sys.stderr)
        return 2
    report = run_chaos(
        seed=args.seed,
        ops=args.ops,
        verbose=args.verbose,
        min_data_faults=args.min_faults,
    )
    print(report.render())
    if args.metrics:
        from repro.obs.export import to_json

        print(to_json(report.metrics))
    return 0 if report.passed else 1


def cmd_raft(args) -> int:
    from repro.consensus.scenario import run_raft

    report = run_raft(
        seed=args.seed,
        quick=not args.full,
        verbose=args.verbose,
    )
    print(report.render())
    if args.out is not None:
        path = report.write_artifact(args.out)
        print(f"artifact: {path}", file=sys.stderr)
    if args.metrics:
        from repro.obs.export import to_json

        print(to_json(report.metrics))
    return 0 if report.passed else 1


def _resolved_workers(args) -> int:
    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    return args.workers


def cmd_bench(args) -> int:
    from repro.bench.figures import FIGURES

    runner = FIGURES[args.fig]
    runner(out_dir=args.out, quick=args.quick,
           workers=_resolved_workers(args))
    return 0


def cmd_cluster(args) -> int:
    from repro.bench.cluster_fig import run_fig10_11

    if args.shards < 2:
        print("cluster: --shards must be at least 2", file=sys.stderr)
        return 2
    if args.chunks < args.shards:
        print("cluster: --chunks must be at least --shards", file=sys.stderr)
        return 2
    result = run_fig10_11(
        out_dir=args.out,
        shards=args.shards,
        chunks=args.chunks,
        seed=args.seed,
        workers=_resolved_workers(args),
    )
    aware = dict(zip(result.columns, result.rows[-1]))
    print(f"compression-aware: {aware['tasks']} tasks moved "
          f"{aware['moved_pages']} pages "
          f"({aware['moved_logical_mib']} MiB logical -> "
          f"{aware['moved_physical_mib']} MiB physical) "
          f"in {aware['makespan_ms']} ms simulated")
    return 0


def cmd_events(args) -> int:
    from repro.obs.events import FlightRecorder, parse_sample_spec
    from repro.obs.scenarios import run_observed

    if args.load is not None:
        recorder = FlightRecorder.load(args.load)
    else:
        if args.scenario is None:
            print("events: a scenario (or --load PATH) is required",
                  file=sys.stderr)
            return 2
        sample = parse_sample_spec(args.sample) if args.sample else None
        run = run_observed(
            args.scenario,
            seed=args.seed,
            quick=not args.full,
            capacity=args.capacity,
            sample=sample,
        )
        recorder = run.recorder
        print(f"# scenario {run.name} seed {run.seed}: "
              f"{recorder.total_emitted} events recorded, "
              f"verdict {'PASS' if run.passed else 'FAIL'}",
              file=sys.stderr)
        if args.out is not None:
            recorder.dump_jsonl(args.out)
            print(f"# wrote {args.out}", file=sys.stderr)
    selected = recorder.events(
        channel=args.channel,
        kind=args.kind,
        since_us=args.since_us,
        until_us=args.until_us,
        limit=args.limit,
    )
    for event in selected:
        print(event.render())
    summary = recorder.summary()
    print("# channels: " + " ".join(
        f"{ch}={row['emitted']}" for ch, row in summary.items()
    ), file=sys.stderr)
    if args.load is None and not run.passed:
        return 1
    return 0


def cmd_compaction(args) -> int:
    from repro.bench.write_amp import run_write_amp

    _, crossover = run_write_amp(
        out_dir=args.out,
        quick=args.quick,
        policies=args.policy,
        seed=args.seed,
    )
    if crossover is False:
        print("FAIL: WA crossover does not hold", file=sys.stderr)
        return 1
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.api.config import ReproConfig
    from repro.net.server import PolarStoreServer

    doc = {
        "engine": {"enabled": not args.no_engine},
        "net": {"window": args.window, "host": args.host, "port": args.port},
        "store": {"seed": args.seed},
    }
    if args.shards:
        doc["cluster"] = {"shards": args.shards}
    server = PolarStoreServer(ReproConfig.from_dict(doc))

    async def run() -> None:
        host, port = await server.start()
        print(
            f"serving PolarStore on {host}:{port} "
            f"(window {args.window}, "
            f"engine {'off' if args.no_engine else 'on'}, "
            f"shards {args.shards or 'single volume'}) — ctrl-c to stop",
            flush=True,
        )
        await server._server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_load(args) -> int:
    from repro.api import PolarStore
    from repro.api.config import ReproConfig
    from repro.net.loadgen import ArrivalSpec, run_load
    from repro.net.server import serve_in_thread

    spec = ArrivalSpec(
        process=args.arrival,
        rate_per_s=args.rate,
        requests=min(args.requests, 300) if args.quick else args.requests,
        seed=args.seed,
        keys=args.keys,
    )
    handle = None
    if args.addr is None:
        config = ReproConfig.from_dict({
            "engine": {"enabled": True},
            "net": {"window": args.window},
            "store": {"seed": args.seed},
        })
        handle = serve_in_thread(config, port=0)
        addr = handle.addr
        print(f"# loopback server on {addr[0]}:{addr[1]} "
              f"(window {args.window})", file=sys.stderr)
    else:
        addr = args.addr
    client = PolarStore.connect(addr, timeout_s=args.timeout_s)
    try:
        report = run_load(client.transport, spec)
    finally:
        client.close()
        if handle is not None:
            handle.stop()
    print(report.render())
    if args.out is not None:
        report.write_artifact(args.out)
        print(f"artifact: {args.out}", file=sys.stderr)
    if report.errors or not report.completed:
        return 1
    return 0


_UNSET = object()


def shared_options(
    *,
    seed=_UNSET,
    seed_help: str = "",
    out=_UNSET,
    out_help: str = "",
    out_metavar: str = "DIR",
    quick_help=None,
) -> argparse.ArgumentParser:
    """The one definition of the CLI's recurring options.

    Every subcommand that takes ``--seed``/``--out``/``--quick`` gets
    them from this parent parser, so flag names, types, and help
    phrasing cannot drift per command (they used to).  Pass ``seed=``/
    ``out=`` defaults to include those flags; ``quick_help`` a string
    to include ``--quick``.
    """
    parent = argparse.ArgumentParser(add_help=False)
    if seed is not _UNSET:
        parent.add_argument(
            "--seed", type=int, default=seed,
            help=seed_help or (
                "deterministic RNG seed"
                + ("" if seed is None else f" (default: {seed})")
            ),
        )
    if out is not _UNSET:
        parent.add_argument(
            "--out", default=out, metavar=out_metavar,
            help=out_help or "directory for the table + JSON artifacts "
                             "(default: benchmarks/results)",
        )
    if quick_help is not None:
        parent.add_argument(
            "--quick", action="store_true", help=quick_help,
        )
    return parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="PolarStore reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("info", help="package and subsystem inventory")
    sub.add_parser("demo", help="30-second end-to-end demonstration")
    sub.add_parser("experiments", help="list benchmark targets")
    metrics_p = sub.add_parser(
        "metrics",
        help="run a short workload and dump the metric snapshot",
    )
    metrics_p.add_argument(
        "--format", choices=("json", "prometheus"), default="json",
        help="snapshot format on stdout (default: json)",
    )
    metrics_p.add_argument(
        "--rows", type=int, default=400,
        help="sysbench table rows (default: 400)",
    )
    metrics_p.add_argument(
        "--duration", type=float, default=0.2,
        help="simulated seconds of read_write load (default: 0.2)",
    )
    chaos_p = sub.add_parser(
        "chaos",
        help="run the fault-injection harness and check invariants",
        parents=[shared_options(
            seed=42,
            seed_help="RNG seed for both the workload and the fault "
                      "plan (default: 42)",
        )],
    )
    chaos_p.add_argument(
        "--ops", type=int, default=700,
        help="operations in the workload schedule (default: 700)",
    )
    chaos_p.add_argument(
        "--min-faults", type=int, default=100,
        help="I6 floor on injected data faults; scale down together "
             "with --ops for a quick smoke run (default: 100)",
    )
    chaos_p.add_argument(
        "--verbose", action="store_true",
        help="narrate crash/rejoin/scrub events as they happen",
    )
    chaos_p.add_argument(
        "--metrics", action="store_true",
        help="also dump the final metric snapshot as JSON",
    )
    raft_p = sub.add_parser(
        "raft",
        help="run the consensus scenario (elections, partitions, leader "
             "crashes) and assert the split-brain invariants",
        parents=[shared_options(
            seed=11,
            seed_help="schedule seed (default: 11)",
            out=None,
            out_help="write the byte-deterministic raft_scenario.json here",
        )],
    )
    raft_p.add_argument(
        "--full", action="store_true",
        help="full-size workload (default: quick smoke profile)",
    )
    raft_p.add_argument(
        "--verbose", action="store_true",
        help="narrate elections, partitions, and crashes as they happen",
    )
    raft_p.add_argument(
        "--metrics", action="store_true",
        help="also dump the final metric snapshot as JSON",
    )
    bench_p = sub.add_parser(
        "bench",
        help="run a deterministic thread-scaling figure profile",
        parents=[shared_options(
            out=None,
            quick_help="trimmed budgets for smoke/CI runs (recommended)",
        )],
    )
    bench_p.add_argument(
        "--fig", choices=("12", "15"), required=True,
        help="which figure to profile (12: cluster sweep, 15: per-page log)",
    )
    bench_p.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="fan independent figure cells across N worker "
             "processes; byte-identical output (default: 1)",
    )
    cluster_p = sub.add_parser(
        "cluster",
        help="run the sharded-runtime live-migration scenario (Fig 10/11)",
        parents=[shared_options(
            seed=0,
            seed_help="seed for row data (default: 0)",
            out=None,
        )],
    )
    cluster_p.add_argument(
        "--shards", type=int, default=4,
        help="replica groups in the fleet (default: 4)",
    )
    cluster_p.add_argument(
        "--chunks", type=int, default=8,
        help="chunks to ingest before rebalancing (default: 8; the "
             "benchmark profile uses 16)",
    )
    cluster_p.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="fan the two independent scheduler fleets across N "
             "worker processes; byte-identical output (default: 1)",
    )
    events_p = sub.add_parser(
        "events",
        help="run an observed scenario and print/dump the flight-"
             "recorder event log (or --load a previous dump)",
        parents=[shared_options(
            seed=None,
            seed_help="scenario seed (default: the scenario's pinned seed)",
            out=None,
            out_help="also write the JSONL dump here",
            out_metavar="PATH",
        )],
    )
    events_p.add_argument(
        "scenario", nargs="?",
        choices=("sysbench", "chaos", "cluster", "raft"),
        help="which observed scenario to run (omit with --load)",
    )
    events_p.add_argument(
        "--load", default=None, metavar="PATH",
        help="replay/filter a previously-written dump instead of running",
    )
    events_p.add_argument(
        "--full", action="store_true",
        help="full-size workload (default: quick smoke profile)",
    )
    events_p.add_argument(
        "--capacity", type=int, default=65536,
        help="ring capacity in events (default: 65536)",
    )
    events_p.add_argument(
        "--sample", default=None, metavar="SPEC",
        help="per-channel sampling, e.g. 'io=8,gc=4,codec=1' "
             "keeps 1 in N",
    )
    events_p.add_argument(
        "--channel", default=None,
        help="only print events from this channel (io, gc, commit, "
             "migration, fault, codec, scrub, db, election, net)",
    )
    events_p.add_argument(
        "--kind", default=None,
        help="only print events of this kind",
    )
    events_p.add_argument(
        "--since-us", type=float, default=None,
        help="only print events at/after this simulated time",
    )
    events_p.add_argument(
        "--until-us", type=float, default=None,
        help="only print events before this simulated time",
    )
    events_p.add_argument(
        "--limit", type=int, default=None,
        help="print only the last N matching events",
    )
    compaction_p = sub.add_parser(
        "compaction",
        help="measure write/space/read amplification per consolidation "
             "policy and check the B-tree-vs-LSM WA crossover",
        parents=[shared_options(
            seed=7,
            seed_help="workload seed (default: 7)",
            out=None,
            out_help="artifact directory (default: benchmarks/results)",
            quick_help="smaller corpus (the CI compaction-smoke profile)",
        )],
    )
    compaction_p.add_argument(
        "--policy", action="append", default=None,
        choices=("single-level", "leveled", "tiered"),
        help="run only this policy (repeatable; default: all three, "
             "which also enables the crossover check)",
    )
    serve_p = sub.add_parser(
        "serve",
        help="host a PolarStore deployment on a TCP socket "
             "(repro.net wire protocol); runs until interrupted",
        parents=[shared_options(
            seed=0,
            seed_help="storage seed of the hosted volume (default: 0)",
        )],
    )
    serve_p.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve_p.add_argument(
        "--port", type=int, default=7411,
        help="TCP port; 0 picks an ephemeral one (default: 7411)",
    )
    serve_p.add_argument(
        "--window", type=int, default=64,
        help="admission window: simulated in-flight ops beyond this "
             "are rejected, not queued (default: 64)",
    )
    serve_p.add_argument(
        "--shards", type=int, default=0,
        help="host a sharded cluster runtime instead of a single "
             "volume (default: 0 = single volume)",
    )
    serve_p.add_argument(
        "--no-engine", action="store_true",
        help="serve the analytic synchronous path (no event kernel, "
             "no pipelining, no admission control)",
    )
    load_p = sub.add_parser(
        "load",
        help="drive a seeded open-loop arrival process through the "
             "socket serving layer and report latency/rejection SLOs",
        parents=[shared_options(
            seed=0,
            seed_help="arrival-process and workload seed (default: 0)",
            out=None,
            out_help="write the JSON artifact here (its 'sim' half is "
                     "byte-identical across runs of the same spec)",
            out_metavar="PATH",
            quick_help="cap the run at 300 requests (CI smoke profile)",
        )],
    )
    load_p.add_argument(
        "--addr", default=None, metavar="HOST:PORT",
        help="server to drive (default: spin up a loopback server "
             "in-process for the run)",
    )
    load_p.add_argument(
        "--arrival", choices=("poisson", "bursty", "diurnal"),
        default="poisson",
        help="arrival process shape (default: poisson)",
    )
    load_p.add_argument(
        "--rate", type=float, default=20_000.0,
        help="mean offered load in requests per simulated second "
             "(default: 20000)",
    )
    load_p.add_argument(
        "--requests", type=int, default=1200,
        help="total requests in the schedule (default: 1200)",
    )
    load_p.add_argument(
        "--keys", type=int, default=512,
        help="preloaded keyspace size (default: 512)",
    )
    load_p.add_argument(
        "--window", type=int, default=64,
        help="loopback server admission window (default: 64; ignored "
             "with --addr)",
    )
    load_p.add_argument(
        "--timeout-s", type=float, default=60.0,
        help="per-request wall-clock timeout (default: 60)",
    )
    args = parser.parse_args(argv)
    handlers = {
        "info": cmd_info,
        "demo": cmd_demo,
        "experiments": cmd_experiments,
        "metrics": cmd_metrics,
        "chaos": cmd_chaos,
        "raft": cmd_raft,
        "bench": cmd_bench,
        "cluster": cmd_cluster,
        "events": cmd_events,
        "compaction": cmd_compaction,
        "serve": cmd_serve,
        "load": cmd_load,
    }
    if args.command is None:
        parser.print_help()
        return 2
    return handlers[args.command](args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # stdout was piped into head/less and closed early; not an error.
        sys.exit(0)
