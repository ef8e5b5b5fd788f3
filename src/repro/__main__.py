"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``metrics``
    Run a short OLTP workload and dump the volume-wide metric snapshot
    (JSON or Prometheus text), plus one traced write's per-layer
    latency breakdown on stderr.
``chaos``
    Run a seeded fault-injection schedule (bit flips, torn/dropped/
    misdirected writes, slow I/O, device failure, replica crash +
    rejoin, quorum loss) against a replicated volume and assert the
    durability invariants.  Exit 0 iff every invariant held.
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
    Run one row of the scenario table (sysbench / chaos / cluster) with
    the flight recorder active; print its verdict and fingerprint, and
    print (or dump as JSONL) the structured event log: page I/O, GC
    relocations, group-commit flushes, migrations, injected faults,
    codec selections, scrub repairs, elections, admissions — all
    stamped with simulated time.
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
    Host an engine-bound PolarStore deployment (volume or sharded
    cluster) on a TCP socket speaking the ``repro.net`` wire protocol;
    ``PolarStore.connect(addr)`` and ``python -m repro load`` are the
    clients, one connection each.  Runs until interrupted.
``load``
    Drive a seeded open-loop Poisson arrival process through the socket
    serving layer and report latency percentiles, admission rejections,
    and SLO verdicts.  With no ``--addr`` it spins up a loopback
    server in-process; the ``sim`` half of the ``--out`` JSON artifact
    is byte-identical across runs of the same spec, and against a
    separate ``serve`` process (the CI ``net-smoke`` gate).

``--workers N`` (``bench``, ``cluster``; default 1) means one thing
everywhere: independent programs fanned across N forked worker
processes with byte-identical output.

A count, size, rate, duration or timeout that is not a positive number,
or a seed, port or floor below zero, is refused by the parser: exit 2
with a usage line, before anything runs.  The package inventory is
DESIGN.md, the experiment list EXPERIMENTS.md, and the end-to-end
demonstration ``examples/quickstart.py``.
"""

from __future__ import annotations

import argparse
import math
import sys


def positive(kind=int, zero_ok=False):
    """An argparse ``type``: a finite ``kind`` number above zero (at
    least zero with ``zero_ok``)."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and (value >= 0 if zero_ok else value > 0)):
            raise argparse.ArgumentTypeError(
                f"expected a {'non-negative' if zero_ok else 'positive'} "
                f"{kind.__name__}, got {text!r}"
            )
        return value

    return parse


def cmd_metrics(args) -> int:
    from repro.api import PolarStore
    from repro.common.units import MiB
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


def cmd_bench(args) -> int:
    from repro.bench.figures import FIGURES

    runner = FIGURES[args.fig]
    runner(out_dir=args.out, quick=args.quick, workers=args.workers)
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
        workers=args.workers,
    )
    aware = dict(zip(result.columns, result.rows[-1]))
    print(f"compression-aware: {aware['tasks']} tasks moved "
          f"{aware['moved_pages']} pages "
          f"({aware['moved_logical_mib']} MiB logical -> "
          f"{aware['moved_physical_mib']} MiB physical) "
          f"in {aware['makespan_ms']} ms simulated")
    return 0


def cmd_events(args) -> int:
    from repro.obs.events import FlightRecorder, parse_sample_spec, recording
    from repro.obs.scenarios import SCENARIOS, run_scenario

    if args.load is not None:
        recorder = FlightRecorder.load(args.load)
    else:
        if args.scenario is None:
            print("events: a scenario (or --load PATH) is required",
                  file=sys.stderr)
            return 2
        sample = parse_sample_spec(args.sample) if args.sample else None
        seed = args.seed
        if seed is None:
            seed = SCENARIOS[args.scenario].seed
        with recording(capacity=args.capacity, sample=sample) as recorder:
            run = run_scenario(args.scenario, seed)
        print(f"# scenario {args.scenario} seed {seed}: "
              f"{recorder.total_emitted} events recorded, "
              f"verdict {'FAIL' if run.violations else 'PASS'}",
              file=sys.stderr)
        for violation in run.violations:
            print(f"#   {violation}", file=sys.stderr)
        print(f"# fingerprint {run.fingerprint} pages {run.pages} "
              f"sim_us {run.sim_us!r}", file=sys.stderr)
        if args.out is not None:
            recorder.dump_jsonl(args.out)
            print(f"# wrote {args.out}", file=sys.stderr)
    selected = recorder.events(channel=args.channel, limit=args.limit)
    for event in selected:
        print(event.render())
    summary = recorder.summary()
    print("# channels: " + " ".join(
        f"{ch}={row['emitted']}" for ch, row in summary.items()
    ), file=sys.stderr)
    if args.load is None and run.violations:
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
    from repro.api.config import ReproConfig
    from repro.net.server import PolarStoreServer

    doc = {
        "engine": {"enabled": True},
        "net": {"window": args.window, "host": args.host, "port": args.port},
        "store": {"seed": args.seed},
    }
    if args.shards:
        doc["cluster"] = {"shards": args.shards}
    server = PolarStoreServer(ReproConfig.from_dict(doc))
    host, port = server.start()
    print(
        f"serving PolarStore on {host}:{port} "
        f"(window {args.window}, "
        f"shards {args.shards or 'single volume'}) — ctrl-c to stop",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass  # serve_forever has closed the listener and connections
    return 0


def cmd_load(args) -> int:
    from repro.api import PolarStore, TransportError
    from repro.api.config import ReproConfig
    from repro.net.loadgen import ArrivalSpec, run_load
    from repro.net.server import serve_in_thread

    spec = ArrivalSpec(
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
    try:
        client = PolarStore.connect(addr, timeout_s=args.timeout_s)
        try:
            report = run_load(client.transport, spec)
        finally:
            client.close()
    except TransportError as exc:
        print(f"load: {exc}", file=sys.stderr)
        return 1
    finally:
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
            "--seed", type=positive(zero_ok=True), default=seed,
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
    from repro.obs.scenarios import SCENARIOS

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="PolarStore reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command")
    metrics_p = sub.add_parser(
        "metrics",
        help="run a short workload and dump the metric snapshot",
    )
    metrics_p.add_argument(
        "--format", choices=("json", "prometheus"), default="json",
        help="snapshot format on stdout (default: json)",
    )
    metrics_p.add_argument(
        "--rows", type=positive(), default=400,
        help="sysbench table rows (default: 400)",
    )
    metrics_p.add_argument(
        "--duration", type=positive(float), default=0.2,
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
        "--min-faults", type=positive(zero_ok=True), default=100,
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
        "--workers", type=positive(), default=1, metavar="N",
        help="fan independent figure cells across N worker "
             "processes; byte-identical output (default: 1)",
    )
    cluster_p = sub.add_parser(
        "cluster",
        help="run the sharded-runtime live-migration scenario (Fig 10/11)",
        parents=[shared_options(out=None)],
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
        "--workers", type=positive(), default=1, metavar="N",
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
        choices=tuple(SCENARIOS),
        help="which observed scenario to run (omit with --load)",
    )
    events_p.add_argument(
        "--load", default=None, metavar="PATH",
        help="replay/filter a previously-written dump instead of running",
    )
    events_p.add_argument(
        "--capacity", type=positive(), default=65536,
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
        "--limit", type=positive(zero_ok=True), default=None,
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
        help="host an engine-bound PolarStore deployment on a TCP "
             "socket (repro.net wire protocol); runs until interrupted",
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
        "--port", type=positive(zero_ok=True), default=7411,
        help="TCP port; 0 picks an ephemeral one (default: 7411)",
    )
    serve_p.add_argument(
        "--window", type=positive(), default=64,
        help="admission window: simulated in-flight ops beyond this "
             "are rejected, not queued (default: 64)",
    )
    serve_p.add_argument(
        "--shards", type=positive(zero_ok=True), default=0,
        help="host a sharded cluster runtime instead of a single "
             "volume (default: 0 = single volume)",
    )
    load_p = sub.add_parser(
        "load",
        help="drive a seeded open-loop Poisson arrival process through "
             "the socket serving layer and report latency/rejection SLOs",
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
        "--rate", type=positive(float), default=20_000.0,
        help="mean offered load in requests per simulated second "
             "(default: 20000)",
    )
    load_p.add_argument(
        "--requests", type=positive(), default=1200,
        help="total requests in the schedule (default: 1200)",
    )
    load_p.add_argument(
        "--keys", type=positive(), default=512,
        help="preloaded keyspace size (default: 512)",
    )
    load_p.add_argument(
        "--window", type=positive(), default=64,
        help="loopback server admission window (default: 64; ignored "
             "with --addr)",
    )
    load_p.add_argument(
        "--timeout-s", type=positive(float), default=60.0,
        help="per-request wall-clock timeout (default: 60)",
    )
    args = parser.parse_args(argv)
    handlers = {
        "metrics": cmd_metrics,
        "chaos": cmd_chaos,
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
