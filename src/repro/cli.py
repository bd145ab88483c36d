"""Command-line interface: ``python -m repro <command>``.

Commands
--------
factor     factor a random matrix and print the §V-A numerical checks
simulate   simulate an HQR configuration on the modelled cluster
tables     print the paper's Tables I-IV
levels     print the Figure 5 tile-level views
compare    HQR vs SCALAPACK / [BBD+10] / [SLHD10] at one matrix size
explore    rank the HQR configuration space with the analytic model
gantt      simulate and print a per-node utilization timeline
faults     fault-injection sweep + recovery benchmark
verify     cross-engine differential verifier + schedule-legality oracle
export     write an elimination list as JSON
replay     validate + summarize an elimination-list JSON file
metrics    instrumented run: per-kernel/level/link metrics (JSON/Prometheus)
profile    self-profile the harness (span table + cProfile)
obs        observability reports (HTML) and request traces
serve      persistent multi-tenant planning daemon
tune       seeded simulated-annealing autotuner over the HQR design space
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from repro import __version__


@contextlib.contextmanager
def _scoped_env(**overrides):
    """Set environment variables for the body and restore them on exit.

    ``None`` values request no override and are skipped.  Restoration
    runs on the normal path *and* when the body raises, and it
    distinguishes "was unset" (the variable is deleted) from "was set"
    (the previous value is put back) — the invariant every ``--scale``
    CLI override relies on, stated exactly once instead of hand-rolled
    per command.
    """
    applied = {
        k: os.environ.get(k) for k, v in overrides.items() if v is not None
    }
    for k, v in overrides.items():
        if v is not None:
            os.environ[k] = v
    try:
        yield
    finally:
        for k, prev in applied.items():
            if prev is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = prev


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=int, default=3, help="virtual grid rows")
    p.add_argument("--q", type=int, default=1, help="virtual grid columns")
    p.add_argument("--a", type=int, default=2, help="TS domain size")
    p.add_argument("--low", default="greedy", help="low-level tree")
    p.add_argument("--high", default="fibonacci", help="high-level tree")
    p.add_argument("--no-domino", action="store_true", help="disable coupling level")


def _config(args):
    from repro.hqr.config import HQRConfig

    return HQRConfig(
        p=args.p, q=args.q, a=args.a,
        low_tree=args.low, high_tree=args.high, domino=not args.no_domino,
    )


def cmd_factor(args) -> int:
    import numpy as np

    from repro.core.api import qr

    rng = np.random.default_rng(args.seed)
    A = rng.standard_normal((args.M, args.N))
    res = qr(A, b=args.b, config=_config(args), threads=args.threads)
    print(f"factored {args.M} x {args.N} (b={args.b}) with {_config(args)}")
    print(f"tasks:          {len(res.graph)}")
    print(f"orthogonality:  {res.orthogonality_error():.2e}")
    print(f"reconstruction: {res.reconstruction_error(A):.2e}")
    return 0


def cmd_simulate(args) -> int:
    from repro.bench.runner import BenchSetup, run_config
    from repro.runtime.machine import Machine

    setup = BenchSetup(
        b=args.b,
        grid_p=args.p,
        grid_q=args.q,
        machine=Machine(nodes=args.nodes, cores_per_node=args.cores),
    )
    cfg = _config(args).with_(p=args.p, q=args.q)
    res = run_config(args.m, args.n, cfg, setup)
    mach = setup.machine
    print(f"simulated {args.m} x {args.n} tiles (b={args.b}) on "
          f"{args.nodes} nodes x {args.cores} cores")
    print(f"config:     {cfg}")
    print(f"makespan:   {res.makespan:.4f} s")
    print(f"gflops:     {res.gflops:.1f}  ({res.percent_of_peak(mach):.1f}% of peak)")
    print(f"messages:   {res.messages}")
    print(f"efficiency: {res.efficiency:.2%}")
    return 0


def cmd_tables(args) -> int:
    from repro.bench.tables import table1, table2, table3, table4
    from repro.trees.schedule import format_killer_table

    m = args.m
    print("Table I (flat, panel 0):")
    print(format_killer_table(table1(m), [0]))
    for name, fn in (("II (flat)", table2), ("III (binary)", table3), ("IV (greedy)", table4)):
        print(f"\nTable {name}, first 3 panels:")
        print(format_killer_table(fn(m, 3), [0, 1, 2]))
    return 0


def cmd_levels(args) -> int:
    from repro.bench.tables import figure5_views
    from repro.hqr.levels import format_level_grid

    grid, locals_ = figure5_views(args.m, args.n, args.p, args.a)
    print(f"tile levels, {args.m} x {args.n} tiles, p={args.p}, a={args.a}")
    print("global view:")
    print(format_level_grid(grid))
    for r, lv in enumerate(locals_):
        print(f"\nlocal view, cluster {r}:")
        print(format_level_grid(lv))
    return 0


def cmd_compare(args) -> int:
    from repro.baselines import ScalapackModel
    from repro.baselines.bbd10 import bbd10_elimination_list
    from repro.baselines.slhd10 import slhd10_elimination_list, slhd10_layout
    from repro.bench.figures import hqr_figure8_config, hqr_figure9_config
    from repro.bench.runner import BenchSetup, run_config, run_eliminations

    setup = BenchSetup()
    mach = setup.machine
    m, n = args.m, args.n
    tall = m >= 4 * n
    cfg = hqr_figure8_config(setup) if tall else hqr_figure9_config(setup, n)
    rows = []
    rows.append(("HQR", run_config(m, n, cfg, setup)))
    rows.append(("[BBD+10]", run_eliminations(bbd10_elimination_list(m, n), m, n, setup)))
    rows.append((
        "[SLHD10]",
        run_eliminations(
            slhd10_elimination_list(m, n, mach.nodes), m, n, setup,
            layout=slhd10_layout(mach.nodes, m),
        ),
    ))
    scal = ScalapackModel(machine=mach, pr=setup.grid_p, qc=setup.grid_q)
    print(f"{m} x {n} tiles (b={setup.b}) on the edel model "
          f"({'tall-skinny' if tall else 'square-ish'} settings)")
    for name, res in rows:
        print(f"{name:>10}: {res.gflops:8.1f} GFlop/s  "
              f"({res.percent_of_peak(mach):5.1f}% of peak, {res.messages} msgs)")
    g = scal.gflops(m * setup.b, n * setup.b)
    print(f"{'Scalapack':>10}: {g:8.1f} GFlop/s  "
          f"({100 * g / mach.peak_gflops():5.1f}% of peak, analytic model)")
    return 0


def cmd_explore(args) -> int:
    from repro.models import ConfigExplorer
    from repro.runtime.machine import Machine
    from repro.tiles.layout import BlockCyclic2D

    explorer = ConfigExplorer(
        args.m, args.n, Machine.edel(), BlockCyclic2D(15, 4), args.b,
        grid_p=15, grid_q=4,
    )
    ranked = explorer.rank()
    print(f"model ranking for {args.m} x {args.n} tiles (b={args.b}):")
    for rc in ranked[: args.top]:
        p = rc.prediction
        print(f"  {p.gflops:8.1f} GF/s ({p.binding:>13}-bound)  {rc.config}")
    if args.verify:
        print("\nsimulator verification:")
        for rc, simulated in explorer.verify(ranked, top=min(3, args.top)):
            print(f"  model {rc.gflops:8.1f} -> simulated {simulated:8.1f}  {rc.config}")
    return 0


def cmd_gantt(args) -> int:
    from repro.bench.runner import BenchSetup
    from repro.dag.compiled import compiled_from_eliminations, task_coordinates
    from repro.hqr.hierarchy import hqr_elimination_list
    from repro.obs.metrics import utilization_timeline
    from repro.runtime.core import run_core
    from repro.runtime.trace import ascii_gantt, summarize, trace_events_json

    setup = BenchSetup()
    cfg = _config(args).with_(p=setup.grid_p, q=setup.grid_q)
    elims = hqr_elimination_list(args.m, args.n, cfg)
    cg = compiled_from_eliminations(
        elims, args.m, args.n, setup.layout, setup.machine, setup.b
    )
    res = run_core(cg, setup.machine, setup.b, record_trace=True).result
    print(f"{args.m} x {args.n} tiles, {cfg}: {res.gflops:.1f} GFlop/s")
    print(ascii_gantt(res.trace, width=args.width, max_nodes=args.nodes))
    s = summarize(res.trace, cg.kind)
    per_core = s.per_core_utilization(setup.machine.cores_per_node)
    mean_util = sum(per_core.values()) / len(per_core) if per_core else 0.0
    print(f"mean per-core utilization: {mean_util:.2%}")
    print(f"imbalance (max/mean node busy): {s.imbalance():.3f}")
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            fh.write(
                trace_events_json(
                    res.trace,
                    cg.kind,
                    task_coordinates(elims, args.m, args.n),
                    comm_trace=res.comm_trace,
                    tile_bytes=setup.machine.tile_bytes(setup.b),
                    counters={
                        "busy_cores": utilization_timeline(res.trace)
                    },
                )
            )
        print(f"wrote chrome://tracing timeline to {args.trace_out}")
    return 0


def cmd_faults(args) -> int:
    from repro.resilience.bench import (
        format_resilience_report,
        report_ok,
        resilience_report,
        write_resilience_report,
    )

    with _scoped_env(REPRO_BENCH_SCALE=args.scale or None):
        report = resilience_report(
            scenarios=args.scenario or None,
            seed=args.seed,
            with_distributed_check=not args.no_engine_check,
        )
    print(format_resilience_report(report))
    if args.json:
        write_resilience_report(report, args.json)
        print(f"wrote {args.json}")
    if args.trace_out:
        from repro.bench.runner import BenchSetup
        from repro.dag.compiled import (
            compiled_from_eliminations,
            task_coordinates,
        )
        from repro.hqr.hierarchy import hqr_elimination_list
        from repro.resilience import FaultSchedule, run_with_faults
        from repro.resilience.bench import report_config
        from repro.runtime.trace import trace_events_json

        setup = BenchSetup()
        scenario = (args.scenario or ["crash"])[0]
        m, n = report["m"], report["n"]
        elims = hqr_elimination_list(m, n, report_config(setup))
        schedule = FaultSchedule.scenario(
            scenario,
            seed=args.seed,
            nodes=setup.machine.nodes,
            horizon=report["baseline_makespan"],
        )
        res = run_with_faults(
            elims, m, n, setup.layout, setup.machine, setup.b, schedule,
            baseline_makespan=report["baseline_makespan"], record_trace=True,
        )
        # the labels read the graph's kind codes and the tasks' tiles
        kind = compiled_from_eliminations(
            elims, m, n, setup.layout, setup.machine, setup.b
        ).kind
        with open(args.trace_out, "w") as fh:
            fh.write(
                trace_events_json(
                    res.trace, kind, task_coordinates(elims, m, n),
                    fault_events=res.fault_events,
                )
            )
        print(f"wrote faulty-run timeline to {args.trace_out}")
    if not report_ok(report):
        print("FAULT RECOVERY FAILED: see report above", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    import json

    from repro.verify.runner import (
        format_report,
        replay_report,
        verify,
        write_report,
    )

    if args.replay:
        with open(args.replay) as fh:
            report = json.load(fh)
        still = replay_report(report)
        if still:
            print(f"{len(still)} failure(s) still reproduce:", file=sys.stderr)
            for f in still:
                print(f"- [{f.kind}] {f.case.describe()}", file=sys.stderr)
            return 1
        print(f"all {len(report.get('failures', []))} reported failures are fixed")
        return 0

    report = verify(
        seed=args.seed,
        budget=args.budget,
        shrink=not args.no_shrink,
        max_failures=args.max_failures,
    )
    print(format_report(report))
    # stdout repeats byte for byte for one seed and budget; time is stderr
    print(f"verify took {report['elapsed_seconds']}s", file=sys.stderr)
    if args.json:
        write_report(report, args.json)
        print(f"wrote {args.json}")
    if not report["ok"]:
        print("VERIFICATION FAILED: see report above", file=sys.stderr)
        return 1
    return 0


def cmd_export(args) -> int:
    from repro.hqr.hierarchy import hqr_elimination_list
    from repro.io import eliminations_to_json

    cfg = _config(args)
    elims = hqr_elimination_list(args.m, args.n, cfg)
    text = eliminations_to_json(elims, args.m, args.n, config=cfg)
    if args.out == "-":
        print(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {len(elims)} eliminations to {args.out}")
    return 0


def cmd_replay(args) -> int:
    from repro.hqr.validate import check_elimination_list
    from repro.io import eliminations_from_json
    from repro.trees.schedule import coarse_schedule

    with open(args.file) as fh:
        elims, m, n, cfg = eliminations_from_json(fh.read())
    check_elimination_list(elims, m, n)
    steps = coarse_schedule(elims)
    ts = sum(1 for e in elims if e.ts)
    print(f"{args.file}: valid elimination list for {m} x {n} tiles")
    print(f"config:       {cfg if cfg else '(not embedded)'}")
    print(f"eliminations: {len(elims)}  ({ts} TS, {len(elims) - ts} TT)")
    print(f"coarse steps: {max(steps.values(), default=0)}")
    return 0


def cmd_serve(args) -> int:
    from repro.serve.scheduler import parse_tenants
    from repro.serve.server import DEFAULT_TENANTS, PlanningDaemon

    tenants = parse_tenants(args.tenants) if args.tenants else DEFAULT_TENANTS
    daemon = PlanningDaemon(
        tenants=tenants,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_inflight_cost=args.max_inflight_cost,
        access_log=not args.no_access_log,
    )
    daemon.start()
    daemon.install_signal_handlers()
    names = ", ".join(t.name for t in tenants)
    print(f"repro serve on http://{args.host}:{daemon.port}  "
          f"(tenants: {names}; {args.workers} workers)")
    print("endpoints: POST /plan   GET /healthz /metrics /stats "
          "/trace/<job_id> /debug/flight")
    try:
        daemon.serve_until(args.duration)
    finally:
        drain = daemon.shutdown()
        print(f"drained={drain['drained']}")
    return 0


def cmd_auto(args) -> int:
    from repro.hqr.auto import auto_config, auto_config_tuned

    if args.tuned:
        cfg = auto_config_tuned(args.m, args.n, grid_p=args.grid_p, grid_q=args.grid_q)
        how = "rules + model refinement"
    else:
        cfg = auto_config(args.m, args.n, grid_p=args.grid_p, grid_q=args.grid_q)
        how = "paper-derived rules"
    print(f"{args.m} x {args.n} tiles on a {args.grid_p} x {args.grid_q} grid "
          f"({how}):")
    print(f"  {cfg}")
    return 0


def _instrumented_run(args):
    """Simulate one config with its trace recorded, and a request trace
    for its ``simulate`` span; shared by the ``metrics`` and ``obs report``
    commands."""
    import time

    from repro.bench.runner import BenchSetup
    from repro.dag.compiled import compiled_from_eliminations, task_coordinates
    from repro.hqr.hierarchy import hqr_elimination_list
    from repro.models.bounds import graph_bounds
    from repro.obs.metrics import derive_run_metrics
    from repro.obs.tracing import RequestTrace, attach, mint_trace_id
    from repro.runtime.core import run_core

    setup = BenchSetup()
    mach, b = setup.machine, setup.b
    cfg = _config(args).with_(p=setup.grid_p, q=setup.grid_q)
    elims = hqr_elimination_list(args.m, args.n, cfg)
    cg = compiled_from_eliminations(elims, args.m, args.n, setup.layout, mach, b)
    trace = RequestTrace(mint_trace_id(), "metrics", time.monotonic())
    with attach(trace):
        res = run_core(cg, mach, b, record_trace=True).result
    cp = graph_bounds([cg], mach, b)[0].plain_critical_path
    reg = derive_run_metrics(
        res, cg, runs=trace.root.children,
        coords=task_coordinates(elims, args.m, args.n),
        critical_path=cp, config=cfg,
    )
    return setup, cfg, res, reg


def cmd_metrics(args) -> int:
    setup, cfg, res, reg = _instrumented_run(args)
    print(
        f"instrumented run: {args.m} x {args.n} tiles (b={setup.b}), {cfg}"
    )
    print(
        f"  makespan {res.makespan:.4f}s  gflops {res.gflops:.1f}  "
        f"{len(res.trace)} task spans, {len(res.comm_trace)} messages"
    )
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(reg.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote metrics JSON to {args.json}")
    if args.prom:
        with open(args.prom, "w") as fh:
            fh.write(reg.to_prometheus())
        print(f"wrote Prometheus exposition to {args.prom}")
    if not args.json and not args.prom:
        print(reg.to_prometheus(), end="")
    return 0


def cmd_profile(args) -> int:
    import json

    from repro.obs.profile import format_profile, profile_run

    report = profile_run(
        m=args.m,
        n=args.n,
        sweep_points=args.points,
        with_cprofile=not args.no_cprofile,
        top=args.top,
    )
    print(format_profile(report))
    if args.json:
        report.pop("cprofile_text", None)  # redundant with cprofile_top
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote profile JSON to {args.json}")
    return 0


def cmd_obs_report(args) -> int:
    from repro.obs.metrics import utilization_timeline
    from repro.obs.report import build_html, write_html

    setup, cfg, res, reg = _instrumented_run(args)
    timeline = utilization_timeline(res.trace)
    mach = setup.machine
    summary = {
        "tiles": f"{args.m} x {args.n}",
        "config": str(cfg),
        "makespan (s)": f"{res.makespan:.4f}",
        "GFlop/s": f"{res.gflops:.1f}",
        "messages": res.messages,
        "task spans": len(res.trace),
        "total cores": mach.nodes * mach.cores_per_node,
    }
    html_text = build_html(summary, reg.to_json(), timeline)
    write_html(args.out, html_text)
    print(f"wrote observability report to {args.out}")
    return 0


def cmd_obs_trace(args) -> int:
    import json

    from repro.obs.tracing import (
        chrome_span_events,
        format_trace,
        format_trace_diff,
        load_traces,
    )

    traces = load_traces(args.file)
    if args.job is not None:
        traces = [t for t in traces if t.get("job_id") == args.job]
        if not traces:
            print(
                f"no trace with job id {args.job} in {args.file}",
                file=sys.stderr,
            )
            return 1
    if args.diff:
        print(format_trace_diff(traces, load_traces(args.diff)))
        return 0
    if args.chrome:
        doc = {
            "traceEvents": chrome_span_events(traces),
            "displayTimeUnit": "ms",
        }
        with open(args.chrome, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.chrome} ({len(traces)} trace(s))")
        return 0
    if args.json:
        print(json.dumps(traces, indent=2, sort_keys=True))
        return 0
    for i, tr in enumerate(traces):
        if i:
            print()
        print(format_trace(tr))
    return 0


def _add_obs_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, default=64, help="tile rows")
    p.add_argument("--n", type=int, default=8, help="tile columns")
    _add_config_args(p)


def _tune_report(args, annealer, result, machine) -> None:
    """Human-readable ``repro tune`` summary (best-k + acceptance curve)."""
    from repro.hqr.config import HQRConfig

    print(
        f"repro tune: {args.m} x {args.n} tiles (b={args.b}) on "
        f"{machine.nodes} x {machine.cores_per_node} cores, "
        f"seed={annealer.seed} budget={annealer.budget}"
    )
    rate = result.acceptance_rate
    print(
        f"  proposals {result.proposals}, accepted {result.accepted} "
        f"({rate:.0%}), energies needed {result.evaluations} "
        f"(memo hits {result.memo_hits}, bounded {result.bounded})"
    )
    if result.accept_history:
        curve = " ".join(
            f"{h['accepted'] / h['proposed']:.2f}"
            for h in result.accept_history
        )
        t_first = result.accept_history[0]["temperature"]
        print(
            f"  acceptance by batch: {curve}  "
            f"(T {t_first:.4f} -> {result.final_temperature:.4f})"
        )
    print("  best configurations:")
    for rank, entry in enumerate(result.best, start=1):
        c = entry["case"]
        cfg = HQRConfig(
            p=c["p"], q=c["q"], a=c["a"], low_tree=c["low_tree"],
            high_tree=c["high_tree"], domino=c["domino"],
        )
        print(
            f"    {rank}. makespan {entry['energy']:.6f}s  {cfg} "
            f"layout={c['layout_kind']}"
        )
    print(
        f"  samples: {result.samples_path}  "
        f"checkpoint: {result.checkpoint_path}"
    )


def cmd_tune(args) -> int:
    import json
    import signal

    if args.bench:
        import tempfile

        from repro.tune.bench import (
            DEFAULT_BUDGET,
            DEFAULT_SEED,
            format_report,
            tune_bench,
            write_report,
        )

        with _scoped_env(REPRO_BENCH_SCALE=args.scale or None):
            out_dir = args.out or tempfile.mkdtemp(prefix="repro-tune-bench-")
            report = tune_bench(
                out_dir,
                seed=args.seed if args.seed is not None else DEFAULT_SEED,
                budget=(
                    args.budget if args.budget is not None else DEFAULT_BUDGET
                ),
            )
        print(format_report(report))
        if args.json:
            write_report(report, args.json)
            print(f"wrote {args.json}")
        return 0 if report["ok"] else 1

    from repro.dag.cache import default_cache
    from repro.obs.metrics import MetricsRegistry, cache_metrics_into
    from repro.runtime.machine import Machine
    from repro.tune import (
        Annealer,
        CoolingSchedule,
        EnergyEvaluator,
        initial_case,
    )

    machine = Machine(nodes=args.nodes, cores_per_node=args.cores)
    evaluator = EnergyEvaluator(m=args.m, n=args.n, b=args.b, machine=machine)
    seed = args.seed if args.seed is not None else 0
    budget = args.budget if args.budget is not None else 200
    start = initial_case(
        args.m, args.n, args.b, machine,
        grid_p=args.grid_p, grid_q=args.grid_q, seed=seed,
    )
    axes = tuple(args.axes.split(",")) if args.axes else None
    out_dir = args.out or "tune_out"
    try:
        annealer = Annealer(
            evaluator, start, out_dir,
            seed=seed, budget=budget, batch_size=args.batch_size,
            schedule=CoolingSchedule(
                t0=args.t0, alpha=args.alpha, floor=args.floor
            ),
            top_k=args.top, axes=axes, max_a=args.max_a,
            max_evaluations=args.max_evals,
            resume=args.resume,
        )
    except (FileExistsError, FileNotFoundError, ValueError) as exc:
        print(f"repro tune: {exc}", file=sys.stderr)
        return 2

    cache_snapshot = default_cache().stats()

    def on_sigint(signum, frame):
        annealer.request_stop()
        # a second interrupt falls through to KeyboardInterrupt
        signal.signal(signal.SIGINT, signal.default_int_handler)
        print(
            "\ninterrupt: finishing batch, writing checkpoint "
            "(^C again to abort hard)...",
            file=sys.stderr,
        )

    previous = signal.signal(signal.SIGINT, on_sigint)
    try:
        result = annealer.run()
    finally:
        signal.signal(signal.SIGINT, previous)

    _tune_report(args, annealer, result, machine)

    reg = MetricsRegistry()
    annealer.metrics_into(reg, result)
    cache_metrics_into(reg, default_cache().stats_since(cache_snapshot))
    if args.json:
        payload = {"params": annealer._params(), "result": result.to_dict()}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote tune report to {args.json}")
    if args.prom:
        with open(args.prom, "w") as fh:
            fh.write(reg.to_prometheus())
        print(f"wrote Prometheus exposition to {args.prom}")

    if result.interrupted:
        print(
            f"interrupted: resume with "
            f"`repro tune --out {out_dir} --resume` (same knobs)",
            file=sys.stderr,
        )
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}",
        help="show the version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor a random matrix numerically")
    p.add_argument("--M", type=int, default=240)
    p.add_argument("--N", type=int, default=120)
    p.add_argument("--b", type=int, default=40)
    p.add_argument("--threads", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    _add_config_args(p)
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("simulate", help="simulate on the cluster model")
    p.add_argument("--m", type=int, default=128, help="tile rows")
    p.add_argument("--n", type=int, default=16, help="tile columns")
    p.add_argument("--b", type=int, default=280)
    p.add_argument("--nodes", type=int, default=60)
    p.add_argument("--cores", type=int, default=8)
    _add_config_args(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("tables", help="print Tables I-IV")
    p.add_argument("--m", type=int, default=12)
    p.set_defaults(fn=cmd_tables)

    p = sub.add_parser("levels", help="print Figure 5 level views")
    p.add_argument("--m", type=int, default=24)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--a", type=int, default=2)
    p.set_defaults(fn=cmd_levels)

    p = sub.add_parser("compare", help="compare the four algorithms")
    p.add_argument("--m", type=int, default=128)
    p.add_argument("--n", type=int, default=16)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("explore", help="rank HQR configs with the model")
    p.add_argument("--m", type=int, default=128)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--b", type=int, default=280)
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--verify", action="store_true", help="simulate top picks")
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("gantt", help="per-node utilization timeline")
    p.add_argument("--m", type=int, default=64)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--width", type=int, default=72)
    p.add_argument("--nodes", type=int, default=12, help="rows to display")
    p.add_argument(
        "--trace-out",
        help="also write a chrome://tracing trace_event JSON file here",
    )
    _add_config_args(p)
    p.set_defaults(fn=cmd_gantt)

    p = sub.add_parser(
        "faults", help="fault-injection sweep and recovery benchmark"
    )
    p.add_argument(
        "--scenario",
        action="append",
        help="scenario to sweep (crash, slowdown, message-drop, storm); "
        "repeatable, default: all",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--scale",
        choices=("small", "default", "full"),
        help="override REPRO_BENCH_SCALE for this run",
    )
    p.add_argument("--json", help="write the machine-readable report here")
    p.add_argument(
        "--no-engine-check",
        action="store_true",
        help="skip the real distributed-engine worker-kill check",
    )
    p.add_argument(
        "--trace-out",
        help="write a trace_event JSON of the first scenario's faulty run",
    )
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser(
        "verify",
        help="differential verifier: all engines bitwise-equal + oracle",
    )
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument(
        "--budget", type=int, default=200, help="number of sampled cases"
    )
    p.add_argument(
        "--json", help="write the machine-readable report here"
    )
    p.add_argument(
        "--no-shrink",
        action="store_true",
        help="report raw failing cases without minimization",
    )
    p.add_argument(
        "--max-failures",
        type=int,
        default=10,
        help="stop sampling after this many failures",
    )
    p.add_argument(
        "--replay",
        help="re-run the minimized failures of a previous JSON report "
        "instead of sampling",
    )
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("export", help="write an elimination list as JSON")
    p.add_argument("--m", type=int, default=16)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--out", default="-")
    _add_config_args(p)
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("replay", help="validate an elimination-list file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser(
        "metrics",
        help="instrumented run: per-kernel/level/link metrics "
        "(JSON + Prometheus)",
    )
    _add_obs_run_args(p)
    p.add_argument("--json", help="write the metrics registry as JSON here")
    p.add_argument(
        "--prom", help="write Prometheus text exposition format here"
    )
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser(
        "profile", help="self-profile the harness (stages + cProfile)"
    )
    p.add_argument("--m", type=int, default=64)
    p.add_argument("--n", type=int, default=8)
    p.add_argument(
        "--points", type=int, default=4, help="sweep points to profile over"
    )
    p.add_argument(
        "--no-cprofile", action="store_true", help="span table only"
    )
    p.add_argument(
        "--top", type=int, default=15, help="cProfile rows to keep"
    )
    p.add_argument("--json", help="write the profile report here")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("obs", help="observability reports and traces")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    p = obs_sub.add_parser(
        "report", help="HTML summary of one instrumented run"
    )
    _add_obs_run_args(p)
    p.add_argument(
        "--out", default="obs_report.html", help="output HTML path"
    )
    p.set_defaults(fn=cmd_obs_report)

    p = obs_sub.add_parser(
        "trace",
        help="pretty-print / diff request traces dumped by the daemon",
    )
    p.add_argument(
        "file",
        help="trace dump: /trace/<id> body, /debug/flight snapshot, "
        "JSON list, or JSONL",
    )
    p.add_argument(
        "--diff", metavar="OTHER",
        help="second dump: show per-stage latency deltas against FILE",
    )
    p.add_argument(
        "--job", type=int, help="only the trace with this job id"
    )
    p.add_argument(
        "--chrome", metavar="OUT",
        help="write the spans as Chrome trace_event JSON instead",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the selected traces as a JSON list",
    )
    p.set_defaults(fn=cmd_obs_trace)

    p = sub.add_parser(
        "serve",
        help="persistent multi-tenant planning daemon",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=8539, help="TCP port (0 = ephemeral)"
    )
    p.add_argument(
        "--workers", type=int, default=2, help="planning worker threads"
    )
    p.add_argument(
        "--tenants",
        help="tenant spec 'name:weight:queue_limit,...' "
        "(default: interactive:4:8,batch:1:16,explore:2:8)",
    )
    p.add_argument(
        "--max-inflight-cost",
        type=float,
        help="global in-flight cost budget for admission control",
    )
    p.add_argument(
        "--duration",
        type=float,
        help="serve for this many seconds then drain (default: forever)",
    )
    p.add_argument(
        "--no-access-log",
        action="store_true",
        help="suppress the structured JSON access log",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "tune",
        help="seeded simulated-annealing autotuner (see docs/tuning.md)",
    )
    p.add_argument("--m", type=int, default=32, help="tile rows")
    p.add_argument("--n", type=int, default=4, help="tile columns")
    p.add_argument("--b", type=int, default=280, help="tile size")
    p.add_argument("--nodes", type=int, default=60, help="cluster nodes")
    p.add_argument("--cores", type=int, default=8, help="cores per node")
    p.add_argument(
        "--grid-p", type=int, help="starting grid rows (default: auto)"
    )
    p.add_argument(
        "--grid-q", type=int, help="starting grid columns (default: auto)"
    )
    p.add_argument(
        "--seed", type=int, help="chain seed (default: 0)"
    )
    p.add_argument(
        "--budget",
        type=int,
        help="proposal budget (default: 200; bench: 400)",
    )
    p.add_argument(
        "--max-evals",
        type=int,
        help="also stop after this many energies were needed "
        "(memoized revisits and bounded rejections are free)",
    )
    p.add_argument(
        "--batch-size",
        type=int,
        default=16,
        help="proposals per temperature step (one batched dispatch each)",
    )
    p.add_argument(
        "--t0", type=float, default=0.05, help="initial temperature"
    )
    p.add_argument(
        "--alpha",
        type=float,
        default=0.85,
        help="geometric cooling factor per batch",
    )
    p.add_argument(
        "--floor", type=float, default=1e-4, help="temperature floor"
    )
    p.add_argument(
        "--top", type=int, default=5, help="best-k configs to report"
    )
    p.add_argument(
        "--axes",
        help="comma-separated move axes to search "
        "(default: all of low_tree,high_tree,domino,a,grid,layout)",
    )
    p.add_argument(
        "--max-a", type=int, help="cap the TS-domain size random walk"
    )
    p.add_argument(
        "--out",
        help="run directory (samples.jsonl + checkpoint.json; "
        "default: tune_out, bench mode: a temp directory)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="continue from the checkpoint in --out (same knobs required)",
    )
    p.add_argument(
        "--bench",
        action="store_true",
        help="tune-vs-exhaustive comparison benchmark",
    )
    p.add_argument(
        "--scale",
        choices=("small", "default", "full"),
        help="override REPRO_BENCH_SCALE for this run (bench mode)",
    )
    p.add_argument(
        "--json", help="write the machine-readable report here"
    )
    p.add_argument(
        "--prom", help="write Prometheus text exposition format here"
    )
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("auto", help="pick a configuration automatically")
    p.add_argument("--m", type=int, default=128)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--grid-p", type=int, default=15)
    p.add_argument("--grid-q", type=int, default=4)
    p.add_argument("--tuned", action="store_true", help="refine with the model")
    p.set_defaults(fn=cmd_auto)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
