"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro features                 # Table I
    python -m repro validate                 # Fig. 2
    python -m repro fig3 --configs C1,C6     # Fig. 3 (subset)
    python -m repro fig4                     # Fig. 4
    python -m repro fig5                     # Fig. 5
    python -m repro fig6                     # Fig. 6
    python -m repro faults --seed 1234       # fault-injection campaign
    python -m repro trace characterize examples/sample_msr.csv
    python -m repro trace replay examples/sample_msr.csv --precondition steady
    python -m repro trace convert trace.blkparse trace.txt --to native
    python -m repro ftl schemes
    python -m repro ftl sweep --schemes pagemap,dftl --workers 4
    python -m repro run --config ssd.cfg --workload SW --commands 1000
    python -m repro profile --workload SR --trace-out trace.json
    python -m repro explore --configs C1,C2,C6,C8
    python -m repro campaign run camp/ --experiment fig3 --workers 4
    python -m repro campaign report camp/ --where "latency_us.p99<=2000"
    python -m repro report --out report.md   # everything, as markdown

Every subcommand prints the same rows/series the paper's tables and
figures report.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .core import (DesignSpaceExplorer, ResourceCostModel, SweepPoint,
                   SweepRunner, TABLE2_LABELS, faults_campaign, fig3_sweep,
                   fig4_sweep,
                   fig5_wearout_sweep, kernel_speed_report, print_progress,
                   render_breakdown_table, render_json, render_report,
                   render_series_table, render_speed_table, render_table,
                   render_validation_table, run_validation, speed_sweep,
                   table2_configs, table3_configs,
                   verify_ssdexplorer_column, write_report)
from .host.workload import IOZONE_SUITE
from .kernel import load_file
from .ssd import SsdArchitecture, fidelity_from_spec, from_config


def _parse_configs(text: Optional[str]) -> List[str]:
    if not text:
        return list(TABLE2_LABELS)
    names = [name.strip() for name in text.split(",") if name.strip()]
    unknown = [name for name in names if name not in TABLE2_LABELS]
    if unknown:
        raise SystemExit(f"unknown configurations: {unknown}; "
                         f"choose from {sorted(TABLE2_LABELS)}")
    return names


def add_sweep_options(parser: argparse.ArgumentParser) -> None:
    """The sweep-engine flags shared by every fan-out subcommand."""
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes (0 = all cores, 1 = serial)")
    parser.add_argument("--cache-dir", type=str, default="",
                        help="result cache directory (also honors "
                             "REPRO_SWEEP_CACHE_DIR); a re-run serves "
                             "cached points, so a killed sweep resumes")
    parser.add_argument("--no-cache", action="store_true",
                        help="use no cache, even one named by "
                             "REPRO_SWEEP_CACHE_DIR: re-simulate every "
                             "point")
    parser.add_argument("--timeout", type=float, default=0.0,
                        help="per-point time budget in seconds "
                             "(0 = unlimited); a point over budget is "
                             "recorded as failed, not crashed")
    parser.add_argument("--campaign", type=str, default="",
                        help="run through a durable campaign directory "
                             "(leased work-queue + SQLite result store); "
                             "resumable, shareable between workers — see "
                             "'repro campaign'")


def add_fidelity_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fidelity", type=str, default="",
        help='abstraction level: "cycle" (default), "fast", or a '
             'per-subsystem spec like "fast,dram=cycle"; fast paths '
             'use calibrated parameters (see "repro calibrate")')


def fidelity_from_cli(args: argparse.Namespace, arch=None):
    """Resolve ``--fidelity`` into a calibrated config (None = cycle).

    Any fast level pulls in the calibrated fast-path parameters
    (fitting them on first use; cached afterwards).
    """
    spec = getattr(args, "fidelity", "")
    if not spec:
        return None
    config = fidelity_from_spec(spec)
    if config.any_fast:
        from dataclasses import replace

        from .core import calibrate
        config = replace(config,
                         **calibrate(arch or SsdArchitecture()).to_dict())
    return config


def runner_from_args(args: argparse.Namespace, quiet: bool = False):
    """Build the sweep/campaign runner an argparse namespace describes.

    With ``--campaign DIR`` the points run through a durable
    :class:`~repro.core.campaign.CampaignRunner`; otherwise a plain
    :class:`SweepRunner`.  Either one resumes a killed sweep: points
    already in its cache or campaign are served, not re-simulated.
    """
    cache_dir = (getattr(args, "cache_dir", "")
                 or os.environ.get("REPRO_SWEEP_CACHE_DIR", "")) or None
    no_cache = getattr(args, "no_cache", False)
    workers = getattr(args, "workers", 1) or None   # 0 -> all cores
    timeout = getattr(args, "timeout", 0.0) or None  # 0 -> unlimited
    campaign_dir = getattr(args, "campaign", "")
    if campaign_dir:
        if no_cache:
            raise SystemExit("--campaign and --no-cache are contradictory: "
                             "a campaign IS its durable result cache")
        if cache_dir is not None:
            raise SystemExit("--campaign keeps results inside the campaign "
                             "directory; drop --cache-dir")
        from .core import CampaignRunner
        return CampaignRunner(campaign_dir, workers=workers,
                              progress=None if quiet else print_progress,
                              timeout_s=timeout)
    return SweepRunner(workers=workers,
                       cache_dir=None if no_cache else cache_dir,
                       progress=None if quiet else print_progress,
                       timeout_s=timeout)


def _print_summary(runner: SweepRunner) -> int:
    """Print the sweep summary; nonzero when any point failed."""
    if runner.last_summary is not None:
        print(runner.last_summary.format())
    result = runner.last_result
    if result is not None and result.summary.failed:
        print(result.format_failures(), file=sys.stderr)
        return 1
    return 0


def cmd_features(args: argparse.Namespace) -> int:
    print(render_table())
    print()
    results = verify_ssdexplorer_column()
    failing = [name for name, ok in results.items() if not ok]
    if failing:
        print(f"MISSING capabilities: {failing}")
        return 1
    print(f"All {len(results)} claimed SSDExplorer capabilities verified.")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    points = run_validation(n_commands=args.commands)
    print(render_validation_table(points))
    return 0


def cmd_fig3(args: argparse.Namespace) -> int:
    runner = runner_from_args(args)
    rows = fig3_sweep(n_commands=args.commands,
                      configs=_parse_configs(args.configs), runner=runner,
                      fidelity=fidelity_from_cli(args))
    print(render_breakdown_table(rows))
    return _print_summary(runner)


def cmd_fig4(args: argparse.Namespace) -> int:
    runner = runner_from_args(args)
    rows = fig4_sweep(n_commands=args.commands,
                      configs=_parse_configs(args.configs), runner=runner,
                      fidelity=fidelity_from_cli(args))
    print(render_breakdown_table(rows))
    return _print_summary(runner)


def cmd_fig5(args: argparse.Namespace) -> int:
    runner = runner_from_args(args)
    fractions = [i / args.steps for i in range(args.steps + 1)]
    series = fig5_wearout_sweep(fractions=fractions,
                                n_commands=args.commands, runner=runner,
                                fidelity=fidelity_from_cli(args))
    print(render_series_table(series))
    return _print_summary(runner)


def cmd_faults(args: argparse.Namespace) -> int:
    runner = runner_from_args(args, quiet=args.json)
    rows = faults_campaign(n_commands=args.commands, seed=args.seed,
                           runner=runner)
    failures = (runner.last_result.failures()
                if runner.last_result is not None else [])
    if args.json:
        document = {
            "seed": args.seed,
            "commands": args.commands,
            "rows": rows,
            "failed_points": [
                {"name": outcome.name,
                 "error_type": outcome.failure.error_type,
                 "message": outcome.failure.message}
                for outcome in failures],
        }
        print(render_json(document))
        return 1 if failures else 0
    header = (f"{'point':<20} {'MB/s':>7} {'retries':>8} {'ret/read':>9} "
              f"{'uncorr':>7} {'retired':>8} {'remaps':>7} {'failed':>7} "
              f"{'UBER':>10}")
    print(header)
    print("-" * len(header))
    for name, row in rows.items():
        if row.get("status") == "failed":
            print(f"{name:<20} FAILED {row['error_type']}: "
                  f"{row['message']}")
            continue
        print(f"{name:<20} {row['sustained_mbps']:>7.1f} "
              f"{row['read_retries']:>8d} {row['retries_per_read']:>9.3f} "
              f"{row['uncorrectable_reads']:>7d} "
              f"{row['retired_blocks']:>8d} {row['remapped_programs']:>7d} "
              f"{row['failed_commands']:>7d} {row['uber']:>10.2e}")
    return _print_summary(runner)


def cmd_fig6(args: argparse.Namespace) -> int:
    samples = speed_sweep(table3_configs(), n_commands=args.commands)
    print(render_speed_table(samples))
    return 0


def cmd_bench_kernel(args: argparse.Namespace) -> int:
    report = kernel_speed_report(n_commands=args.commands)
    if args.out:
        write_report(args.out, report)
    print(render_report(report))
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.config:
        arch = from_config(load_file(args.config))
    else:
        arch = SsdArchitecture()
    fidelity = fidelity_from_cli(args, arch)
    if fidelity is not None:
        arch = arch.with_fidelity(fidelity)
    factory = IOZONE_SUITE.get(args.workload.upper())
    if factory is None:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(IOZONE_SUITE)}")
    workload = factory(4096 * args.commands, block_bytes=args.block)
    runner = runner_from_args(args, quiet=True)
    label = f"{arch.label}/{args.workload.upper()}"
    outcome = runner.run([SweepPoint(
        name=label, arch=arch, workload=workload, evaluator="measure",
        params={"warm_start": args.warm, "label": label})]).outcomes[0]
    if outcome.failed:
        print(f"run FAILED: {outcome.failure.error_type}: "
              f"{outcome.failure.message}", file=sys.stderr)
        if outcome.failure.traceback:
            print(outcome.failure.traceback, file=sys.stderr)
        return 1
    payload = outcome.payload
    if args.json:
        payload = dict(payload)
        payload["architecture"] = arch.label
        payload["host"] = arch.host.name
        payload["cached"] = outcome.cached
        print(render_json(payload))
        return 0
    latency = payload["latency_us"]
    print(f"architecture : {arch.label}")
    print(f"host         : {arch.host.name}")
    print(f"workload     : {args.workload.upper()} x {args.commands} "
          f"({args.block} B blocks)")
    print(f"throughput   : {payload['sustained_mbps']:.1f} MB/s sustained "
          f"({payload['throughput_mbps']:.1f} full-span)")
    print(f"IOPS         : {payload['iops']:.0f}")
    print(f"latency      : mean {latency['mean']:.1f} us, "
          f"p50 {latency['p50']:.1f}, p95 {latency['p95']:.1f}, "
          f"p99 {latency['p99']:.1f}")
    for name, value in payload["utilizations"].items():
        print(f"utilization  : {name:<10} {value:6.1%}")
    if outcome.cached:
        print("(result served from the sweep cache)")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Run one workload with span observability on and print where the
    time went (per-stage breakdown, component activity, bottleneck
    report, per-channel utilization sparklines)."""
    from .obs import (disable_observability, enable_observability,
                      render_profile, write_chrome_trace)
    from .ssd.metrics import collect_utilization_timelines
    from .ssd.scenarios import measure_with_device
    if args.config:
        arch = from_config(load_file(args.config))
    else:
        arch = SsdArchitecture()
    factory = IOZONE_SUITE.get(args.workload.upper())
    if factory is None:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(IOZONE_SUITE)}")
    workload = factory(4096 * args.commands, block_bytes=args.block)
    label = f"{arch.label}/{args.workload.upper()}"
    recorder = enable_observability()
    try:
        result, device = measure_with_device(
            arch, workload, max_commands=args.commands, label=label,
            warm_start=args.warm)
        timelines = collect_utilization_timelines(device,
                                                  buckets=args.buckets)
    finally:
        disable_observability()
    if args.json:
        print(render_json({
            "label": label,
            "commands": recorder.commands_completed,
            "sustained_mbps": result.sustained_mbps,
            "stage_breakdown": result.stage_breakdown,
            "component_breakdown": recorder.component_breakdown(),
            "busiest_tracks": recorder.busiest_tracks(args.top),
            "timelines": timelines,
        }))
    else:
        print(f"architecture : {arch.label}")
        print(f"workload     : {args.workload.upper()} x {args.commands} "
              f"({args.block} B blocks)")
        print(f"throughput   : {result.sustained_mbps:.1f} MB/s sustained")
        print()
        print(render_profile(recorder, timelines, top_k=args.top))
    if args.trace_out:
        write_chrome_trace(recorder, args.trace_out)
        print(f"chrome trace written to {args.trace_out} "
              f"(load in ui.perfetto.dev or chrome://tracing)")
    return 0


def _trace_arch(args: argparse.Namespace):
    if getattr(args, "config", ""):
        return from_config(load_file(args.config))
    return SsdArchitecture()


def cmd_trace_characterize(args: argparse.Namespace) -> int:
    """Stream the trace once and print its characterization report."""
    from .host.traces import (characterize, format_profile, iter_trace,
                              limit_records)
    records = limit_records(iter_trace(args.trace, fmt=args.format),
                            args.limit or None)
    profile = characterize(records)
    if args.json:
        print(render_json({"trace": args.trace,
                           "profile": profile.to_dict()}))
    else:
        print(format_profile(profile, source=args.trace))
    return 0


def cmd_trace_replay(args: argparse.Namespace) -> int:
    """Replay a trace through one architecture: characterization table +
    RunResult summary (optionally with span observability on)."""
    from .core.tracereplay import TraceWorkload, replay_trace
    from .host.traces import format_profile
    workload = TraceWorkload.from_file(
        args.trace, fmt=args.format,
        honor_issue_times=not args.closed_loop,
        time_scale=args.time_scale, wrap=not args.no_wrap,
        precondition=args.precondition,
        max_commands=args.commands or None)
    arch = _trace_arch(args)
    fidelity = fidelity_from_cli(args, arch)
    if fidelity is not None:
        arch = arch.with_fidelity(fidelity)
    recorder = None
    if args.trace_out:
        from .obs import enable_observability
        recorder = enable_observability()
    try:
        outcome = replay_trace(workload, arch=arch)
    finally:
        if recorder is not None:
            from .obs import disable_observability
            disable_observability()
    result, profile = outcome.result, outcome.profile
    if args.json:
        print(render_json({
            "trace": args.trace,
            "sha256": workload.sha256,
            "architecture": arch.label,
            "fidelity": args.fidelity or "cycle",
            "profile": profile.to_dict(),
            "preconditioning_commands": outcome.preconditioning_commands,
            "result": result.to_dict(),
        }))
    else:
        print(format_profile(profile, source=args.trace))
        print()
        print(f"architecture : {arch.label}")
        if args.fidelity:
            print(f"fidelity     : {args.fidelity} (calibrated fast "
                  f"paths)" if arch.fidelity.any_fast
                  else f"fidelity     : {args.fidelity}")
        print(f"replay mode  : "
              f"{'closed-loop' if args.closed_loop else 'open-loop'}"
              + (f", time x{args.time_scale:g}"
                 if args.time_scale != 1.0 else ""))
        if outcome.preconditioning_commands:
            print(f"precondition : {args.precondition} "
                  f"({outcome.preconditioning_commands} warm-up commands)")
        print(f"throughput   : {result.sustained_mbps:.1f} MB/s sustained "
              f"({result.throughput_mbps:.1f} full-span)")
        print(f"IOPS         : {result.iops:.0f}")
        print(f"latency      : mean {result.mean_latency_us:.1f} us, "
              f"p50 {result.p50_latency_us:.1f}, "
              f"p95 {result.p95_latency_us:.1f}, "
              f"p99 {result.p99_latency_us:.1f}")
        for name, value in result.utilizations.items():
            print(f"utilization  : {name:<10} {value:6.1%}")
        if result.failed_commands:
            print(f"failed       : {result.failed_commands} commands")
    if args.trace_out:
        from .obs import write_chrome_trace
        write_chrome_trace(recorder, args.trace_out)
        print(f"chrome trace written to {args.trace_out} "
              f"(load in ui.perfetto.dev or chrome://tracing)")
    return 0


def cmd_trace_convert(args: argparse.Namespace) -> int:
    """Convert a trace between formats (auto-detected input)."""
    from .host.traces import iter_trace, limit_records
    from .host.traces.formats import write_trace_file
    records = limit_records(iter_trace(args.src, fmt=args.format),
                            args.commands or None)
    lines = write_trace_file(args.dst, records, args.to)
    print(f"wrote {lines} {args.to} lines to {args.dst}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    """Fit (or show) the fast-fidelity parameters; optionally check the
    fast fig3/fig5 error against the golden files."""
    from .core import calibrate, fidelity_error_report
    from .core.calibrate import DEFAULT_CACHE_DIR
    if args.config:
        arch = from_config(load_file(args.config))
    else:
        arch = SsdArchitecture()
    cache_dir = args.cache_dir or DEFAULT_CACHE_DIR
    result = calibrate(arch, cache_dir=cache_dir,
                       use_cache=not args.no_cache)
    report = None
    if args.check:
        report = fidelity_error_report(result.to_fidelity(),
                                       bound=args.bound)
    if args.json:
        document = {"calibration": result.to_dict(),
                    "cached": result.cached}
        if report is not None:
            document["report"] = report
        print(render_json(document))
    else:
        print(f"dram_overhead_ps : {result.dram_overhead_ps}")
        print(f"dram_ps_per_byte : {result.dram_ps_per_byte:.3f}")
        print(f"cpu_cycles       : {result.cpu_cycles}")
        print(f"nand_overhead_ps : {result.nand_overhead_ps}")
        print("(served from the calibration cache)" if result.cached
              else "(fitted from fresh cycle-accurate probes)")
        if report is not None:
            print(f"fast vs golden   : max error "
                  f"{report['max_rel_error']:.2%} "
                  f"({report['max_metric']}), "
                  f"bound {report['bound']:.0%}")
    if report is not None and not report["within_bound"]:
        print("ERROR: fast fidelity exceeds the declared error bound",
              file=sys.stderr)
        return 1
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .core import generate_report
    configs = _parse_configs(args.configs) if args.configs else None
    text = generate_report(n_commands=args.commands, configs=configs,
                           include_fig4=not args.skip_fig4,
                           include_reliability=not args.skip_reliability,
                           include_ftl=not args.skip_ftl,
                           reliability_replicas=args.reliability_replicas)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    from .host import sequential_write
    names = _parse_configs(args.configs)
    candidates = {name: arch for name, arch in table2_configs().items()
                  if name in names}
    explorer = DesignSpaceExplorer(cost_model=ResourceCostModel(),
                                   max_commands=args.commands)
    runner = runner_from_args(args)
    result = explorer.explore(candidates,
                              sequential_write(4096 * args.commands),
                              runner=runner)
    print(render_breakdown_table({p.name: p.row for p in result.points}))
    print()
    print(f"target: {result.target_mbps:.1f} MB/s")
    for point in result.points:
        flag = "meets target" if point.meets_target else "below target"
        print(f"  {point.name:<4} cost {point.cost:7.0f}  "
              f"{point.measured_mbps:8.1f} MB/s  ({flag})")
    optimal = result.optimal
    if optimal is not None:
        print(f"optimal design point: {optimal.name} ({optimal.arch.label})")
    else:
        fallback = result.cheapest_within()
        print("no point meets the target; cheapest near-best: "
              f"{fallback.name}")
    return _print_summary(runner)


def cmd_trace_sweep(args: argparse.Namespace) -> int:
    """Replay one trace across Table II design points (sweep or
    campaign), printing per-point sustained MB/s."""
    from .core.tracereplay import TraceWorkload, trace_sweep_points
    workload = TraceWorkload.from_file(
        args.trace, fmt=args.format,
        honor_issue_times=not args.closed_loop,
        precondition=args.precondition,
        max_commands=args.commands or None)
    runner = runner_from_args(args)
    points = trace_sweep_points(workload, _parse_configs(args.configs))
    result = runner.run(points)
    if args.json:
        print(render_json({"trace": args.trace, "sha256": workload.sha256,
                           "rows": result.payloads()}))
    else:
        header = f"{'point':<6} {'MB/s':>8} {'IOPS':>9} {'p99 us':>9}"
        print(header)
        print("-" * len(header))
        for outcome in result.outcomes:
            if outcome.failed:
                continue
            payload = outcome.payload
            print(f"{outcome.name:<6} {payload['sustained_mbps']:>8.1f} "
                  f"{payload['iops']:>9.0f} "
                  f"{payload['latency_us']['p99']:>9.1f}")
    return _print_summary(runner)


# ----------------------------------------------------------------------
# repro ftl …


def _parse_schemes(text: str) -> Optional[List[str]]:
    from .ftl import scheme_names
    if not text:
        return None
    names = [name.strip() for name in text.split(",") if name.strip()]
    unknown = [name for name in names if name not in scheme_names()]
    if unknown:
        raise SystemExit(f"unknown FTL schemes: {unknown}; "
                         f"choose from {scheme_names()}")
    return names


def cmd_ftl_schemes(args: argparse.Namespace) -> int:
    """List the FTL scheme registry with mapping footprints.

    Footprints are computed for the sweep's reference geometry (the
    4-die "FTL microscope") so the table shows concrete bytes, not
    formulas."""
    from .core.ftlsweep import (DEFAULT_BLOCKS_PER_PLANE,
                                DEFAULT_UTILIZATION, ftl_base_architecture)
    from .ftl import FTL_SCHEMES, scheme_footprint
    arch = ftl_base_architecture()
    geometry = arch.geometry
    physical_pages = (arch.total_dies * geometry.planes_per_die
                      * DEFAULT_BLOCKS_PER_PLANE * geometry.pages_per_block)
    logical_pages = int(physical_pages * DEFAULT_UTILIZATION)
    rows = []
    for name, scheme in FTL_SCHEMES.items():
        footprint = scheme_footprint(
            name, logical_pages, page_bytes=geometry.page_bytes,
            ftl_dram_bytes=args.dram_bytes or None,
            group_pages=(geometry.pages_per_block
                         if name == "blockmap" else 0))
        rows.append({"name": name,
                     "description": scheme.description,
                     "dram_sensitive": scheme.dram_sensitive,
                     "footprint": footprint.to_dict()})
    if args.json:
        print(render_json({"logical_pages": logical_pages,
                           "page_bytes": geometry.page_bytes,
                           "schemes": rows}))
        return 0
    print(f"reference geometry: {logical_pages} logical pages x "
          f"{geometry.page_bytes} B "
          f"({arch.total_dies} dies, {DEFAULT_BLOCKS_PER_PLANE} "
          f"blocks/plane, {DEFAULT_UTILIZATION:.0%} utilization)")
    print()
    header = (f"{'scheme':<10} {'table B':>9} {'DRAM B':>9} "
              f"{'flash B':>9} {'cached':>7}  description")
    print(header)
    print("-" * len(header))
    for row in rows:
        fp = row["footprint"]
        print(f"{row['name']:<10} {fp['table_bytes']:>9d} "
              f"{fp['dram_bytes']:>9d} {fp['flash_bytes']:>9d} "
              f"{fp['cached_fraction']:>7.2f}  {row['description']}")
    return 0


def cmd_ftl_sweep(args: argparse.Namespace) -> int:
    """Replay one trace across the FTL scheme zoo; print the
    WAF / latency / mapping-footprint trade-off table and check the
    page-map reference against the analytic WAF model."""
    from .core.ftlsweep import (analytic_waf_check, ftl_sweep,
                                ftl_sweep_table)
    from .core.tracereplay import TraceWorkload
    workload = TraceWorkload.from_file(
        args.trace, fmt=args.format,
        honor_issue_times=not args.closed_loop,
        max_commands=args.commands or None)
    runner = runner_from_args(args, quiet=args.json)
    schemes = _parse_schemes(args.schemes)
    budgets = ([int(part) for part in args.dram_budgets.split(",") if part]
               if args.dram_budgets else None)
    try:
        payloads = ftl_sweep(workload, schemes=schemes,
                             dram_budgets=budgets, runner=runner,
                             logical_utilization=args.utilization,
                             blocks_per_plane=args.blocks_per_plane)
    except Exception as error:
        raise SystemExit(str(error))
    rows = ftl_sweep_table(payloads)
    analytic = None if args.no_analytic else analytic_waf_check()
    if args.json:
        # No wall-clock summary line: JSON output must stay byte-identical
        # across runs and worker counts (same convention as cmd_faults).
        print(render_json({"trace": args.trace, "sha256": workload.sha256,
                           "rows": rows,
                           **({} if analytic is None
                              else {"analytic": analytic})}))
        return 1 if analytic is not None \
            and not analytic["within_bound"] else 0
    else:
        header = (f"{'point':<14} {'scheme':<9} {'WAF':>8} {'MB/s':>7} "
                  f"{'mean us':>9} {'p99 us':>9} {'table B':>9} "
                  f"{'DRAM B':>9} {'cached':>7}")
        print(header)
        print("-" * len(header))
        for row in rows:
            print(f"{row['point']:<14} {row['scheme']:<9} "
                  f"{row['waf']:>8.3f} {row['throughput_mbps']:>7.2f} "
                  f"{row['mean_latency_us']:>9.1f} "
                  f"{row['p99_latency_us']:>9.1f} "
                  f"{row['table_bytes']:>9d} {row['dram_bytes']:>9d} "
                  f"{row['cached_fraction']:>7.2f}")
        if analytic is not None:
            print()
            print(f"analytic check : measured pagemap WAF "
                  f"{analytic['measured_waf']:.3f} vs greedy sim "
                  f"{analytic['greedy_sim_waf']:.3f} "
                  f"({analytic['deviation_vs_greedy']:.1%} off), "
                  f"LRU closed form {analytic['lru_analytic_waf']:.3f}")
            print("analytic check : "
                  + ("PASS (within bound)" if analytic["within_bound"]
                     else "FAIL (outside bound)"))
    status = _print_summary(runner)
    if analytic is not None and not analytic["within_bound"]:
        return 1
    return status


# ----------------------------------------------------------------------
# repro tenants …


def _tenant_specs_from_args(args: argparse.Namespace):
    """Build the tenant set a ``repro tenants`` invocation describes.

    ``--trace`` appends a trace-replay tenant; because a mix must be
    uniformly open- or closed-loop, that implies paced arrivals for the
    synthetic tenants too (``--rate`` defaults to 10k IOPS each, with
    staggered phases).
    """
    from dataclasses import replace

    from .core.tenantsweep import default_tenant_set
    from .host.tenants import TenantSpec
    rate = args.rate
    if args.trace and not rate:
        rate = 10_000.0
    specs = default_tenant_set(args.tenants)
    streams = args.tenants + (1 if args.trace else 0)
    if args.commands or rate:
        interval = int(1e12 / rate) if rate else 0
        specs = [replace(spec,
                         n_commands=args.commands or spec.n_commands,
                         rate_iops=rate,
                         phase_ps=(index * interval) // streams
                         if rate else 0)
                 for index, spec in enumerate(specs)]
    if args.trace:
        specs.append(TenantSpec.from_trace(
            "trace", args.trace, n_commands=args.commands or 48,
            span_bytes=1 << 22, queue_depth=8, weight=args.tenants + 1))
    return specs


def _print_tenant_rows(rows: List[dict]) -> None:
    header = (f"{'tenant':<8} {'workload':<8} {'wgt':>3} {'cmds':>5} "
              f"{'share d/a':>11} {'p50 us':>9} {'p99 us':>9} "
              f"{'p99.9':>9} {'p99.99':>9}")
    print(header)
    print("-" * len(header))
    for row in rows:
        latency = row["latency_us"]
        print(f"{row['name']:<8} {row['workload']:<8} {row['weight']:>3} "
              f"{row['commands']:>5} "
              f"{row['demanded_share']:>5.2f}/{row['achieved_share']:<5.2f} "
              f"{latency['p50']:>9.1f} {latency['p99']:>9.1f} "
              f"{latency['p999']:>9.1f} {latency['p9999']:>9.1f}")


def _print_matrix(title: str, names: List[str],
                  cells: List[List[float]]) -> None:
    print(title)
    print(f"{'':<8}" + "".join(f"{name:>9}" for name in names))
    for name, row in zip(names, cells):
        print(f"{name:<8}" + "".join(f"{value:>9.3f}" for value in row))


def cmd_tenants_run(args: argparse.Namespace) -> int:
    """Arbitrate one tenant mix and print per-tenant QoS metrics."""
    from .core.tenantsweep import run_tenant_mix, tenants_base_architecture
    specs = _tenant_specs_from_args(args)
    try:
        payload, __ = run_tenant_mix(
            tenants_base_architecture(), specs, policy=args.policy,
            isolate_channels=args.isolate,
            label=f"t{len(specs)}-{args.policy}")
    except (ValueError, OSError) as error:
        raise SystemExit(str(error))
    payload["aggregate"]["wall_seconds"] = 0.0
    if args.json:
        print(render_json(payload))
        return 0
    aggregate = payload["aggregate"]
    print(f"{payload['label']}: {payload['n_tenants']} tenant(s), "
          f"{args.policy} arbitration"
          + (", isolated channels" if args.isolate else ""))
    print(f"aggregate: {aggregate['throughput_mbps']:.1f} MB/s, "
          f"{aggregate['commands']} commands")
    print()
    _print_tenant_rows(payload["tenants"])
    return 0


def cmd_tenants_report(args: argparse.Namespace) -> int:
    """Measure and print the N×N noisy-neighbor interference matrix."""
    from .core.tenantsweep import (interference_matrix,
                                   tenants_base_architecture)
    specs = _tenant_specs_from_args(args)
    try:
        matrix, events = interference_matrix(
            tenants_base_architecture(), specs, policy=args.policy,
            isolate_channels=args.isolate)
    except (ValueError, OSError) as error:
        raise SystemExit(str(error))
    if args.json:
        print(render_json({"policy": args.policy,
                           "isolate_channels": bool(args.isolate),
                           **matrix}))
        return 0
    names = matrix["tenants"]
    print(f"noisy-neighbor matrix: {len(names)} tenants, "
          f"{args.policy} arbitration"
          + (", isolated channels" if args.isolate else "")
          + f" ({events} kernel events)")
    print()
    _print_matrix("mean-latency inflation (row = victim, col = neighbor):",
                  names, matrix["inflation"])
    print()
    _print_matrix("GC-attributed us/command gained in the pairing:",
                  names, matrix["gc_attributed_us"])
    return 0


def cmd_tenants_sweep(args: argparse.Namespace) -> int:
    """Run the tenant-count × arbitration-policy grid."""
    from .core.tenantsweep import tenant_sweep, tenant_sweep_table
    counts = [int(part) for part in args.counts.split(",") if part]
    policies = [part.strip() for part in args.policies.split(",") if part]
    runner = runner_from_args(args, quiet=args.json)
    try:
        payloads = tenant_sweep(counts=counts, policies=policies,
                                runner=runner,
                                interference=not args.no_interference)
    except (RuntimeError, ValueError) as error:
        raise SystemExit(str(error))
    rows = tenant_sweep_table(payloads)
    if args.json:
        # No wall-clock summary line: JSON output must stay byte-identical
        # across runs and worker counts (same convention as cmd_faults).
        print(render_json({"rows": rows}))
        return 0
    header = (f"{'point':<10} {'tenant':<8} {'workload':<8} "
              f"{'share d/a':>11} {'p50 us':>9} {'p99 us':>9} "
              f"{'p99.9':>9} {'p99.99':>9} {'worst nbr':>10}")
    print(header)
    print("-" * len(header))
    for row in rows:
        worst = row["worst_neighbor_inflation"]
        print(f"{row['point']:<10} {row['tenant']:<8} "
              f"{row['workload']:<8} "
              f"{row['demanded_share']:>5.2f}/"
              f"{row['achieved_share']:<5.2f} "
              f"{row['p50_latency_us']:>9.1f} "
              f"{row['p99_latency_us']:>9.1f} "
              f"{row['p999_latency_us']:>9.1f} "
              f"{row['p9999_latency_us']:>9.1f} "
              + (f"{worst:>10.3f}" if worst is not None else f"{'-':>10}"))
    return _print_summary(runner)


# ----------------------------------------------------------------------
# repro campaign …


def _campaign_constraints(texts: List[str]):
    from .core import parse_constraint
    try:
        return [parse_constraint(text) for text in texts]
    except ValueError as error:
        raise SystemExit(str(error))


def cmd_campaign_run(args: argparse.Namespace) -> int:
    """Run (or resume) a canonical experiment as a campaign."""
    from .core import CampaignRunner, adaptive_fig3
    runner = CampaignRunner(args.dir, workers=args.workers or None,
                            name=args.name or args.experiment,
                            progress=None if args.quiet
                            else print_progress,
                            timeout_s=args.timeout or None)
    if args.experiment == "adaptive":
        outcome = adaptive_fig3(n_commands=args.commands,
                                configs=_parse_configs(args.configs),
                                budget_fraction=args.budget, runner=runner)
        print(outcome.format())
        return _print_summary(runner)
    if args.experiment in ("fig3", "fig4"):
        sweep = fig3_sweep if args.experiment == "fig3" else fig4_sweep
        rows = sweep(n_commands=args.commands,
                     configs=_parse_configs(args.configs), runner=runner,
                     fidelity=fidelity_from_cli(args))
        print(render_breakdown_table(rows))
        return _print_summary(runner)
    if args.experiment == "fig5":
        series = fig5_wearout_sweep(n_commands=args.commands, runner=runner,
                                    fidelity=fidelity_from_cli(args))
        print(render_series_table(series))
        return _print_summary(runner)
    raise SystemExit(f"unknown experiment {args.experiment!r}")


def cmd_campaign_worker(args: argparse.Namespace) -> int:
    """Join an existing campaign as one worker process."""
    from .core import CampaignError, run_worker
    try:
        executed = run_worker(args.dir, timeout_s=args.timeout or None,
                              lease_ttl_s=args.ttl)
    except CampaignError as error:
        raise SystemExit(str(error))
    print(f"worker done: executed {executed} point(s)")
    return 0


def _open_campaign(directory: str):
    from .core import Campaign, CampaignError
    try:
        return Campaign.open(directory)
    except CampaignError as error:
        raise SystemExit(str(error))


def _campaign_id(store, override: str) -> str:
    if override:
        return override
    campaigns = store.campaigns()
    if not campaigns:
        raise SystemExit("the campaign store is empty — run some points "
                         "first")
    return campaigns[0]["campaign_id"]


def cmd_campaign_status(args: argparse.Namespace) -> int:
    campaign = _open_campaign(args.dir)
    status = campaign.status()
    if args.json:
        print(render_json(status.to_dict()))
    else:
        print(status.format())
    return 0


def cmd_campaign_query(args: argparse.Namespace) -> int:
    """Rank points by any stored metric, with constraint filters."""
    campaign = _open_campaign(args.dir)
    with campaign.store() as store:
        campaign_id = _campaign_id(store, args.campaign_id)
        if args.list_metrics:
            for metric in store.metric_names(campaign_id):
                print(metric)
            return 0
        rows = store.query(campaign_id, args.metric,
                           where=_campaign_constraints(args.where),
                           top=args.top or None, ascending=args.ascending)
    if args.json:
        print(render_json({"campaign": campaign_id, "metric": args.metric,
                           "rows": [{"name": name, "value": value}
                                    for name, value in rows]}))
    else:
        for name, value in rows:
            print(f"{name:<24} {value:12.3f}")
    return 0


def cmd_campaign_report(args: argparse.Namespace) -> int:
    """Decision support: Pareto frontier, best-under-constraint,
    failure post-mortems."""
    campaign = _open_campaign(args.dir)
    with campaign.store() as store:
        campaign_id = _campaign_id(store, args.campaign_id)
        counts = store.status_counts(campaign_id)
        frontier = store.pareto_frontier(campaign_id, args.metric)
        constraints = _campaign_constraints(args.where)
        best = store.best_under_constraint(campaign_id, args.metric,
                                           constraints)
        failures = store.failures(campaign_id)
    if args.json:
        print(render_json({
            "campaign": campaign_id, "metric": args.metric,
            "counts": counts,
            "pareto_frontier": [
                {"name": e.name, "cost": e.cost, "value": e.value}
                for e in frontier],
            "best": None if best is None else
            {"name": best.name, "cost": best.cost, "value": best.value},
            "failures": failures,
        }))
        return 1 if counts.get("failed") else 0
    print(f"campaign : {campaign_id} — {counts.get('ok', 0)} ok, "
          f"{counts.get('failed', 0)} failed")
    print(f"pareto frontier ({args.metric} vs resource cost):")
    for entry in frontier:
        print(f"  {entry.name:<24} cost {entry.cost:8.0f}  "
              f"{entry.value:10.2f}")
    if best is not None:
        suffix = (" under " + ", ".join(args.where)) if args.where else ""
        print(f"best {args.metric}{suffix}: {best.name} "
              f"({best.value:.2f} at cost {best.cost:.0f})")
    elif args.where:
        print(f"no point satisfies {args.where}")
    if failures:
        print(f"failures ({len(failures)}):")
        for row in failures:
            print(f"  {row['name']}: {row['error_type']}: "
                  f"{row['message']}")
    return 1 if counts.get("failed") else 0


# ----------------------------------------------------------------------
# repro reliability …


def _reliability_grid(args: argparse.Namespace):
    from .core import ReliabilityGrid
    fractions = tuple(float(part) for part in args.fractions.split(",")
                      if part) if args.fractions else None
    spares = tuple(int(part) for part in args.spares.split(",")
                   if part) if args.spares else None
    kinds = tuple(part for part in args.kinds.split(",")
                  if part) if args.kinds else None
    grid = ReliabilityGrid()
    return ReliabilityGrid(
        fractions=fractions or grid.fractions,
        spares=spares or grid.spares,
        kinds=kinds or grid.kinds,
        n_commands=args.commands,
        campaign_seed=args.seed)


def cmd_reliability_run(args: argparse.Namespace) -> int:
    """Monte-Carlo reliability campaign with CI-driven stopping."""
    from .core import CampaignRunner, run_reliability_campaign
    runner = CampaignRunner(args.dir, workers=args.workers or None,
                            name=args.name or "reliability",
                            progress=None if (args.quiet or args.json)
                            else print_progress,
                            timeout_s=args.timeout or None)
    outcome = run_reliability_campaign(
        grid=_reliability_grid(args), runner=runner,
        replicas=args.replicas, batch=args.batch or None,
        target_half_width=args.target_half_width or None,
        metric=args.metric)
    if args.json:
        print(render_json(outcome.to_dict()))
    else:
        print(outcome.format())
        _print_summary(runner)
    return 1 if outcome.failed_points else 0


def cmd_reliability_report(args: argparse.Namespace) -> int:
    """Re-aggregate a reliability campaign directory (no simulation)."""
    from .core import CampaignError, report_from_campaign
    try:
        outcome = report_from_campaign(args.dir, metric=args.metric)
    except CampaignError as error:
        raise SystemExit(str(error))
    if not outcome.estimates:
        raise SystemExit(f"no published rel/ points in {args.dir!r} — "
                         f"run 'repro reliability run' first")
    if args.json:
        print(render_json(outcome.to_dict()))
    else:
        print(outcome.format())
    return 1 if outcome.failed_points else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SSDExplorer reproduction — experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("features", help="Table I feature matrix") \
        .set_defaults(func=cmd_features)

    validate = sub.add_parser("validate", help="Fig. 2 validation")
    validate.add_argument("--commands", type=int, default=800)
    validate.set_defaults(func=cmd_validate)

    for name, func, help_text in (
            ("fig3", cmd_fig3, "Fig. 3 SATA sweep"),
            ("fig4", cmd_fig4, "Fig. 4 PCIe/NVMe sweep")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--commands", type=int, default=2000)
        p.add_argument("--configs", type=str, default="",
                       help="comma-separated subset of C1..C10")
        add_sweep_options(p)
        add_fidelity_option(p)
        p.set_defaults(func=func)

    fig5 = sub.add_parser("fig5", help="Fig. 5 wear-out sweep")
    fig5.add_argument("--commands", type=int, default=400)
    fig5.add_argument("--steps", type=int, default=10)
    add_sweep_options(fig5)
    add_fidelity_option(fig5)
    fig5.set_defaults(func=cmd_fig5)

    faults = sub.add_parser(
        "faults", help="seeded fault-injection campaign (reliability "
                       "metrics: retries, remaps, UBER)")
    faults.add_argument("--commands", type=int, default=300)
    faults.add_argument("--seed", type=int, default=1234,
                        help="fault-plan seed; same seed = same schedule")
    faults.add_argument("--json", action="store_true",
                        help="emit deterministic JSON (for diffing runs)")
    add_sweep_options(faults)
    faults.set_defaults(func=cmd_faults)

    fig6 = sub.add_parser("fig6", help="Fig. 6 simulation speed")
    fig6.add_argument("--commands", type=int, default=400)
    fig6.set_defaults(func=cmd_fig6)

    bench = sub.add_parser("bench-kernel",
                           help="kernel speed benchmark (events/sec, "
                                "sim-time/wall-time)")
    bench.add_argument("--commands", type=int, default=400)
    bench.add_argument("--out", type=str, default="",
                       help="also write the JSON report here")
    bench.set_defaults(func=cmd_bench_kernel)

    run = sub.add_parser("run", help="run one architecture/workload")
    run.add_argument("--config", type=str, default="",
                     help="architecture config file (flat or JSON)")
    run.add_argument("--workload", type=str, default="SW",
                     help="SW | SR | RW | RR")
    run.add_argument("--commands", type=int, default=1000)
    run.add_argument("--block", type=int, default=4096)
    run.add_argument("--warm", action="store_true",
                     help="warm-start the write cache")
    run.add_argument("--json", action="store_true",
                     help="emit the result as JSON")
    add_sweep_options(run)
    add_fidelity_option(run)
    run.set_defaults(func=cmd_run)

    profile = sub.add_parser(
        "profile", help="run one workload with span observability on; "
                        "print the latency breakdown and bottleneck "
                        "report, optionally export a Chrome trace")
    profile.add_argument("--config", type=str, default="",
                         help="architecture config file (flat or JSON)")
    profile.add_argument("--workload", type=str, default="SW",
                         help="SW | SR | RW | RR")
    profile.add_argument("--commands", type=int, default=400)
    profile.add_argument("--block", type=int, default=4096)
    profile.add_argument("--warm", action="store_true",
                         help="warm-start the write cache")
    profile.add_argument("--top", type=int, default=10,
                         help="rows per breakdown table")
    profile.add_argument("--buckets", type=int, default=60,
                         help="timeline sparkline resolution")
    profile.add_argument("--trace-out", type=str, default="",
                         help="write a Chrome trace_event JSON here "
                              "(Perfetto-loadable)")
    profile.add_argument("--json", action="store_true",
                         help="emit the breakdown as JSON")
    profile.set_defaults(func=cmd_profile)

    trace = sub.add_parser(
        "trace", help="real-trace workloads: characterize, replay or "
                      "convert a native / MSR-Cambridge CSV / blkparse "
                      "trace file")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    characterize = trace_sub.add_parser(
        "characterize", help="one streaming pass: mix, footprint, "
                             "sequentiality, histograms, implied QD")
    characterize.add_argument("trace", help="trace file (any format)")
    characterize.add_argument("--format", type=str, default="auto",
                              help="native | msr | blkparse | auto")
    characterize.add_argument("--limit", type=int, default=0,
                              help="only the first N records (0 = all)")
    characterize.add_argument("--json", action="store_true",
                              help="emit the profile as JSON")
    characterize.set_defaults(func=cmd_trace_characterize)

    replay = trace_sub.add_parser(
        "replay", help="replay the trace through a simulated drive; "
                       "prints the characterization table and the "
                       "RunResult summary")
    replay.add_argument("trace", help="trace file (any format)")
    replay.add_argument("--format", type=str, default="auto",
                        help="native | msr | blkparse | auto")
    replay.add_argument("--config", type=str, default="",
                        help="architecture config file (flat or JSON)")
    replay.add_argument("--commands", type=int, default=0,
                        help="replay only the first N records (0 = all)")
    replay.add_argument("--closed-loop", action="store_true",
                        help="ignore trace issue times; saturate the "
                             "queue (Fig. 3/4 regime)")
    replay.add_argument("--time-scale", type=float, default=1.0,
                        help="scale issue times (0.5 = replay 2x faster)")
    replay.add_argument("--no-wrap", action="store_true",
                        help="do not wrap LBAs into the simulated "
                             "drive's capacity")
    replay.add_argument("--precondition", type=str, default="none",
                        choices=["none", "fill", "steady"],
                        help="warm-up before measuring: fill the "
                             "addressed region / fill + random "
                             "overwrites (steady state)")
    replay.add_argument("--trace-out", type=str, default="",
                        help="record spans during the replay and write "
                             "a Chrome trace_event JSON here")
    replay.add_argument("--json", action="store_true",
                        help="emit profile + result as JSON")
    add_fidelity_option(replay)
    replay.set_defaults(func=cmd_trace_replay)

    tsweep = trace_sub.add_parser(
        "sweep", help="replay one trace across Table II design points "
                      "(supports --campaign for durable, resumable runs)")
    tsweep.add_argument("trace", help="trace file (any format)")
    tsweep.add_argument("--format", type=str, default="auto",
                        help="native | msr | blkparse | auto")
    tsweep.add_argument("--configs", type=str, default="",
                        help="comma-separated subset of C1..C10")
    tsweep.add_argument("--commands", type=int, default=0,
                        help="replay only the first N records (0 = all)")
    tsweep.add_argument("--closed-loop", action="store_true",
                        help="ignore trace issue times; saturate the queue")
    tsweep.add_argument("--precondition", type=str, default="none",
                        choices=["none", "fill", "steady"],
                        help="warm-up before measuring")
    tsweep.add_argument("--json", action="store_true",
                        help="emit per-point results as JSON")
    add_sweep_options(tsweep)
    tsweep.set_defaults(func=cmd_trace_sweep)

    convert = trace_sub.add_parser(
        "convert", help="re-encode a trace in another format")
    convert.add_argument("src", help="input trace (any format)")
    convert.add_argument("dst", help="output path")
    convert.add_argument("--format", type=str, default="auto",
                         help="input format override")
    convert.add_argument("--to", type=str, default="native",
                         choices=["native", "msr", "blkparse"],
                         help="output format")
    convert.add_argument("--commands", type=int, default=0,
                         help="convert only the first N records (0 = all)")
    convert.set_defaults(func=cmd_trace_convert)

    ftl = sub.add_parser(
        "ftl", help="real-FTL scheme zoo: list the mapping schemes or "
                    "sweep a trace across them under a DRAM budget")
    ftl_sub = ftl.add_subparsers(dest="ftl_command", required=True)

    fschemes = ftl_sub.add_parser(
        "schemes", help="registry table: every mapping scheme with its "
                        "mapping-table footprint on the reference "
                        "geometry")
    fschemes.add_argument("--dram-bytes", type=int, default=0,
                          help="ftl_dram_bytes budget for DRAM-sensitive "
                               "schemes (0 = scheme default)")
    fschemes.add_argument("--json", action="store_true")
    fschemes.set_defaults(func=cmd_ftl_schemes)

    fsweep = ftl_sub.add_parser(
        "sweep", help="replay one trace through every scheme (DFTL "
                      "expanded across DRAM budgets); chart WAF / "
                      "latency / mapping bytes and validate the page-map "
                      "reference against the analytic WAF model")
    fsweep.add_argument("trace", nargs="?",
                        default="examples/sample_msr.csv",
                        help="trace file (default: the bundled sample)")
    fsweep.add_argument("--format", type=str, default="auto",
                        help="native | msr | blkparse | auto")
    fsweep.add_argument("--schemes", type=str, default="",
                        help="comma-separated subset of the registry "
                             "(default: every scheme)")
    fsweep.add_argument("--dram-budgets", type=str, default="",
                        help="comma-separated ftl_dram_bytes ladder for "
                             "DRAM-sensitive schemes (default: derived "
                             "from the geometry)")
    fsweep.add_argument("--commands", type=int, default=0,
                        help="replay only the first N records (0 = all)")
    fsweep.add_argument("--closed-loop", action="store_true",
                        help="ignore trace issue times; saturate the "
                             "queue")
    fsweep.add_argument("--utilization", type=float, default=0.75,
                        help="logical utilization of the FTL's physical "
                             "space")
    fsweep.add_argument("--blocks-per-plane", type=int, default=8,
                        help="FTL blocks per plane (small = GC visible "
                             "in short traces)")
    fsweep.add_argument("--no-analytic", action="store_true",
                        help="skip the analytic WAF cross-check")
    fsweep.add_argument("--json", action="store_true",
                        help="emit rows + analytic check as JSON")
    add_sweep_options(fsweep)
    fsweep.set_defaults(func=cmd_ftl_sweep)

    tenants = sub.add_parser(
        "tenants", help="multi-tenant serving: arbitrate N initiator "
                        "streams into one device; per-tenant tail "
                        "latency, IOPS shares and noisy-neighbor "
                        "interference")
    tenants_sub = tenants.add_subparsers(dest="tenants_command",
                                         required=True)

    def add_tenant_options(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--tenants", type=int, default=3,
                            help="synthetic tenant count (varied workload "
                                 "shapes, escalating weights)")
        parser.add_argument("--policy", type=str, default="rr",
                            choices=("rr", "wrr"),
                            help="arbitration policy")
        parser.add_argument("--commands", type=int, default=0,
                            help="commands per tenant (0 = default 48)")
        parser.add_argument("--rate", type=float, default=0.0,
                            help="open-loop arrival rate per tenant in "
                                 "IOPS (0 = closed loop, saturating)")
        parser.add_argument("--isolate", action="store_true",
                            help="give each tenant a disjoint channel "
                                 "subset (namespace->channel pinning)")
        parser.add_argument("--trace", type=str, default="",
                            help="append a trace-replay tenant (implies "
                                 "paced arrivals for the synthetic "
                                 "tenants)")
        parser.add_argument("--json", action="store_true")

    trun = tenants_sub.add_parser(
        "run", help="arbitrate one tenant mix; per-tenant "
                    "p50/p99/p99.9/p99.99 and achieved vs demanded "
                    "shares")
    add_tenant_options(trun)
    trun.set_defaults(func=cmd_tenants_run)

    treport = tenants_sub.add_parser(
        "report", help="N x N noisy-neighbor matrix: pairwise "
                       "mean-latency inflation vs solo baselines, with "
                       "the GC-attributed share from command spans")
    add_tenant_options(treport)
    treport.set_defaults(func=cmd_tenants_report)

    tsweep2 = tenants_sub.add_parser(
        "sweep", help="tenant-count x arbitration-policy grid through "
                      "the sweep engine (cacheable, campaign-able)")
    tsweep2.add_argument("--counts", type=str, default="1,2,3",
                         help="comma-separated tenant counts")
    tsweep2.add_argument("--policies", type=str, default="rr,wrr",
                         help="comma-separated arbitration policies")
    tsweep2.add_argument("--no-interference", action="store_true",
                         help="skip the pairwise interference matrices "
                              "(much faster)")
    tsweep2.add_argument("--json", action="store_true",
                         help="emit per-tenant QoS rows as JSON")
    add_sweep_options(tsweep2)
    tsweep2.set_defaults(func=cmd_tenants_sweep)

    cal = sub.add_parser(
        "calibrate", help="fit the fast-fidelity parameters from short "
                          "cycle-accurate probes (content-addressed "
                          "cache; see --fidelity fast elsewhere)")
    cal.add_argument("--config", type=str, default="",
                     help="architecture config file (flat or JSON)")
    cal.add_argument("--cache-dir", type=str, default="",
                     help="calibration cache directory "
                          "(default .sweep-cache/calibration)")
    cal.add_argument("--no-cache", action="store_true",
                     help="re-run the probes even if a cached fit exists")
    cal.add_argument("--check", action="store_true",
                     help="rerun fig3/fig5 at fast fidelity and compare "
                          "against the golden files")
    cal.add_argument("--bound", type=float, default=0.05,
                     help="declared relative error bound for --check")
    cal.add_argument("--json", action="store_true",
                     help="emit calibration (and report) as JSON")
    cal.set_defaults(func=cmd_calibrate)

    report = sub.add_parser("report", help="run everything, emit markdown")
    report.add_argument("--commands", type=int, default=800)
    report.add_argument("--configs", type=str, default="")
    report.add_argument("--out", type=str, default="")
    report.add_argument("--skip-fig4", action="store_true")
    report.add_argument("--skip-reliability", action="store_true",
                        help="skip the Monte-Carlo reliability section")
    report.add_argument("--skip-ftl", action="store_true",
                        help="skip the real-FTL scheme-zoo section")
    report.add_argument("--reliability-replicas", type=int, default=8,
                        help="fault-trial replicas per reliability cell")
    report.set_defaults(func=cmd_report)

    explore = sub.add_parser("explore", help="design-space exploration")
    explore.add_argument("--configs", type=str, default="")
    explore.add_argument("--commands", type=int, default=1000)
    add_sweep_options(explore)
    explore.set_defaults(func=cmd_explore)

    campaign = sub.add_parser(
        "campaign", help="durable design-space campaigns: a leased "
                         "work-queue any number of workers drain, a "
                         "SQLite result store, and adaptive exploration")
    campaign_sub = campaign.add_subparsers(dest="campaign_command",
                                           required=True)

    crun = campaign_sub.add_parser(
        "run", help="run (or resume) an experiment as a campaign; "
                    "interrupted runs pick up with zero recomputation")
    crun.add_argument("dir", help="campaign directory (created if missing)")
    crun.add_argument("--experiment", type=str, default="fig3",
                      choices=["fig3", "fig4", "fig5", "adaptive"],
                      help="which canonical experiment to campaign "
                           "(adaptive = fast-fidelity screen + Pareto-band "
                           "promotion on the fig3 grid)")
    crun.add_argument("--commands", type=int, default=2000)
    crun.add_argument("--configs", type=str, default="",
                      help="comma-separated subset of C1..C10")
    crun.add_argument("--workers", type=int, default=0,
                      help="worker processes (0 = all cores)")
    crun.add_argument("--budget", type=float, default=0.5,
                      help="adaptive: max fraction of the grid promoted "
                           "to cycle fidelity")
    crun.add_argument("--name", type=str, default="",
                      help="campaign id in the store (default: experiment)")
    crun.add_argument("--timeout", type=float, default=0.0,
                      help="per-point time budget in seconds (0 = none)")
    crun.add_argument("--quiet", action="store_true",
                      help="suppress per-point progress lines")
    add_fidelity_option(crun)
    crun.set_defaults(func=cmd_campaign_run)

    cworker = campaign_sub.add_parser(
        "worker", help="join an existing campaign as one extra worker "
                       "(run any number, on any host sharing the dir)")
    cworker.add_argument("dir", help="campaign directory")
    cworker.add_argument("--ttl", type=float, default=60.0,
                         help="lease time-to-live in seconds")
    cworker.add_argument("--timeout", type=float, default=0.0,
                         help="per-point time budget in seconds (0 = none)")
    cworker.set_defaults(func=cmd_campaign_worker)

    cstatus = campaign_sub.add_parser(
        "status", help="point counts + live leases for a campaign dir")
    cstatus.add_argument("dir", help="campaign directory")
    cstatus.add_argument("--json", action="store_true")
    cstatus.set_defaults(func=cmd_campaign_status)

    cquery = campaign_sub.add_parser(
        "query", help="rank points by any stored metric "
                      "(dotted payload paths, e.g. latency_us.p99)")
    cquery.add_argument("dir", help="campaign directory")
    cquery.add_argument("--metric", type=str, default="ssd_cache_mbps")
    cquery.add_argument("--where", action="append", default=[],
                        metavar="CONSTRAINT",
                        help='filter, e.g. "latency_us.p99<=2000" '
                             "(repeatable)")
    cquery.add_argument("--top", type=int, default=0,
                        help="only the best N rows (0 = all)")
    cquery.add_argument("--ascending", action="store_true",
                        help="rank ascending (for latency-style metrics)")
    cquery.add_argument("--campaign-id", type=str, default="",
                        help="campaign id in the store (default: first)")
    cquery.add_argument("--list-metrics", action="store_true",
                        help="print the available metric names and exit")
    cquery.add_argument("--json", action="store_true")
    cquery.set_defaults(func=cmd_campaign_query)

    creport = campaign_sub.add_parser(
        "report", help="decision support: Pareto frontier, "
                       "best-under-constraint, failure post-mortems")
    creport.add_argument("dir", help="campaign directory")
    creport.add_argument("--metric", type=str, default="ssd_cache_mbps")
    creport.add_argument("--where", action="append", default=[],
                         metavar="CONSTRAINT",
                         help='constraint for "best", e.g. '
                              '"latency_us.p99<=2000" (repeatable)')
    creport.add_argument("--campaign-id", type=str, default="",
                         help="campaign id in the store (default: first)")
    creport.add_argument("--json", action="store_true")
    creport.set_defaults(func=cmd_campaign_report)

    reliability = sub.add_parser(
        "reliability", help="Monte-Carlo reliability campaigns: seeded "
                            "fault-trial replicas on the campaign engine, "
                            "Wilson-CI estimators, CI-driven stopping")
    reliability_sub = reliability.add_subparsers(
        dest="reliability_command", required=True)

    rrun = reliability_sub.add_parser(
        "run", help="expand the fig-faults grid into seeded replicas and "
                    "estimate UBER / failed-command-rate with 95% CIs; "
                    "resumable, byte-identical across worker counts")
    rrun.add_argument("dir", help="campaign directory (created if missing)")
    rrun.add_argument("--replicas", type=int, default=64,
                      help="replica budget per cell")
    rrun.add_argument("--batch", type=int, default=0,
                      help="replicas scheduled per stopping-rule batch "
                           "(0 = default 16; only with --target-half-width)")
    rrun.add_argument("--target-half-width", type=float, default=0.0,
                      help="stop a cell early once the 95%% CI half-width "
                           "of --metric reaches this (0 = run the full "
                           "budget)")
    rrun.add_argument("--metric", type=str, default="failed_rate",
                      choices=["failed_rate", "uber"],
                      help="stopping-rule / frontier reliability metric")
    rrun.add_argument("--fractions", type=str, default="",
                      help="comma-separated wear levels "
                           "(default 0.5,0.9,1.0)")
    rrun.add_argument("--spares", type=str, default="",
                      help="comma-separated spare-blocks-per-plane values "
                           "(default 8)")
    rrun.add_argument("--kinds", type=str, default="",
                      help="comma-separated workload kinds "
                           "(default write,read)")
    rrun.add_argument("--commands", type=int, default=120,
                      help="commands per replica")
    rrun.add_argument("--seed", type=int, default=1234,
                      help="campaign seed (replica seeds derive from it)")
    rrun.add_argument("--workers", type=int, default=0,
                      help="worker processes (0 = all cores)")
    rrun.add_argument("--name", type=str, default="",
                      help="campaign id in the store "
                           "(default: reliability)")
    rrun.add_argument("--timeout", type=float, default=0.0,
                      help="per-point time budget in seconds (0 = none)")
    rrun.add_argument("--quiet", action="store_true",
                      help="suppress per-point progress lines")
    rrun.add_argument("--json", action="store_true",
                      help="deterministic estimator document (the bytes "
                           "the reliability-smoke tier compares)")
    rrun.set_defaults(func=cmd_reliability_run)

    rreport = reliability_sub.add_parser(
        "report", help="re-aggregate a reliability campaign dir: pooled "
                       "estimates + perf-vs-reliability-vs-spares Pareto "
                       "frontier, no simulation")
    rreport.add_argument("dir", help="campaign directory")
    rreport.add_argument("--metric", type=str, default="failed_rate",
                         choices=["failed_rate", "uber"],
                         help="frontier reliability metric")
    rreport.add_argument("--json", action="store_true")
    rreport.set_defaults(func=cmd_reliability_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
