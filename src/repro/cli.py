"""Command-line interface.

Usage (installed as ``python -m repro``)::

    python -m repro list
    python -m repro report C432
    python -m repro spcf C432 --algorithm all
    python -m repro mask C432 --out masked.blif --mask-out mask.blif
    python -m repro lint C432 --format json
    python -m repro lint all --fail-on warning
    python -m repro verify-mask cmb
    python -m repro table1
    python -m repro table2 --circuits cmb x2 cu
    python -m repro campaign plan --circuits comparator2 --modes delay seu
    python -m repro campaign run camp.ckpt.jsonl --circuits comparator2
    python -m repro campaign run camp.ckpt.jsonl --workers 4
    python -m repro campaign resume camp.ckpt.jsonl
    python -m repro campaign report camp.ckpt.jsonl --format json
    python -m repro campaign status camp.ckpt.jsonl --watch 2
    python -m repro campaign smoke
    python -m repro mask path/to/design.blif --library lsi10k_like
    python -m repro info
    python -m repro mask cmb --trace mask.trace.json --metrics mask.prom
    python -m repro obs report mask.trace.json

Every subcommand accepts ``--trace FILE`` / ``--metrics FILE`` to switch
on :mod:`repro.obs` recording for the run and write the span trace
(Chrome ``trace_event`` JSON, or JSONL for ``.jsonl`` paths) and metrics
snapshot (Prometheus text for ``.prom``/``.txt``, else JSON) on exit.

Circuits are named benchmarks from :mod:`repro.benchcircuits` or paths to
BLIF files (``.gate`` netlists are read against the chosen library).

Exit codes (``lint``): 0 — clean, 1 — diagnostics at or above
``--fail-on``, 2 — the tool itself failed (bad arguments, unreadable input,
internal error).  Other subcommands use 0/1 for pass/fail and 2 for tool
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

from repro import obs
from repro.benchcircuits import PAPER_SPECS, TABLE1_NAMES, all_circuit_names, circuit_by_name
from repro.campaign import (
    FAULT_KINDS,
    CampaignSpec,
    RunnerConfig,
    aggregate_results,
    campaign_status,
    load_journal,
    plan_campaign,
    render_campaign_json,
    render_campaign_text,
    render_status_text,
    resume_campaign,
    run_campaign,
    run_smoke,
    watch_status,
)
from repro.analysis import (
    LintConfig,
    Severity,
    lint_circuit,
    lint_suite,
    render_json,
    render_json_many,
    render_text,
    render_text_many,
    render_verify_json,
    render_verify_text,
)
from repro.core import mask_circuit, synthesize_masking, verify_masking
from repro.errors import BlifError, CampaignError, ReproError
from repro.netlist import (
    Circuit,
    Library,
    builtin_library,
    read_blif,
    write_blif_file,
    write_verilog_file,
)
from repro.spcf import (
    compare_algorithms,
    spcf_nodebased,
    spcf_pathbased,
    spcf_shortpath,
)
from repro.sta import analyze


#: Exit codes of the diagnostic subcommands (documented in ``--help``).
EXIT_OK = 0  #: no findings at or above the ``--fail-on`` severity
EXIT_FINDINGS = 1  #: diagnostics found; the tool itself ran fine
EXIT_ERROR = 2  #: the tool failed (bad arguments, unreadable input, crash)

_EXIT_CODE_EPILOG = (
    "exit codes:\n"
    "  0  clean (no findings at or above --fail-on)\n"
    "  1  diagnostics found\n"
    "  2  the tool itself failed (bad arguments, unreadable input, crash)"
)


def _load_circuit(spec: str, library: Library, validate: bool = True) -> Circuit:
    path = Path(spec)
    if spec.endswith(".blif"):
        if not path.exists():
            raise BlifError(f"BLIF file not found: {path}")
        return read_blif(path, library=library, validate=validate)
    if path.exists():
        return read_blif(path, library=library, validate=validate)
    return circuit_by_name(spec, library)


def _nonneg_int(text: str) -> int:
    """argparse type for worker counts: ``0`` = inline, ``< 0`` rejected.

    Validating here keeps a bad ``--workers -1`` an argument error (usage +
    exit 2) instead of a failure deep inside pool startup.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"worker count {value} must be >= 0 (0 = inline)"
        )
    return value


def _fmt_count(n: int) -> str:
    """Compact rendering of a pattern count: exact below 1000, else mantissa+exp."""
    if -1000 < n < 1000:
        return str(n)
    sign = "-" if n < 0 else ""
    magnitude = abs(n)
    exp = len(str(magnitude)) - 1
    return f"{sign}{magnitude / 10**exp:.2f}e{exp}"


def cmd_list(args: argparse.Namespace) -> int:
    print("hand-made circuits and paper benchmarks:")
    for name in all_circuit_names():
        mark = "  [table 2]" if name in PAPER_SPECS else ""
        print(f"  {name}{mark}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    library = builtin_library(args.library)
    circuit = _load_circuit(args.circuit, library)
    report = analyze(circuit, threshold=args.threshold)
    crit = report.critical_outputs(circuit)
    print(f"circuit          : {circuit.name}")
    print(f"inputs/outputs   : {len(circuit.inputs)}/{len(circuit.outputs)}")
    print(f"gates / area     : {circuit.num_gates} / {circuit.area():.0f}")
    print(f"critical delay   : {report.critical_delay}")
    print(f"target (Delta_y) : {report.target}")
    print(f"critical outputs : {len(crit)}  {list(crit)[:8]}")
    print(f"critical gates   : {len(report.critical_gates(circuit))}")
    return 0


def cmd_spcf(args: argparse.Namespace) -> int:
    library = builtin_library(args.library)
    circuit = _load_circuit(args.circuit, library)
    if args.algorithm == "all":
        row = compare_algorithms(circuit, threshold=args.threshold)
        print(f"node-based : {_fmt_count(row.node_based_count):>12s}  "
              f"({row.node_based_runtime:.3f}s)")
        print(f"path-based : {_fmt_count(row.path_based_count):>12s}  "
              f"({row.path_based_runtime:.3f}s)")
        print(f"short-path : {_fmt_count(row.short_path_count):>12s}  "
              f"({row.short_path_runtime:.3f}s)")
        print(f"over-approximation factor: {row.over_approximation_factor:.2f}x")
        return 0
    algo = {
        "short": spcf_shortpath,
        "path": spcf_pathbased,
        "node": spcf_nodebased,
    }[args.algorithm]
    result = algo(circuit, threshold=args.threshold)
    print(f"algorithm : {result.algorithm}")
    print(f"target    : {result.target}")
    for y, count in sorted(result.counts_by_output().items()):
        print(f"  {y:16s} {_fmt_count(count):>14s} critical patterns")
    print(f"union     : {_fmt_count(result.count()):>14s} "
          f"({result.runtime_seconds:.3f}s)")
    return 0


def cmd_mask(args: argparse.Namespace) -> int:
    library = builtin_library(args.library)
    circuit = _load_circuit(args.circuit, library)
    result = mask_circuit(
        circuit,
        library,
        threshold=args.threshold,
        max_support=args.max_support,
    )
    r = result.report
    print(f"circuit            : {r.circuit_name} "
          f"({r.num_inputs}/{r.num_outputs}, {r.num_gates} gates)")
    print(f"critical outputs   : {r.critical_outputs}")
    print(f"critical minterms  : {_fmt_count(r.critical_minterms)}")
    print(f"original delay     : {r.original_delay}")
    print(f"masking delay      : {r.masking_delay} (slack {r.slack_percent:.1f}%)")
    print(f"area overhead      : {r.area_overhead_percent:.1f}%")
    print(f"power overhead     : {r.power_overhead_percent:.1f}%")
    print(f"sound              : {r.sound}")
    print(f"masking coverage   : {r.coverage_percent:.1f}%")
    if not r.meets_slack_constraint:
        print("warning: masking circuit has < 20% slack on this design")
    if args.out:
        write_blif_file(result.design.circuit, args.out)
        print(f"masked design written to {args.out}")
    if args.mask_out:
        write_blif_file(result.masking.masking_circuit, args.mask_out)
        print(f"masking circuit written to {args.mask_out}")
    if args.verilog:
        write_verilog_file(result.design.circuit, args.verilog)
        print(f"masked design (verilog) written to {args.verilog}")
    return 0 if result.verification.ok else 1


def _emit_reports(reports: dict, args: argparse.Namespace, fail_on: Severity) -> int:
    """Render reports in the chosen format and derive the exit code."""
    if args.format == "json":
        if len(reports) == 1 and args.circuit != "all":
            text = render_json(next(iter(reports.values())))
        else:
            text = render_json_many(reports)
    else:
        if len(reports) == 1 and args.circuit != "all":
            text = render_text(next(iter(reports.values())))
        else:
            text = render_text_many(reports)
    print(text)
    ok = all(r.ok(fail_on) for r in reports.values())
    return EXIT_OK if ok else EXIT_FINDINGS


def cmd_lint(args: argparse.Namespace) -> int:
    library = builtin_library(args.library)
    config = LintConfig(
        fanout_threshold=args.fanout_threshold,
        ignore=frozenset(args.ignore or ()),
    )
    fail_on = Severity.from_name(args.fail_on)
    if args.circuit == "all":
        reports = lint_suite(library, config)
    else:
        # Load without structural validation: diagnosing loops and dangling
        # nets (LINT001/LINT002) is the linter's job, not the loader's.
        reports = {
            args.circuit: lint_circuit(
                _load_circuit(args.circuit, library, validate=False), config
            )
        }
    return _emit_reports(reports, args, fail_on)


def cmd_verify_masking(args: argparse.Namespace) -> int:
    library = builtin_library(args.library)
    circuit = _load_circuit(args.circuit, library)
    result = synthesize_masking(
        circuit,
        library,
        threshold=args.threshold,
        max_support=args.max_support,
    )
    report = verify_masking(result)
    render = render_verify_json if args.format == "json" else render_verify_text
    print(render(report))
    return 0 if report.ok else 1


def cmd_table1(args: argparse.Namespace) -> int:
    library = builtin_library(args.library)
    print(f"{'circuit':18s} {'node-based':>12s} {'path-based':>12s} "
          f"{'short-path':>12s} {'over':>6s}")
    for name in TABLE1_NAMES:
        circuit = circuit_by_name(name, library)
        row = compare_algorithms(circuit)
        print(f"{name:18s} {_fmt_count(row.node_based_count):>12s} "
              f"{_fmt_count(row.path_based_count):>12s} "
              f"{_fmt_count(row.short_path_count):>12s} "
              f"{row.over_approximation_factor:5.1f}x")
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    library = builtin_library(args.library)
    names = args.circuits or list(PAPER_SPECS)
    print(f"{'circuit':18s} {'critPO':>7s} {'minterms':>10s} {'slack%':>7s} "
          f"{'area%':>7s} {'power%':>7s} {'cov%':>5s}")
    slacks, areas, powers = [], [], []
    for name in names:
        circuit = circuit_by_name(name, library)
        r = mask_circuit(circuit, library).report
        slacks.append(r.slack_percent)
        areas.append(r.area_overhead_percent)
        powers.append(r.power_overhead_percent)
        print(f"{name:18s} {r.critical_outputs:7d} "
              f"{_fmt_count(r.critical_minterms):>10s} {r.slack_percent:7.1f} "
              f"{r.area_overhead_percent:7.1f} {r.power_overhead_percent:7.1f} "
              f"{r.coverage_percent:5.0f}")
    n = len(names)
    print(f"{'average':18s} {'':7s} {'':10s} {sum(slacks) / n:7.1f} "
          f"{sum(areas) / n:7.1f} {sum(powers) / n:7.1f}")
    return 0


def _parse_mode(text: str) -> dict:
    """Parse ``kind`` or ``kind:key=value,key=value`` into a mode spec."""
    kind, _, params = text.partition(":")
    mode: dict = {"kind": kind.strip()}
    if params.strip():
        for item in params.split(","):
            key, sep, raw = item.partition("=")
            if not sep or not key.strip():
                raise CampaignError(
                    f"bad mode parameter {item!r} in {text!r}; expected key=value"
                )
            raw = raw.strip()
            try:
                value = json.loads(raw)
            except json.JSONDecodeError:
                value = raw
            mode[key.strip()] = value
    return mode


def _parse_sabotage(entries: list[str] | None) -> dict[int, dict] | None:
    """Parse ``SHARD:MODE[:ATTEMPTS]`` drill directives."""
    if not entries:
        return None
    sabotage: dict[int, dict] = {}
    for text in entries:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise CampaignError(
                f"bad sabotage {text!r}; expected SHARD:MODE[:ATTEMPTS]"
            )
        try:
            shard = int(parts[0])
        except ValueError:
            raise CampaignError(f"bad sabotage shard index {parts[0]!r}") from None
        directive: dict = {"mode": parts[1]}
        if len(parts) == 3:
            try:
                directive["attempts"] = int(parts[2])
            except ValueError:
                raise CampaignError(
                    f"bad sabotage attempt count {parts[2]!r}"
                ) from None
        sabotage[shard] = directive
    return sabotage


def _campaign_spec(args: argparse.Namespace) -> CampaignSpec:
    return CampaignSpec(
        circuits=tuple(args.circuits),
        modes=tuple(_parse_mode(m) for m in args.modes),
        shards_per_cell=args.shards,
        vectors_per_shard=args.vectors,
        seed=args.seed,
        clock_fraction=args.clock_fraction,
        threshold=args.threshold,
        library=args.library,
    )


def _runner_config(args: argparse.Namespace) -> RunnerConfig:
    return RunnerConfig(
        workers=args.workers,
        task_timeout=args.timeout,
        max_retries=args.retries,
    )


def _emit_campaign(outcome_aggregate: dict, args: argparse.Namespace) -> None:
    render = (
        render_campaign_json if args.format == "json" else render_campaign_text
    )
    text = render(outcome_aggregate)
    if args.out:
        Path(args.out).write_text(
            text if text.endswith("\n") else text + "\n"
        )
        print(f"campaign report written to {args.out}")
    else:
        print(text.rstrip("\n"))


def cmd_campaign_plan(args: argparse.Namespace) -> int:
    spec = _campaign_spec(args)
    plan = plan_campaign(spec)
    print(f"campaign {spec.fingerprint()[:12]}: {len(plan)} shards")
    for shard in plan:
        print(
            f"  #{shard.index:<4d} {shard.circuit:14s} {shard.mode_key:32s} "
            f"vectors={shard.vectors} seed={shard.seed}"
        )
    return 0


def cmd_campaign_run(args: argparse.Namespace) -> int:
    outcome = run_campaign(
        _campaign_spec(args),
        args.checkpoint,
        _runner_config(args),
        sabotage=_parse_sabotage(args.sabotage),
        progress=print if args.progress else None,
    )
    _emit_campaign(outcome.aggregate, args)
    return 0 if outcome.complete else 1


def cmd_campaign_resume(args: argparse.Namespace) -> int:
    outcome = resume_campaign(
        args.checkpoint,
        _runner_config(args),
        progress=print if args.progress else None,
    )
    _emit_campaign(outcome.aggregate, args)
    return 0 if outcome.complete else 1


def cmd_campaign_report(args: argparse.Namespace) -> int:
    state = load_journal(args.checkpoint)
    results = {i: record["result"] for i, record in state.results.items()}
    # Telemetry records journaled by an obs-enabled run survive in the
    # checkpoint, so reporting offline still shows the telemetry section.
    shard_obs = {
        i: record["obs"]
        for i, record in state.results.items()
        if isinstance(record.get("obs"), dict)
    }
    aggregate = aggregate_results(
        state.spec,
        plan_campaign(state.spec),
        results,
        state.quarantined,
        shard_obs=shard_obs,
    )
    _emit_campaign(aggregate, args)
    return 0 if aggregate["complete"] else 1


def cmd_campaign_smoke(args: argparse.Namespace) -> int:
    return run_smoke(args.workdir)


def cmd_campaign_status(args: argparse.Namespace) -> int:
    if args.watch:
        return watch_status(args.checkpoint, args.watch)
    print(render_status_text(campaign_status(args.checkpoint)).rstrip("\n"))
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    from repro import __version__

    obs_state = "enabled" if obs.enabled() else "disabled"
    sources = []
    if obs.ENV_VAR in os.environ:
        sources.append(f"{obs.ENV_VAR}={os.environ[obs.ENV_VAR]!r}")
    if getattr(args, "trace", None):
        sources.append("--trace")
    if getattr(args, "metrics", None):
        sources.append("--metrics")
    print(f"repro version     : {__version__}")
    print(f"python            : {sys.version.split()[0]} ({sys.platform})")
    print(f"cpu count         : {os.cpu_count() or 'unknown'}")
    print(f"default workers   : {RunnerConfig().workers}")
    print(f"observability     : {obs_state}"
          + (f" (via {', '.join(sources)})" if sources else ""))
    print(f"library (selected): {args.library}")
    from repro.analysis.rules import RULES

    print("analysis rules    :")
    for rid, name, severity, description, _ in RULES:
        print(f"  {rid}  {name:24s} [{severity}] {description}")
    return 0


def cmd_obs_report(args: argparse.Namespace) -> int:
    records = obs.load_trace(args.tracefile)
    print(f"trace: {args.tracefile}  ({len(records)} spans)")
    print(obs.render_trace_summary(records, top=args.top))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Masking timing errors on speed-paths (DATE 2009) — "
        "reproduction toolkit",
    )
    parser.add_argument(
        "--library",
        default="lsi10k_like",
        choices=("unit", "lsi10k_like"),
        help="cell library for loading/mapping (default: lsi10k_like)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared observability flags.  argparse only accepts main-parser options
    # *before* the subcommand, so these ride on every leaf subparser via a
    # ``parents=`` parent; either flag switches recording on for the run.
    obs_parent = argparse.ArgumentParser(add_help=False)
    obs_group = obs_parent.add_argument_group("observability")
    obs_group.add_argument(
        "--trace",
        metavar="FILE",
        help="record spans; .jsonl streams span records, anything else "
        "writes Chrome trace JSON (load in Perfetto)",
    )
    obs_group.add_argument(
        "--metrics",
        metavar="FILE",
        help="write a metrics snapshot; .prom/.txt renders Prometheus "
        "text exposition, anything else JSON",
    )

    p = sub.add_parser(
        "list", help="list available circuits", parents=[obs_parent]
    )
    p.set_defaults(func=cmd_list)

    p = sub.add_parser(
        "report", help="static timing summary", parents=[obs_parent]
    )
    p.add_argument("circuit", help="benchmark name or .blif path")
    p.add_argument("--threshold", type=float, default=0.9)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "spcf", help="speed-path characteristic function", parents=[obs_parent]
    )
    p.add_argument("circuit")
    p.add_argument(
        "--algorithm", default="short", choices=("short", "path", "node", "all")
    )
    p.add_argument("--threshold", type=float, default=0.9)
    p.set_defaults(func=cmd_spcf)

    p = sub.add_parser(
        "mask", help="synthesize the error-masking circuit", parents=[obs_parent]
    )
    p.add_argument("circuit")
    p.add_argument("--threshold", type=float, default=0.9)
    p.add_argument("--max-support", type=int, default=12)
    p.add_argument("--out", help="write the masked design as BLIF")
    p.add_argument("--mask-out", help="write the masking circuit as BLIF")
    p.add_argument("--verilog", help="write the masked design as Verilog")
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser(
        "lint",
        help="rule-based netlist lint (LINT001-LINT007)",
        epilog=_EXIT_CODE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        parents=[obs_parent],
    )
    p.add_argument("circuit", help="benchmark name, .blif path, or 'all'")
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.add_argument(
        "--fail-on",
        default="error",
        choices=("info", "warning", "error"),
        help="lowest severity that makes the exit code 1",
    )
    p.add_argument("--fanout-threshold", type=int, default=64)
    p.add_argument(
        "--ignore", nargs="*", metavar="RULE", help="rule ids or names to skip"
    )
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "verify-mask",
        help="formally verify masking soundness/coverage/equivalence (BDD)",
        parents=[obs_parent],
    )
    p.add_argument("circuit", help="benchmark name or .blif path")
    p.add_argument("--threshold", type=float, default=0.9)
    p.add_argument("--max-support", type=int, default=12)
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.set_defaults(func=cmd_verify_masking)

    p = sub.add_parser("table1", help="regenerate Table 1", parents=[obs_parent])
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser(
        "table2", help="regenerate Table 2 rows", parents=[obs_parent]
    )
    p.add_argument("--circuits", nargs="*", help="subset of circuit names")
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser(
        "info",
        help="toolkit version, worker defaults, observability status",
        parents=[obs_parent],
    )
    p.set_defaults(func=cmd_info)

    obs_cmd = sub.add_parser(
        "obs", help="observability utilities (trace inspection)"
    )
    osub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    p = osub.add_parser(
        "report", help="summarize a trace file (per-span-name wall/CPU table)"
    )
    p.add_argument("tracefile", help="Chrome trace JSON or span JSONL file")
    p.add_argument("--top", type=int, default=0,
                   help="show only the N hottest span names (0 = all)")
    p.set_defaults(func=cmd_obs_report)

    camp = sub.add_parser(
        "campaign",
        help="resilient fault-injection campaigns (checkpoint/resume)",
    )
    csub = camp.add_subparsers(dest="campaign_command", required=True)

    def add_spec_options(cp: argparse.ArgumentParser) -> None:
        cp.add_argument(
            "--circuits",
            nargs="+",
            default=["comparator2", "cu"],
            help="benchmark circuits to sweep",
        )
        cp.add_argument(
            "--modes",
            nargs="+",
            default=list(FAULT_KINDS),
            metavar="KIND[:k=v,...]",
            help=f"fault modes, from {FAULT_KINDS} "
            "(e.g. delay:scale=3.0,arcs=2)",
        )
        cp.add_argument("--shards", type=int, default=2,
                        help="shards per (circuit, mode) cell")
        cp.add_argument("--vectors", type=int, default=128,
                        help="vector pairs per shard")
        cp.add_argument("--seed", type=int, default=0)
        cp.add_argument("--clock-fraction", type=float, default=0.85,
                        help="sample clock as fraction of critical delay")
        cp.add_argument("--threshold", type=float, default=0.9)

    def add_runner_options(cp: argparse.ArgumentParser) -> None:
        cp.add_argument("--workers", type=_nonneg_int, default=2,
                        help="worker subprocesses; 0 runs shards inline")
        cp.add_argument("--timeout", type=float, default=300.0,
                        help="per-shard attempt timeout in seconds")
        cp.add_argument("--retries", type=int, default=3,
                        help="retries per shard before quarantine")
        cp.add_argument("--progress", action="store_true",
                        help="log per-shard progress lines")

    def add_output_options(cp: argparse.ArgumentParser) -> None:
        cp.add_argument("--format", default="text", choices=("text", "json"))
        cp.add_argument("--out", help="write the report to a file")

    p = csub.add_parser(
        "plan", help="show the deterministic shard plan", parents=[obs_parent]
    )
    add_spec_options(p)
    p.set_defaults(func=cmd_campaign_plan)

    p = csub.add_parser(
        "run",
        help="run a campaign against a new checkpoint",
        parents=[obs_parent],
    )
    p.add_argument("checkpoint", help="checkpoint journal path (must not exist)")
    add_spec_options(p)
    add_runner_options(p)
    add_output_options(p)
    p.add_argument(
        "--sabotage",
        nargs="*",
        metavar="SHARD:MODE[:ATTEMPTS]",
        help="failure drill: kill/hang/exit a shard's worker "
        "(testing; not recorded in the checkpoint)",
    )
    p.set_defaults(func=cmd_campaign_run)

    p = csub.add_parser(
        "resume",
        help="resume an interrupted checkpoint",
        parents=[obs_parent],
    )
    p.add_argument("checkpoint", help="existing checkpoint journal path")
    add_runner_options(p)
    add_output_options(p)
    p.set_defaults(func=cmd_campaign_resume)

    p = csub.add_parser(
        "report",
        help="aggregate an existing checkpoint without running",
        parents=[obs_parent],
    )
    p.add_argument("checkpoint", help="existing checkpoint journal path")
    add_output_options(p)
    p.set_defaults(func=cmd_campaign_report)

    p = csub.add_parser(
        "status",
        help="live journal progress (read-only)",
        parents=[obs_parent],
    )
    p.add_argument("checkpoint", help="existing checkpoint journal path")
    p.add_argument("--watch", type=float, default=None, metavar="SECONDS",
                   help="re-render every SECONDS until the campaign settles")
    p.set_defaults(func=cmd_campaign_status)

    p = csub.add_parser(
        "smoke",
        help="end-to-end crash/quarantine/resume drill (CI gate)",
        parents=[obs_parent],
    )
    p.add_argument("--workdir", help="keep checkpoints here instead of a tmpdir")
    p.set_defaults(func=cmd_campaign_smoke)

    return parser


def _flush_obs_outputs(args: argparse.Namespace) -> None:
    """Write the requested trace/metrics files; never mask the exit path."""
    trace = getattr(args, "trace", None)
    metrics = getattr(args, "metrics", None)
    try:
        if trace:
            obs.write_trace(trace, obs.span_records())
            print(f"trace written to {trace}", file=sys.stderr)
        if metrics:
            obs.write_metrics(metrics, obs.metrics_snapshot())
            print(f"metrics written to {metrics}", file=sys.stderr)
    except (OSError, ReproError) as exc:
        print(f"error: could not write telemetry: {exc}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "trace", None) or getattr(args, "metrics", None):
        obs.configure(enabled=True)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception:  # noqa: BLE001 - CLI boundary: crash must not exit 1
        # Exit 1 is reserved for "diagnostics found"; an unexpected crash
        # must be distinguishable by scripts and CI, so it maps to 2 like
        # every other tool failure (the traceback still goes to stderr).
        traceback.print_exc()
        return EXIT_ERROR
    finally:
        # Even a failed run leaves its telemetry behind — that is when a
        # trace is most wanted.
        _flush_obs_outputs(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
