"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run            one closed-loop simulation (situation x case)
profile        measured per-stage wall clock vs Table II modeled latency
inject         closed-loop simulation under a fault campaign
track          the Fig. 7/8 dynamic-track study
characterize   design-time knob sweep for a situation (Table III row)
train          train / load the three situation classifiers (Table IV)
sensitivity    Monte-Carlo knob-sensitivity study (Sec. III-B)
report         regenerate every paper artifact into a markdown report
trace          inspect / diff telemetry event streams (JSONL)
lint           static checks on the fixed points (reprolint)

The simulation commands are thin wrappers over :mod:`repro.api` — the
same keyword-only facade scripts are expected to use.

Error contract: bad user input — an invalid argument value, a malformed
spec string, an unreadable file — exits 2 with a one-line message
on stderr (``repro <command>: <reason>``), uniformly across
subcommands.  Exit 1 is reserved for completed runs with a negative
outcome (a crash), matching ``result.crashed``.
"""

from __future__ import annotations

import argparse
import sys


def _parse_frame(text):
    """``"WxH"`` -> (width, height), or None for an empty string."""
    if not text:
        return None
    try:
        width, _, height = text.partition("x")
        return int(width), int(height)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"frame must look like 384x192, got {text!r}"
        ) from None


def _describe_situation(index: int) -> str:
    from repro.core.situation import situation_by_index

    return situation_by_index(index).describe()


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api import simulate

    result = simulate(
        situation=args.situation,
        case=args.case,
        length_m=args.length,
        seed=args.seed,
        frame=args.frame,
        profile=args.profile,
        telemetry=args.telemetry,
        cache=args.cache,
    )
    status = "CRASHED" if result.crashed else "completed"
    print(f"{args.case} on '{_describe_situation(args.situation)}': {status}")
    print(f"MAE = {result.mae(skip_time_s=2.0) * 100:.2f} cm over "
          f"{result.duration_s():.1f} s")
    if result.manifest is not None:
        # The config hash identifies the run semantics; execution
        # strategy knobs (REPRO_BATCH, jobs) never change it.
        print(f"config hash {result.manifest['config_hash']} "
              f"(repro {result.manifest['package_version']})")
    if args.telemetry:
        print(f"telemetry trace written to {args.telemetry}")
    if result.profile:
        print()
        print(result.profile_table())
    return 1 if result.crashed else 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.api import profile

    report = profile(
        situation=args.situation,
        case=args.case,
        length_m=args.length,
        seed=args.seed,
        frame=args.frame,
    )
    # The 'model ms' column is the latency the control design assumes
    # (Table II / Table IV, Xavier @ 30 W); measured columns are this
    # host's wall clock.  Stages without a modeled figure (the renderer
    # is simulation scaffolding, per-ISP-stage splits are not profiled
    # in the paper) show '-'.
    result = report.result
    print(
        f"{args.case} on '{_describe_situation(args.situation)}' "
        f"({len(result.cycles)} cycles, seed {args.seed})"
    )
    print(report.table())
    return 1 if result.crashed else 0


def _summarize_fault_run(label: str, result) -> None:
    status = "CRASHED" if result.crashed else "completed"
    print(
        f"  {label:12s} {status:9s} "
        f"MAE {result.mae(skip_time_s=2.0) * 100:6.2f} cm  "
        f"degraded {result.degraded_fraction() * 100:5.1f} % "
        f"of {len(result.cycles)} cycles"
    )


def _cmd_inject(args: argparse.Namespace) -> int:
    from repro.api import inject
    from repro.faults import resolve_fault_plan

    # A bad --spec raises ValueError; main()'s uniform handler turns it
    # into the one-line stderr message + exit 2.
    plan = resolve_fault_plan(args.faults)
    kwargs = dict(
        faults=plan,
        situation=args.situation,
        case=args.case,
        length_m=args.length,
        seed=args.seed,
        frame=args.frame,
    )
    print(
        f"{args.case} on '{_describe_situation(args.situation)}' "
        f"under faults: {plan.describe()}"
    )
    if args.compare:
        baseline = inject(mitigate=False, **kwargs)
        _summarize_fault_run("unmitigated", baseline)
    result = inject(mitigate=not args.no_mitigation, **kwargs)
    _summarize_fault_run(
        "unmitigated" if args.no_mitigation else "mitigated", result
    )
    if result.fault_kinds():
        print(f"  faults seen: {', '.join(result.fault_kinds())}")
    return 1 if result.crashed else 0


def _cmd_track(args: argparse.Namespace) -> int:
    from repro.experiments.fig8 import format_fig8, run_fig8

    cases = args.cases.split(",") if args.cases else None
    results = run_fig8(cases=cases) if cases else run_fig8()
    print(format_fig8(results))
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.api import characterize

    evaluations = characterize(
        situation=args.situation, jobs=args.jobs, batch=args.batch,
        cache=args.cache,
    )
    print(f"{_describe_situation(args.situation)}:")
    for ev in evaluations:
        status = "CRASH" if ev.crashed else f"MAE {ev.mae * 100:6.2f} cm"
        print(
            f"  {ev.knobs.isp} {ev.knobs.roi} v={ev.knobs.speed_kmph:.0f} "
            f"-> {status} (h={ev.period_ms:.0f}, tau={ev.delay_ms:.1f})"
        )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache import RolloutCache

    store = RolloutCache(args.dir)
    prescreens = store.prescreens()
    if args.clear:
        removed = store.clear()
        swept = prescreens.clear()
        print(
            f"removed {removed} cached rollouts and {swept} prescreen "
            f"vectors from {store.root}"
        )
        return 0
    if args.verify:
        checked, problems = store.verify()
        for problem in problems:
            print(problem, file=sys.stderr)
        verdict = "OK" if not problems else f"{len(problems)} problem(s)"
        print(f"verified {checked} cached rollouts under {store.root}: {verdict}")
        return 2 if problems else 0
    entries = store.entries()
    print(f"store    {store.root}")
    print(f"entries  {len(entries)}")
    print(f"bytes    {store.total_bytes()}")
    vectors = prescreens.entries()
    print(f"prescreen entries  {len(vectors)}")
    print(f"prescreen bytes    {sum(path.stat().st_size for path in vectors)}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    import logging

    from repro.classifiers.train import train_all_classifiers

    # Library progress goes through logging; surface it on the console.
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    results = train_all_classifiers(use_cache=not args.no_cache, verbose=True)
    for name, result in results.items():
        print(f"{name}: val accuracy {result.val_accuracy * 100:.2f} % "
              f"({'cache' if result.from_cache else 'trained'})")
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.core.sensitivity import SensitivityConfig, knob_sensitivity
    from repro.core.situation import situation_by_index

    report = knob_sensitivity(
        situation_by_index(args.situation),
        SensitivityConfig(n_samples=args.samples),
    )
    print(f"{report.situation.describe()}: QoC variance share per knob")
    for knob in report.ranked_knobs():
        print(f"  {knob:6s}: {report.main_effect[knob] * 100:5.1f} %")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    generate_report(
        path=args.output,
        include_dynamic=not args.skip_dynamic,
        include_characterization=not args.skip_characterization,
        include_classifiers=not args.skip_classifiers,
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.api import diff_traces, load_trace

    if args.diff:
        differences = diff_traces(a=args.diff[0], b=args.diff[1])
        if not differences:
            print(f"{args.diff[0]} and {args.diff[1]}: identical")
            return 0
        for line in differences:
            print(line)
        return 2
    if not args.path:
        print(
            "repro trace: give a trace path (optionally --json) "
            "or --diff A B",
            file=sys.stderr,
        )
        return 2
    trace = load_trace(path=args.path)
    if args.json:
        print(
            json_module.dumps(
                {"manifest": trace.manifest, "events": trace.events},
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    manifest = trace.manifest
    print(f"{args.path}:")
    print(f"  schema          {manifest.get('schema')}")
    print(f"  package version {manifest.get('package_version')}")
    print(f"  config hash     {manifest.get('config_hash')}")
    streams = manifest.get("rng_streams") or []
    print(f"  rng streams     {len(streams)}: {', '.join(streams)}")
    env = manifest.get("env") or {}
    set_knobs = {k: v for k, v in env.items() if v is not None}
    print(f"  env knobs       {set_knobs if set_knobs else '(none set)'}")
    counts: dict = {}
    for event in trace.events:
        counts[event["event"]] = counts.get(event["event"], 0) + 1
    print(f"  events          {len(trace.events)}")
    for name in sorted(counts):
        print(f"    {name:20s} {counts[name]}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import lint_paths, write_lockfile

    if args.update_lockfile:
        path, changed = write_lockfile((args.paths or ["src/repro"])[0])
        print(f"{path}: {'updated' if changed else 'up to date'}")
        return 0
    report = lint_paths(args.paths or ["src/repro"])
    print(report.render_text())
    return report.exit_code()


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DATE 2021 'Hardware- and Situation-Aware Sensing' reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one closed-loop simulation")
    p_run.add_argument("--situation", type=int, default=1, help="Table III index 1-21")
    p_run.add_argument("--case", default="case3",
                       choices=["case1", "case2", "case3", "case4", "variable", "adaptive"])
    p_run.add_argument("--length", type=float, default=150.0)
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--profile", action="store_true",
                       help="print measured per-stage wall clock after the run")
    p_run.add_argument("--frame", type=_parse_frame, default=None,
                       help="camera frame as WxH (default 384x192)")
    p_run.add_argument("--telemetry", metavar="PATH", default=None,
                       help="record the run's telemetry event stream "
                            "to this JSONL file")
    p_run.add_argument("--cache", metavar="auto|off|PATH", default=None,
                       help="rollout result cache: 'auto' (default store), "
                            "'off' (default), or an explicit store root; "
                            "a hit is bit-identical to rerunning")
    p_run.set_defaults(func=_cmd_run)

    p_prof = sub.add_parser(
        "profile", help="measured stage wall clock vs Table II modeled latency"
    )
    p_prof.add_argument("--situation", type=int, default=1, help="Table III index 1-21")
    p_prof.add_argument("--case", default="case4",
                        choices=["case1", "case2", "case3", "case4", "variable", "adaptive"])
    p_prof.add_argument("--length", type=float, default=60.0)
    p_prof.add_argument("--seed", type=int, default=1)
    p_prof.add_argument("--frame", type=_parse_frame, default=None,
                        help="camera frame as WxH (default 384x192)")
    p_prof.set_defaults(func=_cmd_profile)

    p_inj = sub.add_parser(
        "inject", help="closed-loop simulation under a fault campaign"
    )
    p_inj.add_argument(
        "--faults", required=True,
        help="preset name (blackout, banding, classifier-outage, "
             "flaky-classifiers, stress) or a spec string like "
             "'blackout@2000:2800;timeout@1500:inf,probability=0.5'",
    )
    p_inj.add_argument("--situation", type=int, default=1, help="Table III index 1-21")
    p_inj.add_argument("--case", default="case3",
                       choices=["case1", "case2", "case3", "case4", "variable", "adaptive"])
    p_inj.add_argument("--length", type=float, default=150.0)
    p_inj.add_argument("--seed", type=int, default=1)
    p_inj.add_argument("--frame", type=_parse_frame, default=None,
                       help="camera frame as WxH (default 384x192)")
    p_inj.add_argument("--no-mitigation", action="store_true",
                       help="run without graceful degradation")
    p_inj.add_argument("--compare", action="store_true",
                       help="also run the unmitigated baseline first")
    p_inj.set_defaults(func=_cmd_inject)

    p_track = sub.add_parser("track", help="Fig. 7/8 dynamic-track study")
    p_track.add_argument("--cases", default="", help="comma list, default all five")
    p_track.set_defaults(func=_cmd_track)

    p_char = sub.add_parser("characterize", help="knob sweep for one situation")
    p_char.add_argument("--situation", type=int, default=8)
    p_char.add_argument(
        "--jobs",
        default=None,
        help="worker processes for the sweep (0 or 'auto' = all cores; "
        "default: $REPRO_JOBS or 1, i.e. serial)",
    )
    p_char.add_argument(
        "--batch",
        default=None,
        help="lock-step rollout lanes per worker (0 or 'auto' sizes the "
        "chunk from the grid; default: $REPRO_BATCH or auto)",
    )
    p_char.add_argument(
        "--cache",
        metavar="auto|off|PATH",
        default=None,
        help="rollout result cache: 'auto' (default), 'off', or an "
        "explicit store root; warm sweeps reuse cached rollouts",
    )
    p_char.set_defaults(func=_cmd_characterize)

    p_cache = sub.add_parser(
        "cache", help="inspect/maintain the rollout result cache"
    )
    mode = p_cache.add_mutually_exclusive_group()
    mode.add_argument("--stats", action="store_true",
                      help="print store location and size, prescreen "
                           "vectors included (the default)")
    mode.add_argument("--clear", action="store_true",
                      help="delete every cached rollout and prescreen vector")
    mode.add_argument("--verify", action="store_true",
                      help="re-hash every entry against its embedded key "
                           "document; exit 2 on any mismatch")
    p_cache.add_argument("--dir", default=None, metavar="PATH",
                         help="explicit store root "
                              "(default: <cache dir>/rollouts)")
    p_cache.set_defaults(func=_cmd_cache)

    p_train = sub.add_parser("train", help="train the situation classifiers")
    p_train.add_argument("--no-cache", action="store_true")
    p_train.set_defaults(func=_cmd_train)

    p_sens = sub.add_parser("sensitivity", help="Monte-Carlo knob sensitivity")
    p_sens.add_argument("--situation", type=int, default=8)
    p_sens.add_argument("--samples", type=int, default=24)
    p_sens.set_defaults(func=_cmd_sensitivity)

    p_report = sub.add_parser("report", help="regenerate all paper artifacts")
    p_report.add_argument("--output", default="report.md")
    p_report.add_argument("--skip-dynamic", action="store_true")
    p_report.add_argument("--skip-characterization", action="store_true")
    p_report.add_argument("--skip-classifiers", action="store_true")
    p_report.set_defaults(func=_cmd_report)

    p_trace = sub.add_parser(
        "trace", help="inspect / diff telemetry event streams"
    )
    p_trace.add_argument(
        "path", nargs="?", default=None,
        help="a trace written by 'run --telemetry' (JSONL)",
    )
    p_trace.add_argument("--show", action="store_true",
                         help="print the summary (the default display)")
    p_trace.add_argument("--json", action="store_true",
                         help="dump manifest and events as JSON")
    p_trace.add_argument(
        "--diff", nargs=2, metavar=("A", "B"), default=None,
        help="compare two traces; exit 0 when equivalent, 2 when they "
             "diverge (volatile manifest fields ignored)",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_lint = sub.add_parser(
        "lint", help="static checks on the fixed points (reprolint)")
    p_lint.add_argument("paths", nargs="*",
                        help="files/directories (default src/repro)")
    p_lint.add_argument("--update-lockfile", action="store_true",
                        help="rewrite api_surface.json from the package "
                             "directory (the first path) and exit")
    p_lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code.

    Uniform error contract: bad user input — wherever it is detected
    (argument coercion, facade validation, an unreadable file) — prints
    one line on stderr and exits 2.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
