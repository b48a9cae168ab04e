"""Command-line interface.

Exposes the reproduction's main entry points without writing a script::

    repro experiment hop --connections 10
    repro scenario b --device keyfob
    repro capture --duration 2
    repro capture --format pcap --scenario a --output run.pcap
    repro metrics hop --jobs 4
    repro campaign run examples/smoke-campaign.json --jobs 4
    repro crack

Each subcommand builds a deterministic world from ``--seed``, runs it, and
prints the same tables the benchmarks produce.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.reporting import render_distribution_table, render_series

#: CLI shorthand → display names used by the scenario/device registries.
SCENARIO_KEYS = {"a": "A (use feature)", "b": "B (slave hijack)",
                 "c": "C (master hijack)", "d": "D (MitM)"}
DEVICE_KEYS = {"bulb": "lightbulb", "keyfob": "keyfob",
               "watch": "smartwatch"}


def _apply_engine(args: argparse.Namespace) -> None:
    """Propagate ``--engine`` via the environment so ``--jobs`` worker
    processes inherit the same simulation engine as the parent."""
    import os

    from repro.sim.fastforward import ENGINE_ENV_VAR, resolve_engine

    engine = getattr(args, "engine", None)
    if engine is not None:
        os.environ[ENGINE_ENV_VAR] = resolve_engine(engine)


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import (
        run_experiment_distance,
        run_experiment_hop_interval,
        run_experiment_payload_size,
        run_experiment_wall,
    )
    from repro.experiments.common import attempts_of, success_rate

    if args.which == "occupancy":
        return _cmd_experiment_occupancy(args)
    if args.which == "defense":
        return _cmd_experiment_defense(args)
    runners = {
        "hop": (run_experiment_hop_interval, "hop interval"),
        "payload": (run_experiment_payload_size, "PDU size (bytes)"),
        "distance": (run_experiment_distance, "position"),
        "wall": (run_experiment_wall, "distance behind wall (m)"),
    }
    runner, column = runners[args.which]
    _apply_engine(args)
    results = runner(base_seed=args.seed, n_connections=args.connections,
                     jobs=args.jobs, cache=args.cache)
    samples = {key: attempts_of(trials) for key, trials in results.items()}
    print(render_distribution_table(
        f"InjectaBLE sensitivity — {args.which} "
        f"({args.connections} connections/config, seed {args.seed})",
        column, samples))
    worst = min(success_rate(trials) for trials in results.values())
    print(f"\nworst-case success rate: {worst:.2f}")
    return 0 if worst == 1.0 else 1


def _cmd_experiment_occupancy(args: argparse.Namespace) -> int:
    """The occupancy sweep reports a success-vs-load curve, not a 100%
    floor — dense-RF worlds are *expected* to defeat some injections, so
    the exit code reflects completion rather than worst-case success."""
    from repro.experiments.dense import (
        run_experiment_occupancy,
        summarize_occupancy,
    )

    _apply_engine(args)
    results = run_experiment_occupancy(
        base_seed=args.seed, n_connections=args.connections,
        jobs=args.jobs, cache=args.cache)
    print(render_series(
        f"InjectaBLE vs. ambient occupancy "
        f"({args.connections} connections/level, seed {args.seed})",
        summarize_occupancy(results)))
    return 0


def _cmd_experiment_defense(args: argparse.Namespace) -> int:
    """The defense bench prints ROC/AUC and detection-latency rows per
    detector × attack scenario; negatives are the benign and dense-RF
    ambient traffics.  The exit code does not depend on the scores — the
    table itself is the product (some signatures *should* score poorly)."""
    from repro.analysis.reporting import render_roc_table
    from repro.experiments.defense import (
        run_experiment_defense,
        summarize_defense,
    )

    _apply_engine(args)
    results = run_experiment_defense(
        base_seed=args.seed, n_connections=args.connections,
        jobs=args.jobs, cache=args.cache)
    print(render_roc_table(
        f"Defense bench — every detector vs. attack/benign/ambient "
        f"traffic ({args.connections} connections/traffic, seed "
        f"{args.seed})",
        summarize_defense(results)))
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.experiments.scenarios import DEVICES, SCENARIOS

    runner = SCENARIOS[SCENARIO_KEYS[args.which]]
    device_cls = DEVICES[DEVICE_KEYS[args.device]]
    _apply_engine(args)
    ok, attempts = runner(device_cls, args.seed)
    print(render_series(
        f"Scenario {args.which.upper()} vs {args.device}",
        [("outcome", "OK" if ok else "FAILED", f"{attempts} attempt(s)")]))
    return 0 if ok else 1


def _capture_benign_world(args: argparse.Namespace, attach) -> None:
    """The historical capture world: bulb + phone, one write, no attacker."""
    from repro.devices import Lightbulb, Smartphone
    from repro.sim.medium import Medium
    from repro.sim.simulator import Simulator
    from repro.sim.topology import Topology

    sim = Simulator(seed=args.seed)
    topo = Topology()
    topo.place("bulb", 0.0, 0.0)
    topo.place("phone", 2.0, 0.0)
    medium = Medium(sim, topo)
    attach(sim, medium)
    bulb = Lightbulb(sim, medium, "bulb")
    phone = Smartphone(sim, medium, "phone", interval=36)
    bulb.power_on()
    phone.connect_to(bulb.address)
    sim.run(until_us=1_000_000)
    ctrl = bulb.gatt.find_characteristic(0xFF11).value_handle
    phone.gatt.write(ctrl, Lightbulb.power_payload(False))
    sim.run(until_us=args.duration * 1_000_000)


def _cmd_capture(args: argparse.Namespace) -> int:
    from repro.analysis.packets import PacketCapture
    from repro.telemetry.capture import FrameRecorder

    observers: dict = {}

    def attach(sim, medium):
        observers["recorder"] = FrameRecorder(medium)
        if args.format == "text":
            observers["capture"] = PacketCapture(medium)

    if args.scenario:
        from repro.experiments.scenarios import DEVICES, SCENARIOS

        runner = SCENARIOS[SCENARIO_KEYS[args.scenario]]
        ok, attempts = runner(DEVICES[DEVICE_KEYS[args.device]], args.seed,
                              world_hook=attach)
        print(f"scenario {args.scenario.upper()} vs {args.device}: "
              f"{'OK' if ok else 'FAILED'} ({attempts} attempt(s))")
    else:
        _capture_benign_world(args, attach)

    recorder = observers["recorder"]
    if args.format == "text":
        print(observers["capture"].render(limit=args.limit))
        print(f"\n{len(recorder)} frames captured "
              f"(showing up to {args.limit})")
        return 0
    output = args.output or f"capture.{args.format}"
    if args.format == "pcap":
        written = recorder.write_pcap(output)
    else:
        written = recorder.write_jsonl(output)
    print(f"wrote {written} frame(s) to {output} ({args.format})")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import render_metrics_table
    from repro.experiments import (
        run_experiment_defense,
        run_experiment_distance,
        run_experiment_hop_interval,
        run_experiment_occupancy,
        run_experiment_payload_size,
        run_experiment_wall,
    )
    from repro.runner import merge_trial_metrics

    runners = {
        "hop": run_experiment_hop_interval,
        "payload": run_experiment_payload_size,
        "distance": run_experiment_distance,
        "wall": run_experiment_wall,
        "occupancy": run_experiment_occupancy,
        "defense": run_experiment_defense,
    }
    runner = runners[args.which]
    _apply_engine(args)
    # Uncached on purpose: the point is a fresh, instrumented run whose
    # aggregate is reproducible for any --jobs value.
    results = runner(base_seed=args.seed, n_connections=args.connections,
                     jobs=args.jobs, cache=False, collect_metrics=True)
    flat = [trial for trials in results.values() for trial in trials]
    merged = merge_trial_metrics(flat)
    print(render_metrics_table(
        f"Telemetry — {args.which} ({len(flat)} trials, seed {args.seed})",
        merged))
    return 0


def _cmd_crack(args: argparse.Namespace) -> int:
    from repro.core.attacker import Attacker
    from repro.core.cracker import PairingSniffer, SessionCracker
    from repro.devices import Lightbulb, Smartphone
    from repro.sim.medium import Medium
    from repro.sim.simulator import Simulator
    from repro.sim.topology import Topology

    sim = Simulator(seed=args.seed)
    topo = Topology.equilateral_triangle(("bulb", "phone", "attacker"))
    medium = Medium(sim, topo)
    bulb = Lightbulb(sim, medium, "bulb")
    phone = Smartphone(sim, medium, "phone", interval=36)
    attacker = Attacker(sim, medium, "attacker")
    attacker.sniff_new_connections()
    bulb.power_on()
    phone.connect_to(bulb.address)
    sim.run(until_us=1_200_000)
    if not attacker.synchronized:
        print("attacker failed to synchronise", file=sys.stderr)
        return 1
    pairing = PairingSniffer(attacker.connection)
    previous = attacker.sniffer.on_event

    def hook(event):
        previous(event)
        pairing.on_event(event)

    attacker.sniffer.on_event = hook
    phone.host.pair(encrypt=True)
    sim.run(until_us=4_000_000)
    cracker = SessionCracker(pairing, max_pin=args.max_pin)
    ok = cracker.crack()
    rows = [
        ("pairing transcript", "complete" if pairing.transcript.complete
         else "incomplete"),
        ("TK (PIN)", str(cracker.pin) if ok else "not recovered"),
        ("STK", cracker.stk.hex() if cracker.stk else "-"),
        ("LL session key", cracker.session_key.hex()
         if cracker.session_key else "-"),
    ]
    print(render_series("CRACKLE-style passive key recovery", rows))
    return 0 if ok else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import io
    import pstats

    from repro.campaign.registry import (
        expand_axis,
        get_experiment,
        run_unit_trial,
    )

    units = expand_axis(get_experiment(args.which), {},
                        default_seed=args.seed,
                        default_connections=args.connections)
    _apply_engine(args)
    profiler = cProfile.Profile()
    profiler.enable()
    # In this process and uncached on purpose: a pool worker would escape
    # the profiler, and cache hits would hide the simulation cost.
    for _, trial in units:
        run_unit_trial(trial)
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.strip_dirs().sort_stats("cumulative").print_stats(args.top)
    header = (f"repro profile {args.which} — {args.connections} "
              f"connection(s) per configuration, seed {args.seed}, "
              f"top {args.top} by cumulative time")
    report = f"{header}\n{stream.getvalue()}"
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(report)
        print(f"wrote profile report to {args.output}")
    else:
        print(report)
    return 0


def _cmd_doccheck(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.doccheck import check_docs

    report = check_docs(
        paths=[Path(p) for p in args.files] or None,
        root=Path(args.root) if args.root else None,
        budget=not args.no_budget,
        stream=sys.stderr if args.verbose else None,
    )
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.lintkit import (
        default_package_root,
        load_baseline,
        prune_baseline,
        run_lint,
        save_baseline,
    )

    root = Path(args.root) if args.root else default_package_root()

    baseline_path = Path(args.baseline) if args.baseline else None
    if baseline_path is None:
        # Conventional locations: the working directory (running from a
        # checkout) or the repository root above an editable src/ install.
        from repro.lintkit.baseline import BASELINE_FILENAME

        candidates = [
            Path.cwd() / BASELINE_FILENAME,
            default_package_root().parent.parent / BASELINE_FILENAME,
        ]
        for candidate in candidates:
            if candidate.exists():
                baseline_path = candidate
                break

    flow_cache = None
    if args.flow and not args.no_flow_cache:
        from repro.lintkit.flow import default_flow_cache_dir

        flow_cache = Path(args.flow_cache) if args.flow_cache \
            else default_flow_cache_dir()

    baseline = load_baseline(baseline_path) if baseline_path else None
    report = run_lint(root=root, baseline=baseline, flow=args.flow,
                      flow_cache=flow_cache)

    if args.prune_baseline:
        if baseline is None:
            print("error: --prune-baseline needs a baseline file "
                  "(none found; pass --baseline)", file=sys.stderr)
            return 2
        removed = prune_baseline(baseline, report.stale_baseline)
        report.stale_baseline = []
        print(f"pruned {removed} stale baseline entr"
              f"{'y' if removed == 1 else 'ies'} from {baseline.path}")

    if args.write_baseline:
        target = baseline_path or Path.cwd() / "lint-baseline.json"
        merged = report.findings + report.baselined
        save_baseline(target, merged, reason="grandfathered via "
                      "`repro lint --write-baseline`")
        print(f"wrote {len(merged)} baseline entr"
              f"{'y' if len(merged) == 1 else 'ies'} to {target}")
        return 0

    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def _print_json(payload) -> None:
    """Print a machine-readable payload (one canonical JSON document)."""
    import json

    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    """``campaign status``: local journal or remote service, text/json."""
    from repro.campaign import load_state, render_status, status_dict

    if getattr(args, "url", None):
        from repro.campaign.service import fetch_status, follow_status

        if getattr(args, "follow", False):
            return _follow_remote(follow_status(args.url),
                                  as_json=args.format == "json")
        payload = fetch_status(args.url)
        if args.format == "json":
            _print_json(payload)
            return 0
        print(_render_remote_status(payload))
        return 0
    if not args.journal:
        print("campaign error: provide a journal path or --url",
              file=sys.stderr)
        return 2
    state = load_state(args.journal)
    if args.format == "json":
        _print_json(status_dict(state))
    else:
        print(render_status(state))
    return 0


def _render_remote_status(payload: dict) -> str:
    """Text rendering of the service's ``GET /status`` payload."""
    campaign = payload.get("campaign")
    service = payload.get("service", {})
    if not campaign:
        return "campaign service: no campaign loaded"
    rows = [
        ("fingerprint", str(campaign["fingerprint"])[:16]),
        ("axes", ", ".join(campaign["axes"])),
        ("units", str(campaign["total"])),
        ("completed", f"{campaign['done']}/{campaign['total']}"),
        ("ok", str(campaign["ok"])),
        ("failed", str(campaign["failed"])),
        ("pending", str(campaign["pending"])),
        ("in flight", str(service.get("inflight", 0))),
        ("workers seen", str(service.get("workers_seen", 0))),
    ]
    return render_series(f"Campaign {campaign['name']!r} (served)", rows)


def _follow_remote(events, as_json: bool) -> int:
    """Consume a ``/status?follow`` event stream until ``done``."""
    from repro.telemetry.progress import ProgressTracker

    tracker = ProgressTracker(stream=None if as_json else sys.stderr)
    failed = 0
    for event in events:
        if as_json:
            import json

            print(json.dumps(event, sort_keys=True), flush=True)
        kind = event.get("event")
        campaign = event.get("campaign") or {}
        if kind == "status" and campaign:
            tracker.label = f"campaign {campaign['name']!r}"
            tracker.reset(int(campaign["total"]))
            tracker.preload(done=int(campaign["done"]),
                            ok=int(campaign["ok"]),
                            failed=int(campaign["failed"]))
        elif kind == "unit":
            tracker.update(event.get("status", "failed"),
                           cached=bool(event.get("cached")))
        elif kind == "done" and campaign:
            failed = int(campaign["failed"])
            if not as_json:
                print(_render_remote_status(event))
    return 1 if failed else 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    """``campaign report``: local journal or remote service, text/json."""
    from repro.campaign import build_report, load_state, report_dict

    if getattr(args, "url", None):
        from repro.campaign.service import fetch_report

        if args.format == "json":
            _print_json(fetch_report(args.url, as_json=True))
        else:
            print(fetch_report(args.url), end="")
        return 0
    if not args.journal:
        print("campaign error: provide a journal path or --url",
              file=sys.stderr)
        return 2
    state = load_state(args.journal)
    if args.format == "json":
        _print_json(report_dict(state))
    else:
        print(build_report(state))
    return 0


def _cmd_campaign_worker(args: argparse.Namespace) -> int:
    """``campaign worker``: work a coordinator until its campaign drains."""
    from repro.campaign.service import parse_endpoint, run_worker

    host, port = parse_endpoint(args.connect)
    return run_worker(host, port, worker_id=args.id,
                      oneshot=not args.forever,
                      reconnect_s=args.reconnect_s)


def _cmd_campaign_submit(args: argparse.Namespace) -> int:
    """``campaign submit``: POST a spec to a running service."""
    from repro.campaign import CampaignSpec
    from repro.campaign.service import submit_campaign

    spec = CampaignSpec.load(args.spec)
    accepted = submit_campaign(args.url, spec.to_dict(),
                               journal=args.journal)
    print(render_series(f"Campaign {accepted['name']!r} submitted", [
        ("fingerprint", str(accepted["fingerprint"])[:16]),
        ("journal", str(accepted["journal"])),
        ("units", str(accepted["total"])),
        ("pending", str(accepted["pending"])),
    ]))
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.campaign import (
        CampaignSpec,
        load_state,
        parse_shard,
        render_status,
        run_campaign,
    )
    from repro.errors import ReproError
    from repro.telemetry.progress import ProgressTracker

    try:
        if args.action == "status":
            return _cmd_campaign_status(args)
        if args.action == "report":
            return _cmd_campaign_report(args)
        if args.action == "worker":
            return _cmd_campaign_worker(args)
        if args.action == "submit":
            return _cmd_campaign_submit(args)
        if args.action == "run":
            spec = CampaignSpec.load(args.spec)
            journal = Path(args.journal)
        else:  # resume: the journal header carries the spec
            journal = Path(args.journal)
            spec = load_state(journal).spec
        tracker = ProgressTracker(stream=sys.stderr,
                                  label=f"campaign {spec.name!r}",
                                  every=args.progress_every)
        state = run_campaign(
            spec, journal,
            jobs=args.jobs,
            shard=parse_shard(args.shard),
            cache=args.cache,
            max_trials=args.max_trials,
            progress=tracker,
            fsync=args.fsync,
        )
        print(render_status(state))
        if state.pending:
            print(f"{len(state.pending)} unit(s) still pending — continue "
                  f"with: repro campaign resume {journal}")
        return 1 if state.failed_count else 0
    except ReproError as exc:
        print(f"campaign error: {exc}", file=sys.stderr)
        return 2


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: coordinator + HTTP API + managed local workers."""
    from pathlib import Path

    from repro.campaign import CampaignSpec, load_state, render_status
    from repro.campaign.service import serve_campaign
    from repro.errors import ReproError
    from repro.telemetry.progress import ProgressTracker

    journal = Path(args.journal)
    try:
        spec = CampaignSpec.load(args.spec) if args.spec else None
        if spec is None and not journal.exists():
            print("campaign error: no spec given and no journal to resume "
                  f"at {journal}", file=sys.stderr)
            return 2
        tracker = ProgressTracker(stream=sys.stderr, label="served",
                                  every=args.progress_every)

        def on_event(event: dict) -> None:
            kind = event.get("event")
            campaign = event.get("campaign") or {}
            if kind == "status" and campaign:
                tracker.label = f"campaign {campaign['name']!r} (served)"
                tracker.reset(int(campaign["total"]))
                tracker.preload(done=int(campaign["done"]),
                                ok=int(campaign["ok"]),
                                failed=int(campaign["failed"]))
            elif kind == "unit":
                tracker.update(event.get("status", "failed"),
                               cached=bool(event.get("cached")))

        def on_listening(port: int) -> None:
            print(f"campaign service listening on "
                  f"http://{args.host}:{port}", file=sys.stderr,
                  flush=True)

        state = serve_campaign(
            spec, journal,
            workers=args.workers,
            host=args.host,
            port=args.port,
            lease_timeout_s=args.lease_timeout,
            steal_after_s=args.steal_after,
            fsync=args.fsync,
            keep_alive=args.keep_alive,
            on_event=on_event,
            on_listening=on_listening,
        )
        print(render_status(state))
        return 1 if state.failed_count else 0
    except KeyboardInterrupt:
        print("campaign service interrupted", file=sys.stderr)
        return 130
    except ReproError as exc:
        print(f"campaign error: {exc}", file=sys.stderr)
        return 2


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.runner import ResultCache

    cache = ResultCache()
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached trial result(s) from {cache.root}")
    else:
        print(render_series("Trial-result cache", [
            ("location", str(cache.root)),
            ("entries", str(len(cache))),
            # The result-relevant source hash keying every entry: edits to
            # sim/ll/phy/... change it; lintkit/analysis/CLI edits do not.
            ("code token", cache.token[:16]),
        ]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="InjectaBLE reproduction: experiments, scenarios, "
                    "captures and key cracking over the simulated radio.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _engine_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--engine", choices=("fast", "reference"),
                       default=None,
                       help="simulation engine: 'fast' batches quiet "
                            "connection events analytically, 'reference' "
                            "runs event by event (default: $REPRO_ENGINE "
                            "or fast; results are identical)")

    experiment = sub.add_parser("experiment",
                                help="run a Figure 9 sensitivity sweep")
    experiment.add_argument("which",
                            choices=("hop", "payload", "distance", "wall",
                                     "occupancy", "defense"))
    experiment.add_argument("--connections", type=int, default=10)
    experiment.add_argument("--seed", type=int, default=1)
    experiment.add_argument("--jobs", type=int, default=None,
                            help="worker processes (default: $REPRO_JOBS or "
                                 "1; 0 = all cores)")
    experiment.add_argument("--cache", action="store_true",
                            help="reuse/store trial results in the on-disk "
                                 "cache")
    _engine_arg(experiment)
    experiment.set_defaults(func=_cmd_experiment)

    scenario = sub.add_parser("scenario", help="run one attack scenario")
    scenario.add_argument("which", choices=("a", "b", "c", "d"))
    scenario.add_argument("--device", choices=("bulb", "keyfob", "watch"),
                          default="bulb")
    scenario.add_argument("--seed", type=int, default=1000)
    _engine_arg(scenario)
    scenario.set_defaults(func=_cmd_scenario)

    capture = sub.add_parser("capture",
                             help="dissect or export simulated air traffic")
    capture.add_argument("--seed", type=int, default=7)
    capture.add_argument("--duration", type=float, default=2.0,
                         help="simulated seconds (benign world only)")
    capture.add_argument("--limit", type=int, default=80,
                         help="max packets to print (text format)")
    capture.add_argument("--format", choices=("text", "jsonl", "pcap"),
                         default="text",
                         help="text dissection, JSONL frame log, or "
                              "Wireshark-compatible Nordic BLE pcap")
    capture.add_argument("--output", default=None,
                         help="destination file for jsonl/pcap "
                              "(default: capture.<format>)")
    capture.add_argument("--scenario", choices=("a", "b", "c", "d"),
                         default=None,
                         help="capture an attack scenario run instead of "
                              "the benign bulb+phone world")
    capture.add_argument("--device", choices=("bulb", "keyfob", "watch"),
                         default="bulb",
                         help="victim device for --scenario captures")
    capture.set_defaults(func=_cmd_capture)

    metrics = sub.add_parser(
        "metrics",
        help="run an instrumented sweep and print merged telemetry")
    metrics.add_argument("which",
                         choices=("hop", "payload", "distance", "wall",
                                  "occupancy", "defense"))
    metrics.add_argument("--connections", type=int, default=5)
    metrics.add_argument("--seed", type=int, default=1)
    metrics.add_argument("--jobs", type=int, default=None,
                         help="worker processes (default: $REPRO_JOBS or 1; "
                              "0 = all cores); the aggregate is identical "
                              "for any value")
    _engine_arg(metrics)
    metrics.set_defaults(func=_cmd_metrics)

    crack = sub.add_parser("crack",
                           help="sniff a pairing and recover the keys")
    crack.add_argument("--seed", type=int, default=90)
    crack.add_argument("--max-pin", type=int, default=0,
                       help="brute-force bound (0 = Just Works only)")
    crack.set_defaults(func=_cmd_crack)

    profile = sub.add_parser(
        "profile",
        help="profile a reduced experiment sweep under cProfile")
    profile.add_argument("which",
                         choices=("hop", "payload", "distance", "wall",
                                  "occupancy", "defense"))
    profile.add_argument("--connections", type=int, default=2,
                         help="connections per configuration (reduced "
                              "workload default: 2)")
    profile.add_argument("--seed", type=int, default=1)
    profile.add_argument("--top", type=int, default=20,
                         help="entries to print, sorted by cumulative time")
    profile.add_argument("--output", default=None,
                         help="write the report to this file instead of "
                              "stdout")
    _engine_arg(profile)
    profile.set_defaults(func=_cmd_profile)

    campaign = sub.add_parser(
        "campaign",
        help="declare, run, resume and report sharded experiment sweeps")
    campaign_sub = campaign.add_subparsers(dest="action", required=True)

    def _campaign_exec_args(p: argparse.ArgumentParser,
                            journal_option: bool = True) -> None:
        if journal_option:
            p.add_argument("--journal", default="campaign.jsonl",
                           help="append-only checkpoint file "
                                "(default: campaign.jsonl)")
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: $REPRO_JOBS or 1; "
                            "0 = all cores)")
        p.add_argument("--shard", default="0/1",
                       help="run shard i of n ('i/n', default 0/1); shards "
                            "partition the grid exactly")
        p.add_argument("--max-trials", type=int, default=None,
                       help="budget: at most N fresh units this invocation "
                            "(the rest stay pending for resume)")
        p.add_argument("--cache", action="store_true",
                       help="reuse/store trial results in the on-disk cache")
        p.add_argument("--fsync", action="store_true",
                       help="fsync the journal after every record (survives "
                            "power loss, not just process death)")
        p.add_argument("--progress-every", type=int, default=1,
                       help="print a progress line every N completed units")

    campaign_run = campaign_sub.add_parser(
        "run", help="start (or continue) a campaign from a JSON spec")
    campaign_run.add_argument("spec", help="campaign spec file (JSON)")
    _campaign_exec_args(campaign_run)
    campaign_run.set_defaults(func=_cmd_campaign)

    campaign_resume = campaign_sub.add_parser(
        "resume", help="continue an interrupted campaign from its journal")
    campaign_resume.add_argument("journal",
                                 help="journal written by 'campaign run'")
    _campaign_exec_args(campaign_resume, journal_option=False)
    campaign_resume.set_defaults(func=_cmd_campaign)

    campaign_status = campaign_sub.add_parser(
        "status", help="summarise a campaign journal or a running service")
    campaign_status.add_argument("journal", nargs="?", default=None,
                                 help="journal file (omit with --url)")
    campaign_status.add_argument("--url", default=None,
                                 help="query a running campaign service "
                                      "(http://HOST:PORT) instead of a "
                                      "journal file")
    campaign_status.add_argument("--follow", action="store_true",
                                 help="with --url: stream per-unit events "
                                      "until the campaign drains")
    campaign_status.add_argument("--format", choices=("text", "json"),
                                 default="text")
    campaign_status.set_defaults(func=_cmd_campaign)

    campaign_report = campaign_sub.add_parser(
        "report", help="render the full campaign report from a journal "
                       "or a running service")
    campaign_report.add_argument("journal", nargs="?", default=None,
                                 help="journal file (omit with --url)")
    campaign_report.add_argument("--url", default=None,
                                 help="fetch the report from a running "
                                      "campaign service (http://HOST:PORT)")
    campaign_report.add_argument("--format", choices=("text", "json"),
                                 default="text")
    campaign_report.set_defaults(func=_cmd_campaign)

    campaign_worker = campaign_sub.add_parser(
        "worker", help="join a campaign service as a worker process")
    campaign_worker.add_argument("--connect", required=True,
                                 metavar="HOST:PORT",
                                 help="coordinator address")
    campaign_worker.add_argument("--id", default=None,
                                 help="stable worker identity "
                                      "(default: worker-<pid>)")
    campaign_worker.add_argument("--reconnect-s", type=float, default=30.0,
                                 help="give up after this many seconds of "
                                      "consecutive unreachable-coordinator "
                                      "time (default: 30)")
    campaign_worker.add_argument("--forever", action="store_true",
                                 help="keep serving future campaigns "
                                      "instead of exiting when the current "
                                      "one drains")
    campaign_worker.set_defaults(func=_cmd_campaign)

    campaign_submit = campaign_sub.add_parser(
        "submit", help="POST a campaign spec to a running service")
    campaign_submit.add_argument("spec", help="campaign spec file (JSON)")
    campaign_submit.add_argument("--url", required=True,
                                 help="campaign service (http://HOST:PORT)")
    campaign_submit.add_argument("--journal", default=None,
                                 help="journal path on the service host "
                                      "(default: <name>.journal.jsonl)")
    campaign_submit.set_defaults(func=_cmd_campaign)

    serve = sub.add_parser(
        "serve",
        help="serve a campaign over TCP: coordinator, HTTP API and a "
             "managed local worker fleet")
    serve.add_argument("spec", nargs="?", default=None,
                       help="campaign spec file (omit to resume the "
                            "campaign recorded in --journal)")
    serve.add_argument("--journal", default="campaign.jsonl",
                       help="append-only checkpoint file "
                            "(default: campaign.jsonl)")
    serve.add_argument("--workers", type=int, default=2,
                       help="managed local worker processes (0 = rely on "
                            "external 'repro campaign worker' processes)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default: 0 = ephemeral; the bound "
                            "port is printed on stderr)")
    serve.add_argument("--lease-timeout", type=float, default=60.0,
                       help="seconds before an unreported lease is "
                            "re-queued (default: 60)")
    serve.add_argument("--steal-after", type=float, default=2.0,
                       help="lease age before idle workers may steal it "
                            "(default: 2)")
    serve.add_argument("--fsync", action="store_true",
                       help="fsync the journal after every record")
    serve.add_argument("--keep-alive", action="store_true",
                       help="keep serving (and accepting submissions) "
                            "after the campaign drains")
    serve.add_argument("--progress-every", type=int, default=1,
                       help="print a progress line every N completed units")
    serve.set_defaults(func=_cmd_serve)

    cache = sub.add_parser("cache",
                           help="manage the on-disk trial-result cache")
    cache.add_argument("action", choices=("info", "clear"))
    cache.set_defaults(func=_cmd_cache)

    doccheck = sub.add_parser(
        "doccheck",
        help="smoke-run every repro command documented in the markdown "
             "docs and fail on drift")
    doccheck.add_argument("files", nargs="*",
                          help="markdown files to check (default: README.md "
                               "and EXPERIMENTS.md at the repo root)")
    doccheck.add_argument("--root", default=None,
                          help="documentation root for resolving example "
                               "paths (default: auto-detected)")
    doccheck.add_argument("--format", choices=("text", "json"),
                          default="text")
    doccheck.add_argument("--no-budget", action="store_true",
                          help="run documented commands verbatim instead of "
                               "with reduced smoke budgets")
    doccheck.add_argument("--verbose", action="store_true",
                          help="stream per-command progress to stderr")
    doccheck.set_defaults(func=_cmd_doccheck)

    lint = sub.add_parser(
        "lint",
        help="run the project's determinism/invariant static analysis")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="report format (json includes baselined and "
                           "inline-waived findings)")
    lint.add_argument("--baseline", default=None,
                      help="baseline file of grandfathered findings "
                           "(default: lint-baseline.json in the working "
                           "directory or the repository root)")
    lint.add_argument("--root", default=None,
                      help="directory tree to lint (default: the installed "
                           "repro package)")
    lint.add_argument("--write-baseline", action="store_true",
                      help="grandfather every current finding into the "
                           "baseline file instead of failing on them")
    lint.add_argument("--flow", dest="flow", action="store_true",
                      default=True,
                      help="run the flow-aware checkers over the project "
                           "call graph (default)")
    lint.add_argument("--no-flow", dest="flow", action="store_false",
                      help="skip call-graph construction and the "
                           "flow-aware checkers")
    lint.add_argument("--flow-cache", default=None,
                      help="directory for the call-graph cache (default: "
                           "the repro cache dir; keyed by a source-tree "
                           "hash)")
    lint.add_argument("--no-flow-cache", action="store_true",
                      help="always rebuild the call graph")
    lint.add_argument("--prune-baseline", action="store_true",
                      help="drop stale fingerprints from the baseline "
                           "file instead of only reporting them")
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
