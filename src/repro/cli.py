"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``exercise``
    Run the full Red Team exercise and print Table 1.
``attack DEFECT``
    Drive one exploit (e.g. ``attack gc-collect``) and print the
    ClearView event log and maintainer report.
``learn``
    Run the learning suite and print invariant statistics.
``analyze``
    Static dataflow report over a learned application image: per-
    procedure CFG shape, natural loops, stack-discipline summaries and
    write regions, plus the pre-deployment vet lint (``--vet`` exits
    nonzero on any finding — the CI fleet-lint gate).
``community``
    Stand up an application community (in-process, process-sharded, or
    socket members with optional TLS), learn distributed, drive one
    exploit, and report immunity and wire accounting.  ``--snapshot
    FILE`` warm-starts every member from a persistent cache snapshot
    (creating it first if absent).  ``--transport socket`` runs members
    over the multi-host wire protocol; add ``--listen HOST:PORT`` to
    wait for externally launched members instead of spawning loopback
    workers, and start those members elsewhere with ``community
    --connect HOST:PORT [--name NAME]``.  ``--tls-cert``/``--tls-key``
    wrap every member channel in TLS (the paper's SSL channel); members
    pin the server certificate via ``--tls-ca``.  Lifecycle knobs:
    ``--heartbeat-interval`` pings members idle that long at each wave
    edge, so one wedged between commands is evicted before work goes
    to it; ``--min-members`` sets the quorum floor; and
    ``--reconnect`` (member side) re-dials a lost manager with
    exponential backoff; its hello lists the patches it holds, so it
    catches up on exactly what changed while it was away.
``snapshot``
    Save or inspect a persistent code-cache snapshot (§4.4.5
    save/restore): ``snapshot save cache.json`` warms the WebBrowse
    cache over the evaluation workload and writes it; ``snapshot info
    cache.json`` prints its metadata and compatibility.
``list``
    List the defect roster.
"""

from __future__ import annotations

import argparse
import sys

from repro.apps import red_team_roster
from repro.core import report_all
from repro.redteam import RedTeamExercise, all_exploits, exploit


def _cmd_list(_args) -> int:
    print(f"{'defect':14s} {'bugzilla':9s} {'error type':28s} "
          f"{'expected':9s} notes")
    for defect in red_team_roster():
        notes = []
        if defect.needs_heap_guard:
            notes.append("heap-guard")
        if defect.needs_stack_procedures > 1:
            notes.append(f"stack>={defect.needs_stack_procedures}")
        if defect.needs_expanded_learning:
            notes.append("expanded-learning")
        if not defect.patchable:
            notes.append("unpatchable")
        expected = defect.expected_presentations or "-"
        print(f"{defect.defect_id:14s} {defect.bugzilla:9s} "
              f"{defect.error_type:28s} {str(expected):9s} "
              f"{', '.join(notes)}")
    return 0


def _cmd_learn(args) -> int:
    exercise = RedTeamExercise(expanded_learning=args.expanded)
    result = exercise.prepare()
    database = result.database
    print(f"pages:        "
          f"{len(result.runs)} ({result.excluded_runs} excluded)")
    print(f"observations: {result.observations}")
    print(f"procedures:   {len(result.procedures.procedures)}")
    print(f"invariants:   {len(database)}")
    for kind, count in sorted(database.counts_by_kind().items()):
        print(f"  {kind:12s} {count}")
    return 0


def _cmd_analyze(args) -> int:
    """Static dataflow report: CFG shape, loops, write regions, and the
    pre-deployment vet lint over a learned application image."""
    import json

    from repro.analysis import Vetter, compute_summaries, write_regions
    from repro.analysis.constprop import ProcedureAnalysis
    from repro.analysis.dataflow import intraprocedural_edges
    from repro.cfg.dominators import natural_loops
    from repro.learning import learn

    if args.app == "mailserver":
        from repro.apps.mailserver import build_mailserver, normal_messages
        binary, workload = build_mailserver(), normal_messages()
    else:
        from repro.apps import build_browser, learning_pages
        binary, workload = build_browser(), learning_pages()

    stripped = binary.stripped()
    learned = learn(stripped, workload)
    procedures = learned.procedures
    vetter = Vetter(stripped, procedures)
    summaries = compute_summaries(procedures.procedures)

    report = {"app": args.app, "procedures": []}
    for entry in procedures.entries():
        cfg = procedures.procedures[entry]
        analysis = ProcedureAnalysis(cfg, summaries)
        regions = write_regions(analysis)
        loops = natural_loops(entry, intraprocedural_edges(cfg))
        summary = summaries[entry]
        report["procedures"].append({
            "entry": entry,
            "blocks": len(cfg.blocks),
            "loops": sorted(loops),
            "balanced": summary.balanced,
            "preserves_ebp": summary.preserves_ebp,
            "writes": regions.to_dict(),
        })
    vet = vetter.vet_binary()
    report["vet"] = vet.to_dict()

    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"app:        {args.app}")
        print(f"procedures: {len(report['procedures'])}")
        for proc in report["procedures"]:
            loops = (f" loops@{','.join(hex(h) for h in proc['loops'])}"
                     if proc["loops"] else "")
            writes = proc["writes"]
            spans = len(writes["exact_addresses"])
            flags = "".join(flag for flag, on in (
                ("s", writes["writes_stack"]),
                ("h", writes["writes_heap"]),
                ("?", writes["writes_unknown"])) if on)
            print(f"  {proc['entry']:#8x}: {proc['blocks']:3d} blocks, "
                  f"{'balanced' if proc['balanced'] else 'unbalanced'}"
                  f", writes[{spans} exact {flags or '-'}]{loops}")
        verdict = "clean" if vet.accepted else \
            f"{len(vet.findings)} finding(s)"
        print(f"vet:        {verdict}")
        for finding in vet.findings:
            print(f"  {finding.rule} @ {finding.pc:#x}: {finding.detail}")
    if args.vet and not vet.accepted:
        return 1
    return 0


def _cmd_attack(args) -> int:
    try:
        item = exploit(args.defect)
    except KeyError:
        print(f"unknown defect {args.defect!r}; try: "
              + ", ".join(sorted(d.defect_id for d in red_team_roster())),
              file=sys.stderr)
        return 2
    exercise = RedTeamExercise(
        expanded_learning=item.defect.needs_expanded_learning,
        stack_procedures=item.defect.needs_stack_procedures)
    exercise.prepare()
    result = exercise.attack(item, max_presentations=args.presentations)
    print(f"presentations: {result.presentations}")
    print(f"patched at:    {result.survived_at or '-'}")
    print(f"all blocked:   {result.all_blocked}")
    print("\nevents:")
    for event in result.clearview.events:
        print(f"  {event}")
    print("\nmaintainer report:")
    for report in report_all(result.clearview):
        print(report.format())
    return 0


def _warm_snapshot(path: str, binary, pages: list[bytes]) -> None:
    """Create the §4.4.5 snapshot at *path* by warming a scout
    environment over *pages* (no-op when the file already exists)."""
    import os

    from repro.dynamo import (
        EnvironmentConfig,
        ManagedEnvironment,
        save_snapshot,
    )

    if os.path.exists(path):
        return
    config = EnvironmentConfig.full()
    config.reuse_cache = True
    scout = ManagedEnvironment(binary, config)
    for page in pages:
        scout.run(page)
    size = save_snapshot(path, scout.last_code_cache)
    print(f"snapshot:          wrote {path} ({size} bytes, "
          f"{scout.last_code_cache.cached_block_count} blocks)")


def _parse_endpoint(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise SystemExit(f"bad endpoint {value!r}; expected HOST:PORT")


def _cmd_member(args) -> int:
    """``community --connect``: run one member against a remote manager."""
    import os

    from repro.apps import build_browser
    from repro.community import run_member
    from repro.dynamo import EnvironmentConfig
    from repro.errors import CommunityError

    host, port = _parse_endpoint(args.connect)
    name = args.name or f"member-{os.getpid()}"
    config = None
    if args.snapshot:
        config = EnvironmentConfig.full()
        config.load_snapshot = args.snapshot
    binary = build_browser().stripped()
    print(f"member {name}: connecting to {host}:{port}"
          f"{' (TLS)' if args.tls_ca else ''} ...")
    try:
        run_member(host, port, name, binary, config, cafile=args.tls_ca,
                   reconnect=args.reconnect)
    except CommunityError as error:
        print(f"member {name}: {error}", file=sys.stderr)
        return 1
    print(f"member {name}: shut down by the manager")
    return 0


def _cmd_community(args) -> int:
    from repro.apps import build_browser, learning_pages
    from repro.community import CommunityManager, SocketTransport
    from repro.dynamo import EnvironmentConfig, Outcome

    if args.connect:
        return _cmd_member(args)
    try:
        item = exploit(args.defect)
    except KeyError:
        print(f"unknown defect {args.defect!r}; try: "
              + ", ".join(sorted(d.defect_id for d in red_team_roster())),
              file=sys.stderr)
        return 2
    pages = learning_pages()
    binary = build_browser()
    config = None
    if args.snapshot:
        _warm_snapshot(args.snapshot, binary.stripped(), pages)
        config = EnvironmentConfig.full()
        config.load_snapshot = args.snapshot
        print(f"snapshot:          members warm-start from "
              f"{args.snapshot}")
    transport = args.transport
    if args.heartbeat_interval is not None and \
            args.transport == "in-process":
        print("--heartbeat-interval requires --transport process or "
              "socket", file=sys.stderr)
        return 2
    if args.listen or args.tls_cert:
        if args.transport != "socket":
            print("--listen/--tls-cert require --transport socket",
                  file=sys.stderr)
            return 2
        options = {"certfile": args.tls_cert, "keyfile": args.tls_key,
                   "heartbeat_interval": args.heartbeat_interval}
        if args.listen:
            host, port = _parse_endpoint(args.listen)
            transport = SocketTransport(host=host, port=port,
                                        accept_external=True,
                                        spawn_timeout=args.join_timeout,
                                        **options)
        else:
            transport = SocketTransport(**options)
        bound = transport.listen()
        print(f"listening:         {bound[0]}:{bound[1]}"
              f"{' (TLS)' if args.tls_cert else ''}"
              + (f" — waiting up to {args.join_timeout:.0f}s for "
                 f"{args.members} members (community --connect)"
                 if args.listen else ""))
    manager_options = {"min_members": args.min_members}
    if isinstance(transport, str) and args.heartbeat_interval is not None:
        # Transport instances (listen/TLS modes) got the interval at
        # construction above; string transports take it via the manager.
        manager_options["heartbeat_interval"] = args.heartbeat_interval
    try:
        with CommunityManager(binary, members=args.members, config=config,
                              transport=transport,
                              **manager_options) as manager:
            report = manager.learn_distributed(pages,
                                               strategy=args.strategy)
            print(f"transport:        {args.transport} "
                  f"({args.members} members)")
            print(f"merged invariants: {len(report.database)}")
            print(f"max member load:   "
                  f"{max(report.per_node_observations)} observations "
                  f"(full: {report.full_observations})")
            print(f"upload bytes:      {report.upload_bytes} "
                  f"(invariants only, never traces)")
            manager.protect()
            presentations = 0
            outcome = None
            for _ in range(args.presentations):
                presentations += 1
                outcome = manager.attack(item.page()).outcome
                if outcome is Outcome.COMPLETED:
                    break
            immune = manager.immune_members(item.page())
            alive = len(manager.environment.alive_members())
            print(f"presentations:     {presentations} "
                  f"(last outcome: {outcome.value if outcome else '-'})")
            print(f"immune members:    {immune}/{alive}")
            for dropped in manager.dropped_members:
                print(f"dropped member:    {dropped.name} "
                      f"({dropped.reason} during {dropped.op})")
            status = manager.community_status()
            if status["degraded"]:
                print(f"community status:  DEGRADED — {status['alive']}/"
                      f"{status['total']} members alive "
                      f"(quorum {'held' if status['quorum'] else 'LOST'}"
                      f", min {status['min_members']})")
            health = status["patch_health"]
            print(f"patch health:      {health['watched']} watched, "
                  f"{health['bad']} bad, {health['toxic']} toxic, "
                  f"{health['blacklisted']} blacklisted, "
                  f"{health['revocations']} revocation(s)")
            for record in health["records"]:
                if record["status"] == "healthy":
                    continue
                print(f"  [{record['status']:11s}] {record['key']} — "
                      f"{record['revocations']} revocation(s), "
                      f"{record['member_kills']} member kill(s)")
            if status["revived"]:
                print(f"revived members:   "
                      + ", ".join(status["revived"]))
            print("wire bytes by kind:")
            for kind, total in \
                    sorted(manager.bus.bytes_by_kind().items()):
                print(f"  {kind:24s} {total}")
            print(f"channel bytes:     {manager.bus.wire_bytes_total()} "
                  f"(frames on the wire, length prefixes included)")
            return 0 if (outcome is Outcome.COMPLETED and immune == alive) \
                else 1
    finally:
        # Transports the CLI constructed itself (listen/TLS modes) are
        # caller-owned: the manager will not close them.
        if not isinstance(transport, str):
            transport.close()


def _cmd_snapshot(args) -> int:
    from repro.apps import build_browser, evaluation_pages
    from repro.dynamo import (
        EnvironmentConfig,
        ManagedEnvironment,
        save_snapshot,
    )
    from repro.dynamo.snapshot import read_snapshot, snapshot_from_dict
    from repro.errors import SnapshotError

    binary = build_browser().stripped()
    if args.action == "save":
        config = EnvironmentConfig.full()
        config.reuse_cache = True
        environment = ManagedEnvironment(binary, config)
        for page in evaluation_pages():
            environment.run(page)
        cache = environment.last_code_cache
        size = save_snapshot(args.file, cache)
        print(f"wrote {args.file}: {size} bytes, "
              f"{cache.cached_block_count} cached blocks")
        return 0
    try:
        payload = read_snapshot(args.file)
    except SnapshotError as error:
        print(f"unreadable snapshot: {error}", file=sys.stderr)
        return 1
    print(f"schema:      {payload.get('schema')}")
    print(f"engine:      {payload.get('engine')}")
    print(f"binary:      {str(payload.get('binary'))[:16]}…")
    print(f"reached:     {len(payload.get('reached', []))} block starts")
    print(f"trace paths: "
          f"{sum(1 for p in payload.get('trace_paths', {}).values() if p)}")
    try:
        snapshot_from_dict(payload, binary)
    except SnapshotError as error:
        print(f"compatible:  no ({error})")
        return 1
    print("compatible:  yes (current WebBrowse build)")
    return 0


def _cmd_exercise(args) -> int:
    exercise = RedTeamExercise()
    exercise.prepare()
    print(f"{'bugzilla':9s} {'defect':14s} {'presentations':14s} outcome")
    failures = 0
    for item in all_exploits():
        per_defect = exercise._for_defect(item)
        result = per_defect.attack(item,
                                   max_presentations=args.presentations)
        expected = item.defect.expected_presentations
        ok = result.survived_at == expected
        if not ok:
            failures += 1
        outcome = "patched" if result.patched else "blocked"
        marker = "" if ok else "  << expected "f"{expected}"
        print(f"{item.bugzilla:9s} {item.defect_id:14s} "
              f"{str(result.survived_at or '-'):14s} {outcome}{marker}")
    sessions, comparison = exercise.false_positive_test()
    print(f"\nfalse positives: {sessions}; displays identical: "
          f"{comparison.identical}/{comparison.pages}")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ClearView reproduction (SOSP 2009) command line")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list the defect roster") \
        .set_defaults(handler=_cmd_list)

    learn_parser = commands.add_parser(
        "learn", help="run the learning suite, print statistics")
    learn_parser.add_argument("--expanded", action="store_true",
                              help="use the expanded learning suite")
    learn_parser.set_defaults(handler=_cmd_learn)

    analyze_parser = commands.add_parser(
        "analyze",
        help="static dataflow report and pre-deployment vet lint")
    analyze_parser.add_argument(
        "--app", choices=("browser", "mailserver"), default="browser",
        help="application image to analyze (default browser)")
    analyze_parser.add_argument(
        "--vet", action="store_true",
        help="exit nonzero if the vet lint reports any finding")
    analyze_parser.add_argument(
        "--json", action="store_true",
        help="emit the full report as JSON")
    analyze_parser.set_defaults(handler=_cmd_analyze)

    attack_parser = commands.add_parser(
        "attack", help="drive one exploit against protected WebBrowse")
    attack_parser.add_argument("defect", help="defect id, e.g. gc-collect")
    attack_parser.add_argument("--presentations", type=int, default=20)
    attack_parser.set_defaults(handler=_cmd_attack)

    exercise_parser = commands.add_parser(
        "exercise", help="run the full Red Team exercise (Table 1)")
    exercise_parser.add_argument("--presentations", type=int, default=20)
    exercise_parser.set_defaults(handler=_cmd_exercise)

    community_parser = commands.add_parser(
        "community",
        help="drive an application community (§3) against one exploit")
    community_parser.add_argument("defect", nargs="?", default="gc-collect",
                                  help="defect id (default gc-collect)")
    community_parser.add_argument(
        "--members", type=int, default=8,
        help="community size (default 8)")
    community_parser.add_argument(
        "--transport", choices=("in-process", "process", "socket"),
        default="in-process",
        help="member substrate: in this process over loopback "
             "channels, one OS process per member over a socketpair, or "
             "socket members speaking the multi-host wire protocol")
    community_parser.add_argument(
        "--listen", metavar="HOST:PORT", default=None,
        help="with --transport socket: wait for externally launched "
             "members (community --connect) instead of spawning "
             "loopback workers")
    community_parser.add_argument(
        "--connect", metavar="HOST:PORT", default=None,
        help="run as one community member: connect to a listening "
             "manager and serve commands until shut down")
    community_parser.add_argument(
        "--name", default=None,
        help="member name announced to the manager (with --connect)")
    community_parser.add_argument(
        "--reconnect", type=int, default=0, metavar="N",
        help="with --connect: re-dial a lost manager connection up to "
             "N times (exponential backoff); the rejoin hello lists the "
             "patches this member holds, so only what changed while it "
             "was away is sent")
    community_parser.add_argument(
        "--heartbeat-interval", type=float, default=None, metavar="SECS",
        help="at each wave edge, ping members idle for at least this "
             "long, so a member wedged between commands is evicted "
             "before work goes to it (process/socket transports)")
    community_parser.add_argument(
        "--min-members", type=int, default=1, metavar="N",
        help="quorum floor: abort the episode once fewer than N "
             "members are alive instead of degrading further "
             "(default 1)")
    community_parser.add_argument(
        "--join-timeout", type=float, default=120.0,
        help="with --listen: seconds to wait for members to dial in")
    community_parser.add_argument(
        "--tls-cert", metavar="FILE", default=None,
        help="server certificate: wrap every member channel in TLS "
             "(the paper's Node Manager SSL channel)")
    community_parser.add_argument(
        "--tls-key", metavar="FILE", default=None,
        help="private key for --tls-cert")
    community_parser.add_argument(
        "--tls-ca", metavar="FILE", default=None,
        help="with --connect: trust root (the server certificate) to "
             "verify the manager against")
    community_parser.add_argument(
        "--strategy", choices=("round-robin", "random", "overlapping"),
        default="round-robin",
        help="procedure-shard assignment strategy (§3.1)")
    community_parser.add_argument(
        "--snapshot", metavar="FILE", default=None,
        help="persistent cache snapshot members warm-start from "
             "(created by warming a scout environment if absent)")
    community_parser.add_argument("--presentations", type=int, default=10)
    community_parser.set_defaults(handler=_cmd_community)

    snapshot_parser = commands.add_parser(
        "snapshot",
        help="save or inspect a persistent code-cache snapshot (§4.4.5)")
    snapshot_parser.add_argument("action", choices=("save", "info"),
                                 help="save: warm the WebBrowse cache "
                                      "and write it; info: print "
                                      "snapshot metadata")
    snapshot_parser.add_argument("file", help="snapshot path")
    snapshot_parser.set_defaults(handler=_cmd_snapshot)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
