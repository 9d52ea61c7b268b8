"""
Command-line entry point.

    dvahunter scan --targets t.txt --providers db.json --mode all \
        --backend mock --scenario world.json --out report.json
    dvahunter diff prev.json next.json
    dvahunter validate-db db.json
    dvahunter validate-scenario world.json --providers db.json

Exit codes: 0 clean, 1 findings present, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from importlib import resources
from pathlib import Path

from .providers import load_provider_db
from .report import ScanReport, diff_reports
from .scan import MODES, ConfigError, ScanConfig, check_output_path, run_scan
from .simnet import load_scenario, validate_scenario
from .transport import Backend

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_CONFIG = 2


def default_data(name: str) -> Path:
    return Path(resources.files("dvahunter").joinpath("data", name))  # type: ignore[arg-type]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dvahunter", description="CDN domain-verification weakness scanner")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="run a scan and emit a JSON report")
    scan.add_argument("--targets", required=True, type=Path, help="file with one SLD or FQDN per line")
    scan.add_argument("--providers", type=Path, default=default_data("providers.json"),
                      help="provider knowledge DB (default: bundled 45-provider file)")
    scan.add_argument("--mode", choices=MODES, default="all")
    scan.add_argument("--backend", choices=["live", "mock"], default="mock")
    scan.add_argument("--scenario", type=Path, help="simulated-internet scenario file (mock backend)")
    scan.add_argument("--resolver", help="recursive resolver IP (live backend)")
    scan.add_argument("--qps", type=float, default=20.0, help="queries-per-second ceiling")
    scan.add_argument("--seed", type=int, default=0, help="seed for all randomized choices")
    scan.add_argument("--dict", dest="dictionary", type=Path, default=default_data("prefixes.txt"),
                      help="prefix dictionary (default: bundled 1000-entry list)")
    scan.add_argument("--suffixes", type=Path, default=default_data("public_suffix_list.dat"),
                      help="public-suffix snapshot file")
    scan.add_argument("--geoip", type=Path, help="ip,city lookup table (live backend)")
    scan.add_argument("--verify-tls", action="store_true",
                      help="re-enable certificate validation on the live backend")
    scan.add_argument("--out", type=Path, help="write the JSON report here")
    scan.add_argument("--csv", type=Path, help="also export the per-domain table as CSV")
    scan.add_argument("--stats", type=Path,
                      help="write each phase's wall seconds, DNS queries and HTTP probes here as JSON")
    scan.add_argument("--text", action="store_true", help="print the human-readable rendering")

    diff = sub.add_parser("diff", help="compare two reports from the same provider DB")
    diff.add_argument("prev", type=Path)
    diff.add_argument("next", type=Path)

    vdb = sub.add_parser("validate-db", help="validate a provider DB file")
    vdb.add_argument("db", type=Path)

    vsc = sub.add_parser("validate-scenario", help="validate a scenario file")
    vsc.add_argument("scenario", type=Path)
    vsc.add_argument("--providers", type=Path, default=default_data("providers.json"))

    return parser


def _cmd_scan(args: argparse.Namespace) -> int:
    config = ScanConfig(
        targets=args.targets,
        providers=args.providers,
        suffixes=args.suffixes,
        dictionary=args.dictionary,
        mode=args.mode,
        backend=Backend(args.backend),
        scenario=args.scenario,
        resolver=args.resolver,
        qps=args.qps,
        seed=args.seed,
        geoip=args.geoip,
        out=args.out,
        stats=args.stats,
        verify_tls=args.verify_tls,
    )
    try:
        if args.csv:
            check_output_path("csv", args.csv)
        report = run_scan(config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    if args.csv:
        args.csv.write_text(report.to_csv(), encoding="utf-8")
    if args.text:
        print(report.to_text(), end="")
    else:
        counters = report.counters
        print(
            "scan complete: "
            f"{counters.get('providers_scanned', 0)} providers, "
            f"{counters.get('domains_scanned', 0)} domains; vulnerable providers: "
            f"fronting {counters.get('fronting_vulnerable', 0)}, "
            f"borrowing {counters.get('borrowing_vulnerable', 0)}, "
            f"takeover {counters.get('takeover_vulnerable', 0)}"
        )
        if args.out:
            print(f"report written to {args.out}")
    return EXIT_FINDINGS if report.has_findings else EXIT_CLEAN


def _cmd_diff(args: argparse.Namespace) -> int:
    try:
        prev = ScanReport.load(args.prev)
        nxt = ScanReport.load(args.next)
        changes = diff_reports(prev, nxt)
    except (OSError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    print(json.dumps(changes, indent=2))
    return EXIT_CLEAN if changes["empty"] else EXIT_FINDINGS


def _cmd_validate_db(args: argparse.Namespace) -> int:
    try:
        db = load_provider_db(args.db)
    except (OSError, ValueError) as err:
        print(f"invalid provider DB: {err}", file=sys.stderr)
        return EXIT_CONFIG
    fingerprints = sum(
        (1 if p.nonhosted_fp else 0) + (1 if p.discontinued_fp else 0) for p in db.providers
    )
    print(f"ok: {len(db)} providers, {len(db.suffix_index)} suffixes, {fingerprints} fingerprints")
    return EXIT_CLEAN


def _cmd_validate_scenario(args: argparse.Namespace) -> int:
    try:
        db = load_provider_db(args.providers)
        scenario = load_scenario(args.scenario)
    except (OSError, ValueError) as err:
        print(f"invalid: {err}", file=sys.stderr)
        return EXIT_CONFIG
    problems = validate_scenario(scenario, db)
    if problems:
        for problem in problems:
            print(f"problem: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    print(
        f"ok: {len(scenario.providers)} providers, {len(scenario.zones)} zone entries, "
        f"{len(scenario.origins)} origins, {len(scenario.discontinued)} discontinued hosts"
    )
    return EXIT_CLEAN


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    if args.command == "scan":
        return _cmd_scan(args)
    if args.command == "diff":
        return _cmd_diff(args)
    if args.command == "validate-db":
        return _cmd_validate_db(args)
    return _cmd_validate_scenario(args)


if __name__ == "__main__":
    sys.exit(main())
