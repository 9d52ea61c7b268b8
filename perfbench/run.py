"""
The dvahunter benchmark: mock-backend scans, one fresh process per sample.

    python3 perfbench/run.py --workload enum-reference --seed 1 --seconds 30 --trace 0

Run from the repository root. The seed drives world generation and the
scan's ``--seed``. Samples run one after another (a closed loop of one
client, one scan at a time, one thread) until ``--seconds`` have passed.
Every sample's report is checked against the workload's ground truth and
must hash the same as every other sample of the run.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json (medians over
the untraced samples, times scaled to a nominal machine speed measured
between samples, see pace.py). ``--trace 1`` alternates untraced and traced
samples, runs the wire-codec microbenchmark, and prints the per-layer
metrics (medians over the traced samples). The last line of standard
output is the JSON result; the lines before it are for people.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from pace import NOMINAL_S, Pace

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
SAMPLE_TIMEOUT_S = 150
MIN_SAMPLES = 5
MIN_TRACED = 2


@dataclass(frozen=True)
class Workload:
    name: str
    # boundaries this workload never reaches; any other one must record calls
    expect_idle: frozenset[str]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("enum-reference", expect_idle=frozenset()),
        Workload("detect-wide", expect_idle=frozenset({"crawler.enumerate_subdomains"})),
        Workload(
            "takeover-churn",
            expect_idle=frozenset({
                "crawler.enumerate_subdomains", "fronting.harvest_urls", "fronting.generate_tuples",
                "fronting.run_tuple", "fronting.judge_tuple", "fronting.judge_provider",
                "borrowing.probe_baseline", "borrowing.find_borrowing", "borrowing.classify_borrowing_tls",
            }),
        ),
    )
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources, bad world)."""


def data_file(name: str) -> Path:
    return ROOT / "src" / "dvahunter" / "data" / name


def prepare_inputs(workload: Workload, seed: int, workdir: Path) -> tuple[dict, dict, int]:
    """Write the scenario, targets and sample config; return the config,
    the ground truth and the number of target lines."""
    from dvahunter.providers import load_provider_db
    from dvahunter.simnet import load_scenario, scenario_to_json, validate_scenario

    import worldgen

    db = load_provider_db(data_file("providers.json"))
    if workload.name in worldgen.BUILDERS:
        world = worldgen.BUILDERS[workload.name](db, seed)
        scenario_path = workdir / "scenario.json"
        targets_path = workdir / "targets.txt"
        scenario_path.write_text(json.dumps(scenario_to_json(world.scenario)), encoding="utf-8")
        targets_path.write_text("\n".join(world.targets) + "\n", encoding="utf-8")
        mode, truth = world.mode, world.truth
    else:
        scenario_path = data_file("reference_world.json")
        targets_path = data_file("reference_world_targets.txt")
        mode = "all"
        truth = {"verdicts": worldgen.expected_verdicts(db)}
    # every world, generated or bundled, must validate before any timing
    problems = validate_scenario(load_scenario(scenario_path), db)
    if problems:
        raise SetupError(f"{workload.name}: scenario failed validation: {'; '.join(problems[:5])}")
    # target lines as the scanner reads them: comments and blank lines skipped
    text = targets_path.read_text(encoding="utf-8")
    lines = sum(1 for line in text.splitlines() if line.split("#", 1)[0].strip())
    config = {
        "targets": str(targets_path),
        "providers": str(data_file("providers.json")),
        "suffixes": str(data_file("public_suffix_list.dat")),
        "dictionary": str(data_file("prefixes.txt")),
        "scenario": str(scenario_path),
        "mode": mode,
        "seed": seed,
        "out": str(workdir / "report.json"),
        "expect_idle": sorted(workload.expect_idle),
        "trace_out": str(workdir / "trace.json"),
    }
    return config, truth, lines


def check_report(report: dict, truth: dict) -> list[str]:
    """Differences between a report and the workload's ground truth."""
    problems = []
    for provider, categories in truth["verdicts"].items():
        section = report["providers"].get(provider, {})
        for category, want in categories.items():
            got = (section.get(category) or {}).get("kind")
            if got != want:
                problems.append(f"{provider} {category}: {got}, expected {want}")
    domains = report["domains"]
    if "dangling" in truth:
        got = sorted(n for n, d in domains.items() if d.get("dangling"))
        if got != truth["dangling"]:
            problems.append(f"dangling hosts: {len(got)} reported, {len(truth['dangling'])} expected")
        got = sorted(n for n, d in domains.items() if (d.get("exposure") or {}).get("kind") == "vulnerable")
        if got != truth["exposed"]:
            problems.append(f"exposed domains: {len(got)} reported, {len(truth['exposed'])} expected")
        got = {n: sorted(d["borrowed_at"]) for n, d in domains.items() if d.get("borrowed_at")}
        if got != truth["borrowed"]:
            problems.append(f"borrowed domains: {len(got)} reported, {len(truth['borrowed'])} expected")
    return problems


class Runner:
    """Starts samples one at a time and checks each one's report."""

    def __init__(self, config_path: Path, config: dict, truth: dict):
        self.config_path = config_path
        self.config = config
        self.truth = truth
        self.pace = Pace()
        self.report_sha1: str | None = None
        self.attempted = 0
        self.failed = 0

    def sample(self, traced: bool) -> dict | None:
        self.attempted += 1
        cmd = [sys.executable, str(HERE / "sample.py"), str(self.config_path)] + (["--trace"] if traced else [])
        before = self.pace.seconds()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return self._fail(f"sample exceeded {SAMPLE_TIMEOUT_S}s")
        reference_s = (before + self.pace.seconds()) / 2
        if proc.returncode != 0:
            return self._fail(f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        raw = Path(self.config["out"]).read_bytes()
        sha1 = hashlib.sha1(raw).hexdigest()
        if self.report_sha1 is None:
            self.report_sha1 = sha1
        if sha1 != self.report_sha1:
            return self._fail(f"report sha1 {sha1} differs from the run's first {self.report_sha1}")
        problems = check_report(json.loads(raw), self.truth)
        if problems:
            return self._fail("report disagrees with ground truth: " + "; ".join(problems[:10]))
        result["reference_s"] = reference_s
        return result

    def _fail(self, why: str) -> None:
        self.failed += 1
        print(f"FAILED sample {self.attempted}: {why}", file=sys.stderr)
        return None


def spec_metrics(kind: str) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec[kind]


def emit(runner: Runner, values: dict[str, float], kind: str) -> None:
    metrics = {}
    for item in spec_metrics(kind):
        if item["name"] not in values:
            raise SetupError(f"metric {item['name']} was not measured")
        metrics[item["name"]] = {"value": values[item["name"]], "unit": item["unit"]}
        print(f"{item['name']:<48} {values[item['name']]:>14.6g} {item['unit']}")
    print(json.dumps({"correct": True, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}))


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def end_to_end(runner: Runner, seconds: float, lines: int) -> dict[str, float]:
    samples = []
    deadline = time.monotonic() + seconds
    while not runner.failed and (time.monotonic() < deadline or len(samples) < MIN_SAMPLES):
        result = runner.sample(traced=False)
        if result is not None:
            samples.append(result)
    if runner.failed:
        return {}
    # times at the machine speed where the reference takes NOMINAL_S
    times = sorted(s["scan_s"] * NOMINAL_S / s["reference_s"] for s in samples)
    print(f"samples: {len(samples)} untraced scans; wall scan_s median {median_of(samples, 'scan_s'):.4f}s, "
          f"reference median {median_of(samples, 'reference_s'):.4f}s (nominal {NOMINAL_S}s)")
    print("scan_s per sample, at nominal speed: " + " ".join(f"{t:.4f}" for t in times))
    # the highest percentile with at least one sample above it
    top = 100 * (len(times) - 1) // len(times)
    print(f"scan_s p{top} over {len(times)} samples: "
          f"{statistics.quantiles(times, n=100, method='inclusive')[top - 1]:.6g} s (max {times[-1]:.6g} s)")
    return {
        "scan_s": statistics.median(times),
        "setup_s": statistics.median(s["setup_s"] * NOMINAL_S / s["reference_s"] for s in samples),
        "peak_rss_mib": median_of(samples, "peak_rss_mib"),
        "dns_queries_per_target": median_of(samples, "dns_queries") / lines,
        "http_probes_per_target": median_of(samples, "http_probes") / lines,
    }


def layered(runner: Runner, seconds: float) -> dict[str, float]:
    from dvahunter.providers import load_provider_db

    import wirecodec

    deadline = time.monotonic() + seconds
    codec = wirecodec.run(
        data_file("reference_world.json"), data_file("reference_world_targets.txt"),
        data_file("prefixes.txt"), data_file("public_suffix_list.dat"),
        load_provider_db(data_file("providers.json")),
    )
    print(f"wire codec: {codec.pop('wirecodec.names')} names, "
          f"{codec.pop('wirecodec.answers')} answer records round-tripped")
    plain, traced = [], []
    while not runner.failed and (time.monotonic() < deadline or len(traced) < MIN_TRACED):
        for kind, bucket in ((False, plain), (True, traced)):
            result = runner.sample(traced=kind)
            if result is not None:
                bucket.append(result)
    if runner.failed:
        return {}
    layers = {name: statistics.median(s["layers"][name] for s in traced) for name in traced[0]["layers"]}
    layers["trace.overhead"] = median_of(traced, "scan_s") / median_of(plain, "scan_s") - 1.0
    # what the calibration leaves of the tracer's cost in the self times
    layers["trace.bias"] = (layers["trace.scan_s"] - layers["trace.wrapper_s"]) / median_of(plain, "scan_s") - 1.0
    layers.update(codec)
    print(f"samples: {len(plain)} untraced, {len(traced)} traced scans; "
          f"untraced scan_s median {median_of(plain, 'scan_s'):.4f}s")
    print_layer_table(layers)
    return layers


def print_layer_table(layers: dict[str, float]) -> None:
    from tracer import MODULES, PHASE_MODULES

    scan_s = layers["trace.scan_s"] - layers["trace.wrapper_s"]
    print(f"traced scan {layers['trace.scan_s']:.4f}s = self times {scan_s:.4f}s + tracer cost "
          f"{layers['trace.wrapper_s']:.4f}s; overhead {layers['trace.overhead']:+.1%}; "
          f"self times {layers['trace.bias']:+.1%} against the untraced median")
    for module in MODULES:
        print(f"  {module:<10} self {layers[module + '.self_s']:8.4f}s  {layers[module + '.self_s'] / scan_s:6.1%}")
    for module in PHASE_MODULES:
        print(f"  {module:<10} total {layers[module + '.total_s']:7.4f}s  {layers[module + '.total_s'] / scan_s:6.1%}")
    enum_path = (layers["crawler.self_s"] + layers["core.parse_fqdn.self_s"]
                 + layers["transport.resolve.self_s"] + layers["simnet.serve_dns.self_s"])
    print(f"  enumeration path (crawler, parse_fqdn, resolve, serve_dns): {enum_path / scan_s:.1%}")
    detection = layers["fronting.total_s"] + layers["borrowing.total_s"]
    print(f"  fronting + borrowing, inclusive: {detection / scan_s:.1%}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dvahunter" / "__init__.py").is_file():
        print(f"no dvahunter sources under {ROOT / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    workload = WORKLOADS[args.workload]
    workdir = WORK / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        config, truth, lines = prepare_inputs(workload, args.seed, workdir)
    except SetupError as err:
        print(f"set-up failed: {err}", file=sys.stderr)
        return 2
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    print(f"workload {workload.name}, seed {args.seed}, {lines} targets, mode {config['mode']}")

    runner = Runner(config_path, config, truth)
    runner.sample(traced=False)  # warm-up: fills the bytecode cache; checked, not timed
    if runner.failed:
        values, kind = {}, ""
    elif args.trace:
        values = layered(runner, args.seconds)
        kind = "per_layer"
    else:
        values = end_to_end(runner, args.seconds, lines)
        kind = "end_to_end"
    print(f"scan_error_rate {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} scans failed)")
    if runner.failed:
        print(json.dumps({"correct": False, "attempted": runner.attempted, "failed": runner.failed, "metrics": {}}))
        return 1
    emit(runner, values, kind)
    return 0


if __name__ == "__main__":
    sys.exit(main())
