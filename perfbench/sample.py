"""
One benchmark sample: a fresh interpreter that imports dvahunter, prepares
a scan once to time set-up, then times one ``run_scan_with_context`` call
(its own ``prepare`` and the report write included). With ``--trace`` the
scan runs under the span tracer and the per-layer metrics are added.

    python3 perfbench/sample.py <config.json> [--trace]

Prints one JSON object on its last line. ``run.py`` starts it, one
process at a time.
"""

import time

T0 = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def scan_config(scan, spec: dict):
    """Only the fields the ``dvahunter scan`` command line sets; workers,
    shards and record_probes keep their defaults."""
    from pathlib import Path

    from dvahunter.transport import Backend

    return scan.ScanConfig(
        targets=Path(spec["targets"]),
        providers=Path(spec["providers"]),
        suffixes=Path(spec["suffixes"]),
        dictionary=Path(spec["dictionary"]),
        mode=spec["mode"],
        backend=Backend.MOCK,
        scenario=Path(spec["scenario"]),
        seed=spec["seed"],
        out=Path(spec["out"]),
    )


def limiter_window(transport) -> int:
    """Entries the rate limiter holds after the scan; 0 once the mock
    transport no longer keeps a limiter."""
    limiter = getattr(transport, "limiter", None)
    return len(getattr(limiter, "_window", ()))


def peak_rss_mib() -> float:
    """High-water resident set of this process's own address space.
    ``ru_maxrss`` alone is not enough: Linux carries the parent's resident
    size into it across fork and exec, so a large ``run.py`` would show."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    sys.path.insert(0, SRC)
    import dvahunter  # noqa: F401
    from dvahunter import scan

    imported = time.perf_counter()
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    config = scan_config(scan, spec)
    started = time.perf_counter()
    scan.prepare(config)
    setup_s = (imported - T0) + (time.perf_counter() - started)
    gc.collect()

    tracer = None
    if "--trace" in argv[1:]:
        sys.path.insert(0, HERE)
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    started = time.perf_counter()
    ctx = scan.run_scan_with_context(config)
    scan_s = time.perf_counter() - started

    out = {
        "setup_s": setup_s,
        "scan_s": scan_s,
        "peak_rss_mib": peak_rss_mib(),
        "dns_queries": ctx.transport.stats.dns_queries,
        "http_probes": ctx.transport.stats.http_probes,
        "limiter_window": limiter_window(ctx.transport),
    }
    if tracer is not None:
        tracer.remove()
        layers = tracing.per_layer(tracer, frozenset(spec["expect_idle"]), scan_s)
        layers["transport.limiter_window"] = out["limiter_window"]
        layers["report.bytes"] = os.path.getsize(config.out)
        with open(spec["trace_out"], "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
        out["layers"] = layers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
