"""
Span tracing at dvahunter's public boundaries, installed from outside the
package by patching each function where its callers look it up.

Every boundary call records a span (name, start, end, parent) in memory.
Hot boundaries, the ones called tens of thousands of times per scan, are
aggregated per (parent node, function) instead, which keeps the overhead
and the memory bounded. A span's self time is its duration minus the
durations of its children.

The wrappers cost time of their own: inside a span (calling through the
wrapper) and in the caller (the stack bookkeeping and the observer that
counts results). Both are measured per call on an empty wrapped function
before the scan (``calibrate``) and taken out of the self and inclusive
times, calls x cost at a time, so the self times come close to the
untraced program; what was taken out is reported as ``trace.wrapper_s``,
and run.py reports what is left (``trace.bias``).

A boundary that no longer exists raises ``MissingBoundary`` at install
time, and ``per_layer`` raises when a boundary the workload must
exercise recorded no call, so a refactor can never turn a layer into a
silent zero.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import time
from dataclasses import dataclass
from statistics import median
from typing import Any, Callable, Optional

from dvahunter.core import Rcode, VerdictKind


class MissingBoundary(RuntimeError):
    """A traced function or method is gone from the package."""


class TraceBroken(RuntimeError):
    """Spans did not nest: the scan ran traced code on more than one thread."""


@dataclass(frozen=True)
class Boundary:
    module: str  # dvahunter submodule that defines it
    qualname: str  # "function" or "Class.method"
    hot: bool = False

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname.rsplit('.', 1)[-1]}"


# the traced boundaries; metric names use Boundary.name ("<module>.<function>")
BOUNDARIES = [
    Boundary("scan", "run_scan_with_context"),
    Boundary("scan", "prepare"),
    Boundary("simnet", "load_scenario"),
    Boundary("simnet", "validate_scenario"),
    Boundary("simnet", "SimulatedInternet.__init__"),
    Boundary("core", "parse_fqdn", hot=True),
    Boundary("crawler", "enumerate_subdomains"),
    Boundary("transport", "MockTransport.resolve", hot=True),
    Boundary("transport", "MockTransport.probe", hot=True),
    Boundary("simnet", "SimulatedInternet.serve_dns", hot=True),
    Boundary("simnet", "SimulatedInternet.serve_http", hot=True),
    Boundary("simnet", "SimulatedInternet.attacker_register"),
    Boundary("providers", "identify_cdn", hot=True),
    Boundary("providers", "match_fingerprint", hot=True),
    Boundary("checker", "crawl_records"),
    Boundary("checker", "discover_hosted"),
    Boundary("checker", "collect_ingress"),
    Boundary("fronting", "harvest_urls"),
    Boundary("fronting", "generate_tuples"),
    Boundary("fronting", "run_tuple"),
    Boundary("fronting", "judge_tuple"),
    Boundary("fronting", "judge_provider"),
    Boundary("borrowing", "probe_baseline"),
    Boundary("borrowing", "find_borrowing"),
    Boundary("borrowing", "classify_borrowing_tls"),
    Boundary("takeover", "detect_dangling"),
    Boundary("takeover", "enumerate_takeover_paths"),
    Boundary("takeover", "check_origin_exposure"),
    Boundary("report", "ScanReport.dump"),
]

ROOT = "scan.run_scan_with_context"
LOAD = ("simnet.load_scenario", "simnet.validate_scenario", "simnet.__init__")
MODULES = ("scan", "core", "crawler", "transport", "simnet", "providers",
           "checker", "fronting", "borrowing", "takeover", "report")
# the modules the scan orchestrator calls into phase by phase
PHASE_MODULES = ("crawler", "checker", "fronting", "borrowing", "takeover", "report")
CALIBRATION_CALLS = 10_000
CALIBRATION_ROUNDS = 5
# largest gap allowed between the root span and the sample's own clock
ROOT_GAP = 0.01


class Tracer:
    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self.spans: list[tuple[int, int, str, float, float, float]] = []  # id, parent, name, start, end, self
        # hot nodes: [id, child time, children, calls, total, parent id, name]
        self.aggregates: list[list] = []
        # every frame starts [node id, child time, {name: hot child node}]
        self._stack: list[list] = [[0, 0.0, {}]]
        self.broken = False
        # boundary name -> (seconds per call inside its span, seconds per call in its caller)
        self.costs: dict[str, tuple[float, float]] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        # counts taken at the boundaries, for the ratio metrics
        self.enum_candidates = 0
        self.enum_confirmed = 0
        self.names_resolved: list = []
        self.probe_failures = 0
        self.dns_nxdomain = 0
        self.tuples_decisive = 0
        self.borrowing_candidates: set[str] = set()
        self.dangling_found = 0

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [next(ids), 0.0, {}]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if stack.pop() is not frame:
                    self.broken = True
                parent[1] += end - start
                spans.append((frame[0], parent[0], name, start, end, end - start - frame[1]))
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _hot_wrapper(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        stack, aggregates, ids, clock = self._stack, self.aggregates, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            node = parent[2].get(name)
            if node is None:
                node = parent[2][name] = [next(ids), 0.0, {}, 0, 0.0, parent[0], name]
                aggregates.append(node)
            stack.append(node)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if stack.pop() is not node:
                    self.broken = True
                parent[1] += elapsed
                node[3] += 1
                node[4] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # -- observers ------------------------------------------------------------

    def _observers(self) -> dict[str, Callable]:
        def enumerate_done(args, result):
            self.enum_confirmed += len(result.confirmed)
            self.enum_candidates += (
                len(result.confirmed) + len(result.unconfirmed) + len(result.excluded_by_wildcard)
            )

        def resolved(args, result):
            self.names_resolved.append(args[1])

        def probed(args, result):
            if result.failure is not None:
                self.probe_failures += 1

        def served_dns(args, result):
            if result.rcode is Rcode.NXDOMAIN:
                self.dns_nxdomain += 1

        def judged(args, result):
            if result.kind is not VerdictKind.INCONCLUSIVE:
                self.tuples_decisive += 1

        def borrowing_probed(args, result):
            self.borrowing_candidates.update(str(d) for d in args[0])

        def dangling_checked(args, result):
            if result is not None:
                self.dangling_found += 1

        return {
            "crawler.enumerate_subdomains": enumerate_done,
            "transport.resolve": resolved,
            "transport.probe": probed,
            "simnet.serve_dns": served_dns,
            "fronting.judge_tuple": judged,
            "borrowing.find_borrowing": borrowing_probed,
            "takeover.detect_dangling": dangling_checked,
        }

    # -- install / remove -----------------------------------------------------

    def install(self) -> None:
        observers = self._observers()
        costs = calibrate()
        self.costs = {b.name: costs[b.hot, b.name in observers] for b in BOUNDARIES}
        loaded = [m for n, m in sorted(sys.modules.items()) if n == "dvahunter" or n.startswith("dvahunter.")]
        for boundary in BOUNDARIES:
            module = importlib.import_module(f"dvahunter.{boundary.module}")
            make = self._hot_wrapper if boundary.hot else self._span_wrapper
            if "." in boundary.qualname:
                cls_name, meth = boundary.qualname.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or meth not in vars(cls):
                    raise MissingBoundary(f"dvahunter.{boundary.module}.{boundary.qualname} no longer exists")
                original = vars(cls)[meth]
                self._patch(cls, meth, make(boundary.name, original, observers.get(boundary.name)))
                continue
            original = getattr(module, boundary.qualname, None)
            if original is None:
                raise MissingBoundary(f"dvahunter.{boundary.module}.{boundary.qualname} no longer exists")
            wrapper = make(boundary.name, original, observers.get(boundary.name))
            # patch every module that bound the function by name, so calls
            # through "from .x import f" are traced as well as "x.f"
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def nodes(self) -> dict[int, dict]:
        """node id -> {name, parent, calls, total, self, wrapper} over spans
        and aggregates alike. ``total`` and ``self`` have the calibrated
        wrapper cost taken out; ``wrapper`` is what was taken out of
        ``total``."""
        out: dict[int, dict] = {}
        for span_id, parent, name, start, end, self_s in self.spans:
            out[span_id] = {"name": name, "parent": parent, "calls": 1, "total": end - start,
                            "self": self_s, "wrapper": 0.0}
        for node_id, child, _children, calls, total, parent, name in self.aggregates:
            out[node_id] = {"name": name, "parent": parent, "calls": calls, "total": total,
                            "self": total - child, "wrapper": 0.0}
        # a node is numbered after its parent, so this visits children first
        for node_id in sorted(out, reverse=True):
            node = out[node_id]
            inside, outside = self.costs[node["name"]]
            node["self"] -= node["calls"] * inside
            node["wrapper"] += node["calls"] * inside
            node["total"] -= node["wrapper"]
            parent = out.get(node["parent"])
            if parent is not None:
                parent["self"] -= node["calls"] * outside
                parent["wrapper"] += node["wrapper"] + node["calls"] * outside
        return out

    def dump(self) -> dict:
        """Spans as [id, parent, name, start, end, self]; aggregated hot
        nodes as [id, parent, name, calls, total, self]."""
        return {
            "spans": [list(s) for s in self.spans],
            "aggregates": [[n[0], n[5], n[6], n[3], n[4], n[4] - n[1]] for n in self.aggregates],
        }


def _noop(*args):
    return None


def _observe_nothing(args, result):
    return None


def calibrate() -> dict[tuple[bool, bool], tuple[float, float]]:
    """(hot, observed) -> the wrapper's cost per call, in seconds, inside
    the span and in the caller, measured on an empty function.

    Inside: the time a span records around a function that does nothing.
    In the caller: the rest of a wrapped call's cost beyond an unwrapped
    call. Taking both out leaves the caller with the cost of a plain call
    and the callee with its own work, as in an untraced run."""
    clock = time.perf_counter
    costs = {}
    for hot in (False, True):
        for observed in (False, True):
            inside, outside = [], []
            for _ in range(CALIBRATION_ROUNDS):
                scratch = Tracer()
                make = scratch._hot_wrapper if hot else scratch._span_wrapper
                wrapped = make("calibration", _noop, _observe_nothing if observed else None)
                started = clock()
                for _ in range(CALIBRATION_CALLS):
                    _noop(None, "name")
                plain = clock() - started
                started = clock()
                for _ in range(CALIBRATION_CALLS):
                    wrapped(None, "name")
                traced = clock() - started
                recorded = scratch._stack[0][1]
                inside.append(recorded / CALIBRATION_CALLS)
                outside.append((traced - recorded - plain) / CALIBRATION_CALLS)
            costs[hot, observed] = (median(inside), median(outside))
    return costs


def per_layer(tracer: Tracer, expect_idle: frozenset[str], scan_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced scan that took ``scan_s`` by the
    caller's clock. Raises when spans did not nest, when the root span
    disagrees with ``scan_s``, or when a boundary outside ``expect_idle``
    recorded no call."""
    if tracer.broken or len(tracer._stack) != 1:
        raise TraceBroken("spans did not nest; the traced scan must run on one thread")
    nodes = tracer.nodes()
    calls: dict[str, int] = {b.name: 0 for b in BOUNDARIES}
    self_s: dict[str, float] = {b.name: 0.0 for b in BOUNDARIES}
    total: dict[str, float] = {b.name: 0.0 for b in BOUNDARIES}
    for node in nodes.values():
        calls[node["name"]] += node["calls"]
        self_s[node["name"]] += node["self"]
        total[node["name"]] += node["total"]
    silent = sorted(name for name, n in calls.items() if n == 0 and name not in expect_idle)
    if silent:
        raise MissingBoundary(f"traced boundaries recorded no call: {', '.join(silent)}")
    if calls[ROOT] != 1:
        raise TraceBroken(f"expected one traced scan, saw {calls[ROOT]}")

    def under(child: str, parents: tuple[str, ...]) -> int:
        return sum(
            n["calls"] for n in nodes.values()
            if n["name"] == child and nodes.get(n["parent"], {}).get("name") in parents
        )

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    root = next(n for n in nodes.values() if n["name"] == ROOT)
    traced_s = root["total"] + root["wrapper"]
    if abs(traced_s - scan_s) > ROOT_GAP * scan_s:
        raise TraceBroken(f"root span took {traced_s:.6f}s, the caller's clock {scan_s:.6f}s")
    m: dict[str, float] = {
        "trace.scan_s": traced_s,
        "trace.wrapper_s": root["wrapper"],
    }
    for module in MODULES:
        m[f"{module}.self_s"] = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == module)
    # inclusive time of a module: its outermost calls with everything below them
    for module in PHASE_MODULES:
        m[f"{module}.total_s"] = sum(
            n["total"] for n in nodes.values()
            if n["name"].split(".", 1)[0] == module
            and nodes.get(n["parent"], {}).get("name", "").split(".", 1)[0] != module
        )
    for name in ("core.parse_fqdn", "transport.resolve", "transport.probe", "simnet.serve_dns",
                 "simnet.serve_http", "simnet.attacker_register", "providers.identify_cdn",
                 "providers.match_fingerprint"):
        m[f"{name}.calls"] = calls[name]
    for name in ("core.parse_fqdn", "crawler.enumerate_subdomains", "transport.resolve",
                 "transport.probe", "simnet.serve_dns", "simnet.serve_http",
                 "simnet.attacker_register", "providers.identify_cdn", "providers.match_fingerprint",
                 "checker.crawl_records", "checker.discover_hosted", "checker.collect_ingress",
                 "fronting.harvest_urls", "fronting.run_tuple", "borrowing.find_borrowing",
                 "takeover.detect_dangling", "takeover.enumerate_takeover_paths",
                 "takeover.check_origin_exposure", "report.dump"):
        m[f"{name}.self_s"] = self_s[name]
    m["crawler.candidates"] = tracer.enum_candidates
    m["crawler.yield"] = ratio(tracer.enum_confirmed, tracer.enum_candidates)
    m["transport.probe.failure_ratio"] = ratio(tracer.probe_failures, calls["transport.probe"])
    m["simnet.serve_dns.nx_share"] = ratio(tracer.dns_nxdomain, calls["simnet.serve_dns"])
    m["simnet.load_s"] = sum(total[name] for name in LOAD)
    fronting = ("fronting.harvest_urls", "fronting.run_tuple")
    borrowing = ("borrowing.probe_baseline", "borrowing.find_borrowing", "borrowing.classify_borrowing_tls")
    m["fronting.http_probes"] = under("transport.probe", fronting)
    m["fronting.decisive_ratio"] = ratio(tracer.tuples_decisive, calls["fronting.run_tuple"])
    m["borrowing.dns_per_candidate"] = ratio(
        under("transport.resolve", ("borrowing.find_borrowing",)), len(tracer.borrowing_candidates)
    )
    m["borrowing.http_probes"] = under("transport.probe", borrowing)
    m["takeover.registrations_per_dangling"] = ratio(calls["simnet.attacker_register"], tracer.dangling_found)
    m["scan.resolves_per_name"] = ratio(calls["transport.resolve"], len(set(map(str, tracer.names_resolved))))
    return m
