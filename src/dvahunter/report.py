"""
Scan reports: a versioned JSON document with per-provider and per-domain
sections, self-consistent counters, deterministic ordering, and a diff
operation for periodic monitoring (the prior report file is the entire
scan state; no database involved).

Schema 2 keeps each distinct HTTP response once, in a top-level
``responses`` table keyed by a short content hash: the first
``REF_LENGTH`` hex digits of the SHA1 of the response's compact JSON.
An evidence item's ``response`` and a provider's ``borrowing_baseline``
hold such a ref. In memory the table holds that compact JSON text, built
once per response and written as it is. ``ScanReport.load`` also reads
schema 1, whose responses sit inline, and moves them into the table, so
every loaded report has one shape.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring
from pathlib import Path
from typing import Any, Callable, Iterator, TextIO

SCHEMA = "dvahunter-report/2"
SCHEMA_1 = "dvahunter-report/1"
REF_LENGTH = 12

PROVIDER_CATEGORIES = ("fronting", "borrowing", "takeover")


class IncompatibleRuns(ValueError):
    """Reports built against different provider DBs cannot be diffed."""


class CounterMismatch(ValueError):
    """Stored counters disagree with a recomputation from the sections."""


def _compact_encoder() -> Callable[[Any], str]:
    """``json.dumps(value, ensure_ascii=False, separators=(",", ":"))``
    through one of json's C encoders, made once rather than once per call
    as ``json.dumps`` makes it."""
    encode = c_make_encoder({}, json.JSONEncoder().default, encode_basestring, None, ":", ",", False, False, True)
    return lambda value: "".join(encode(value, 0))


@dataclass
class ScanReport:
    meta: dict[str, Any] = field(default_factory=dict)
    providers: dict[str, dict[str, Any]] = field(default_factory=dict)
    domains: dict[str, dict[str, Any]] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    # content ref -> a response's compact JSON text
    responses: dict[str, str] = field(default_factory=dict)
    # each response summary already in ``responses``, with its ref
    _refs: dict[Any, str] = field(default_factory=dict, init=False, repr=False, compare=False)
    _encode: Callable[[Any], str] = field(default_factory=_compact_encoder, init=False, repr=False, compare=False)

    def response_ref(self, response: Any) -> str:
        """The ref of an ``HttpResponseSummary`` in ``responses``; its JSON
        is built once, when the report first meets an equal summary."""
        ref = self._refs.get(response)
        if ref is None:
            ref = self._refs[response] = self._intern(response.to_json())
        return ref

    def response(self, ref: str) -> dict[str, Any]:
        """The JSON object of the response that ``ref`` names."""
        return json.loads(self.responses[ref])

    def _intern(self, body: Any) -> str:
        """The ref of a response's JSON object, whose compact text is added
        to ``responses`` unless it is there: the first ``REF_LENGTH`` hex
        digits of the text's SHA1, one more for each other text held
        under them."""
        text = self._encode(body)
        digest = hashlib.sha1(text.encode("utf-8", "surrogatepass")).hexdigest()
        size = REF_LENGTH
        while self.responses.setdefault(digest[:size], text) != text:
            size += 1
        return digest[:size]

    def recompute_counters(self) -> dict[str, int]:
        counters = {
            "providers_scanned": len(self.providers),
            "domains_scanned": len(self.domains),
            "domains_hosted": sum(1 for d in self.domains.values() if d.get("provider")),
            "domains_dangling": sum(1 for d in self.domains.values() if d.get("dangling")),
            "domains_borrowed": sum(1 for d in self.domains.values() if d.get("borrowed_at")),
            "domains_origin_exposed": sum(
                1 for d in self.domains.values()
                if (d.get("exposure") or {}).get("kind") == "vulnerable"
            ),
        }
        for category in PROVIDER_CATEGORIES:
            for outcome in ("vulnerable", "not_vulnerable", "inconclusive"):
                counters[f"{category}_{outcome}"] = sum(
                    1
                    for p in self.providers.values()
                    if (p.get(category) or {}).get("kind") == outcome
                )
        return counters

    def finalize(self) -> "ScanReport":
        self.counters = self.recompute_counters()
        return self

    def verify_counters(self) -> None:
        fresh = self.recompute_counters()
        if fresh != self.counters:
            drift = {k: (self.counters.get(k), v) for k, v in fresh.items() if self.counters.get(k) != v}
            raise CounterMismatch(f"stored counters disagree with sections: {drift}")

    def to_json(self) -> dict[str, Any]:
        return self._document({ref: self.response(ref) for ref in sorted(self.responses)})

    def _document(self, responses: dict[str, Any]) -> dict[str, Any]:
        self.verify_counters()
        return {
            "schema": SCHEMA,
            "meta": self.meta,
            "counters": dict(sorted(self.counters.items())),
            "providers": {name: self.providers[name] for name in sorted(self.providers)},
            "domains": {name: self.domains[name] for name in sorted(self.domains)},
            "responses": responses,
        }

    def dump(self, path: str | Path) -> None:
        """Write the report as compact UTF-8 JSON plus a final newline:
        the bytes of ``json.dumps(self.to_json(), ensure_ascii=False,
        separators=(",", ":")) + "\\n"``, streamed by ``_write_compact``
        so that the whole text is never held in memory. The responses go
        out as the table holds them, already encoded.

        The text goes to a temporary file beside ``path`` that replaces
        ``path`` only once it is complete, so a dump that fails leaves an
        earlier report at ``path`` as it was and no temporary file behind.
        """
        path = Path(path)
        doc = self._document({ref: self.responses[ref] for ref in sorted(self.responses)})
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with tmp.open("w", encoding="utf-8") as fh:
                _write_compact(doc, fh, encoded="responses")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def from_json(cls, data: Any) -> "ScanReport":
        """The report in a parsed document of schema 1 or 2. ValueError
        unless it is a report object whose sections, provider sections,
        verdicts, evidence items, domain entries and responses are
        objects, and whose every response ref is in ``responses``. A
        schema-1 document's inline responses are moved into the table and
        replaced by their refs, in the document too."""
        if not isinstance(data, dict):
            raise ValueError(f"a report must be a JSON object, not {type(data).__name__}")
        schema = data.get("schema")
        if schema not in (SCHEMA, SCHEMA_1):
            raise ValueError(f"unsupported report schema: {schema!r}")
        keys = ("meta", "providers", "domains", "counters") + (("responses",) if schema == SCHEMA else ())
        sections = {key: data.get(key, {}) for key in keys}
        for key, section in sections.items():
            _require_object(f"report {key}", section)
        for name, provider in sections["providers"].items():
            _require_object(f"provider {name!r}", provider)
        for name, domain in sections["domains"].items():
            _require_object(f"domain {name!r}", domain)
        for ref, body in sections.get("responses", {}).items():
            _require_object(f"response {ref!r}", body)
        report = cls(**sections)
        report.responses = {ref: report._encode(body) for ref, body in report.responses.items()}
        for label, holder, key in _response_slots(report.providers, report.domains):
            value = holder[key]
            if schema == SCHEMA_1:
                _require_object(label, value)
                holder[key] = report._intern(value)
            elif not isinstance(value, str) or value not in report.responses:
                raise ValueError(f"{label} {value!r} is not a ref in the responses table")
        return report

    @classmethod
    def load(cls, path: str | Path) -> "ScanReport":
        return cls.from_json(json.loads(Path(path).read_text(encoding="utf-8")))

    @property
    def has_findings(self) -> bool:
        for category in PROVIDER_CATEGORIES:
            if self.counters.get(f"{category}_vulnerable", 0):
                return True
        return bool(
            self.counters.get("domains_dangling", 0)
            or self.counters.get("domains_borrowed", 0)
            or self.counters.get("domains_origin_exposed", 0)
        )

    # -- renderings ----------------------------------------------------------

    def to_text(self) -> str:
        lines = [
            "dvahunter scan report",
            f"  generated: {self.meta.get('generated_at')}  seed: {self.meta.get('seed')}  "
            f"backend: {self.meta.get('backend')}  mode: {self.meta.get('mode')}",
            f"  provider db: {self.meta.get('provider_db_sha1', '')[:12]}  "
            f"suffix snapshot: {self.meta.get('suffix_snapshot_date')}",
            "",
            "providers "
            + " ".join(
                f"{cat}:{self.counters.get(f'{cat}_vulnerable', 0)}/{self.counters.get('providers_scanned', 0)}"
                for cat in PROVIDER_CATEGORIES
            ),
        ]
        for name in sorted(self.providers):
            section = self.providers[name]
            cells = []
            for category in PROVIDER_CATEGORIES:
                verdict = section.get(category)
                cells.append(f"{category}={verdict['kind'] if verdict else '-'}")
            lines.append(f"  {name:<16} {' '.join(cells)}")
        flagged = [
            (name, d) for name, d in sorted(self.domains.items())
            if d.get("dangling") or d.get("borrowed_at") or (d.get("exposure") or {}).get("kind") == "vulnerable"
        ]
        lines.append("")
        lines.append(f"flagged domains ({len(flagged)}):")
        for name, d in flagged:
            marks = []
            if d.get("dangling"):
                marks.append("dangling")
                marks.extend(p["kind"] for p in d.get("takeover_paths", []))
            if d.get("borrowed_at"):
                marks.append(f"borrowed@{len(d['borrowed_at'])}")
            if (d.get("exposure") or {}).get("kind") == "vulnerable":
                marks.append("origin-exposed")
            lines.append(f"  {name:<40} {', '.join(marks)}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["fqdn", "rcode", "provider", "matched_suffix", "recheck", "dangling_fp",
             "takeover_paths", "borrowed_at", "tls_borrowing", "origin_exposed"]
        )
        for name in sorted(self.domains):
            d = self.domains[name]
            dangling = d.get("dangling") or {}
            writer.writerow([
                name,
                d.get("rcode", ""),
                d.get("provider", ""),
                d.get("matched_suffix", ""),
                d.get("recheck", ""),
                dangling.get("matched_fp", ""),
                ";".join(p["kind"] for p in d.get("takeover_paths", [])),
                ";".join(sorted(d.get("borrowed_at", []))),
                ";".join(f"{prov}:{tls}" for prov, tls in sorted(d.get("tls_borrowing_by_provider", {}).items())),
                (d.get("exposure") or {}).get("kind", ""),
            ])
        return buf.getvalue()


def _write_compact(doc: dict[str, Any], fh: TextIO, encoded: str = "") -> None:
    """Write ``json.dumps(doc, ensure_ascii=False, separators=(",", ":"))
    + "\\n"`` to ``fh``: each member of an object-valued top-level section
    (each provider, domain and response) in one write, every other
    top-level member in one, all through one encoder. The keys written
    one by one (the top-level ones and the names in each section) are
    strings. The values of the section named ``encoded`` are JSON texts
    already, written as they are. A value ``json`` cannot encode raises as
    ``json.dumps`` raises."""
    encode = _compact_encoder()

    def member(key: str, value: Any) -> str:
        return f"{encode_basestring(key)}:{encode(value)}"

    separator = "{"
    for key, value in doc.items():
        if isinstance(value, dict):
            fh.write(f"{separator}{encode_basestring(key)}:{{")
            inner = ""
            for name, entry in value.items():
                fh.write(inner + (f"{encode_basestring(name)}:{entry}" if key == encoded else member(name, entry)))
                inner = ","
            fh.write("}")
        else:
            fh.write(separator + member(key, value))
        separator = ","
    fh.write("}\n" if separator == "," else "{}\n")


def _response_slots(
    providers: dict[str, dict[str, Any]], domains: dict[str, dict[str, Any]]
) -> Iterator[tuple[str, dict[str, Any], str]]:
    """(label, holder, key) for each place a report keeps a response: a
    provider's borrowing baseline and the ``response`` of each evidence
    item of a provider verdict or a domain's exposure verdict."""
    verdicts = []
    for name, section in providers.items():
        if "borrowing_baseline" in section:
            yield f"provider {name!r} borrowing_baseline", section, "borrowing_baseline"
        verdicts.extend(
            (f"provider {name!r} {category}", section[category])
            for category in PROVIDER_CATEGORIES if category in section
        )
    verdicts.extend((f"domain {name!r} exposure", d["exposure"]) for name, d in domains.items() if "exposure" in d)
    for label, verdict in verdicts:
        _require_object(label, verdict)
        evidence = verdict.get("evidence", [])
        if not isinstance(evidence, list):
            raise ValueError(f"{label} evidence must be a JSON array, not {type(evidence).__name__}")
        for item in evidence:
            _require_object(f"{label} evidence item", item)
            if "response" in item:
                yield f"{label} evidence response", item, "response"


def _require_object(label: str, value: Any) -> None:
    if not isinstance(value, dict):
        raise ValueError(f"{label} must be a JSON object, not {type(value).__name__}")


def diff_reports(prev: ScanReport, nxt: ScanReport) -> dict[str, Any]:
    """Changes between two runs of the same provider DB: providers newly
    vulnerable / newly fixed per category, domains newly dangling /
    resolved."""
    prev_hash = prev.meta.get("provider_db_sha1")
    next_hash = nxt.meta.get("provider_db_sha1")
    if prev_hash != next_hash:
        raise IncompatibleRuns(f"provider DB changed between runs: {prev_hash} -> {next_hash}")
    out: dict[str, Any] = {
        "newly_vulnerable": {},
        "newly_fixed": {},
        "newly_dangling": [],
        "resolved_dangling": [],
    }
    for category in PROVIDER_CATEGORIES:
        turned, fixed = [], []
        names = set(prev.providers) | set(nxt.providers)
        for name in sorted(names):
            before = ((prev.providers.get(name) or {}).get(category) or {}).get("kind")
            after = ((nxt.providers.get(name) or {}).get(category) or {}).get("kind")
            if after == "vulnerable" and before != "vulnerable":
                turned.append(name)
            if before == "vulnerable" and after != "vulnerable":
                fixed.append(name)
        if turned:
            out["newly_vulnerable"][category] = turned
        if fixed:
            out["newly_fixed"][category] = fixed
    prev_dangling = {n for n, d in prev.domains.items() if d.get("dangling")}
    next_dangling = {n for n, d in nxt.domains.items() if d.get("dangling")}
    out["newly_dangling"] = sorted(next_dangling - prev_dangling)
    out["resolved_dangling"] = sorted(prev_dangling - next_dangling)
    out["empty"] = not (
        out["newly_vulnerable"] or out["newly_fixed"] or out["newly_dangling"] or out["resolved_dangling"]
    )
    return out
