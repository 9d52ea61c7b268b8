"""
Scan reports: a versioned JSON document with per-provider and per-domain
sections, self-consistent counters, deterministic ordering, and a diff
operation for periodic monitoring (the prior report file is the entire
scan state; no database involved).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, TextIO

SCHEMA = "dvahunter-report/1"

PROVIDER_CATEGORIES = ("fronting", "borrowing", "takeover")


class IncompatibleRuns(ValueError):
    """Reports built against different provider DBs cannot be diffed."""


class CounterMismatch(ValueError):
    """Stored counters disagree with a recomputation from the sections."""


@dataclass
class ScanReport:
    meta: dict[str, Any] = field(default_factory=dict)
    providers: dict[str, dict[str, Any]] = field(default_factory=dict)
    domains: dict[str, dict[str, Any]] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

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
        self.verify_counters()
        return {
            "schema": SCHEMA,
            "meta": self.meta,
            "counters": dict(sorted(self.counters.items())),
            "providers": {name: self.providers[name] for name in sorted(self.providers)},
            "domains": {name: self.domains[name] for name in sorted(self.domains)},
        }

    def dump(self, path: str | Path) -> None:
        """Write the report as indented UTF-8 JSON plus a final newline:
        the bytes of ``json.dumps(self.to_json(), indent=2,
        ensure_ascii=False) + "\\n"``, streamed by ``_write_indented`` so
        that the whole text is never held in memory.

        The text goes to a temporary file beside ``path`` that replaces
        ``path`` only once it is complete, so a dump that fails leaves an
        earlier report at ``path`` as it was and no temporary file behind.
        """
        path = Path(path)
        doc = self.to_json()
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with tmp.open("w", encoding="utf-8") as fh:
                _write_indented(doc, fh)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def from_json(cls, data: Any) -> "ScanReport":
        """The report in a parsed document; ValueError when the document
        is not a report object of this schema whose sections, provider
        sections, provider category entries and domain entries are
        objects."""
        if not isinstance(data, dict):
            raise ValueError(f"a report must be a JSON object, not {type(data).__name__}")
        if data.get("schema") != SCHEMA:
            raise ValueError(f"unsupported report schema: {data.get('schema')!r}")
        sections = {key: data.get(key, {}) for key in ("meta", "providers", "domains", "counters")}
        for key, section in sections.items():
            _require_object(f"report {key}", section)
        for name, provider in sections["providers"].items():
            _require_object(f"provider {name!r}", provider)
            for category in PROVIDER_CATEGORIES:
                if category in provider:
                    _require_object(f"provider {name!r} {category}", provider[category])
        for name, domain in sections["domains"].items():
            _require_object(f"domain {name!r}", domain)
        return cls(**sections)

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


_FLUSH_PIECES = 512


def _write_indented(doc: Any, fh: TextIO) -> None:
    """Write ``json.dumps(doc, indent=2, ensure_ascii=False) + "\\n"`` to
    ``fh``. With an indent, ``json`` runs its pure-Python encoder, one
    generator per nesting level; this writer appends the same pieces to
    a list, quotes strings with the C ``encode_basestring``, and writes
    the list out whenever a container closes with ``_FLUSH_PIECES`` or
    more pieces held. A value ``json`` cannot encode raises TypeError; a
    container that holds itself raises RecursionError."""
    out: list[str] = []
    append = out.append
    encode = encode_basestring

    def write(value: Any, indent: str) -> None:
        if isinstance(value, str):
            append(encode(value))
        elif isinstance(value, dict):
            write_object(value, indent)
        elif isinstance(value, (list, tuple)):
            write_array(value, indent)
        else:
            append(_scalar_text(value))

    def write_object(obj: dict, indent: str) -> None:
        if not obj:
            append("{}")
            return
        inner = indent + "  "
        separator = "{" + inner
        for key, value in obj.items():
            append(separator)
            append(encode(key if isinstance(key, str) else _key_text(key)))
            append(": ")
            # most values are strings: quote them without a call to write
            if isinstance(value, str):
                append(encode(value))
            else:
                write(value, inner)
            separator = "," + inner
        append(indent + "}")
        if len(out) >= _FLUSH_PIECES:
            fh.write("".join(out))
            out.clear()

    def write_array(items: Any, indent: str) -> None:
        if not items:
            append("[]")
            return
        inner = indent + "  "
        separator = "[" + inner
        for value in items:
            append(separator)
            if isinstance(value, str):
                append(encode(value))
            else:
                write(value, inner)
            separator = "," + inner
        append(indent + "]")
        if len(out) >= _FLUSH_PIECES:
            fh.write("".join(out))
            out.clear()

    write(doc, "\n")
    append("\n")
    fh.write("".join(out))


def _scalar_text(value: Any) -> str:
    """A value that is neither a string nor a container, as ``json``
    spells it (int and float subclasses by the base type's repr)."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _key_text(key: Any) -> str:
    """A non-string dict key as ``json`` spells it before quoting it."""
    if key is None or isinstance(key, (int, float)):
        return _scalar_text(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


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
