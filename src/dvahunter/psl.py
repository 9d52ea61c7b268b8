"""
Public-suffix handling on top of a bundled snapshot file.

The file follows the de facto Public Suffix List text format: one suffix
per line, UTF-8, "//" comments ignored, "*." wildcard rules and "!"
exception rules supported. The snapshot is static so registrable-domain
grouping stays reproducible offline; its date is carried into reports.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Any, Callable, Optional

from .core import read_text

_DATE_RE = re.compile(r"snapshot date:\s*(\d{4}-\d{2}-\d{2})")


class PublicSuffixList:
    def __init__(self, rules: set[str], wildcards: set[str], exceptions: set[str], snapshot_date: str = "unknown"):
        self._rules = rules
        self._wildcards = wildcards
        self._exceptions = exceptions
        self.snapshot_date = snapshot_date

    @classmethod
    def load(cls, path: str | Path, on_bytes: Optional[Callable[[bytes], Any]] = None) -> "PublicSuffixList":
        """The list in a suffix file; ``on_bytes`` gets the file's bytes as
        read (see ``read_text``)."""
        rules: set[str] = set()
        wildcards: set[str] = set()
        exceptions: set[str] = set()
        snapshot_date = "unknown"
        for raw in read_text(path, on_bytes).splitlines():
            line = raw.strip()
            if line.startswith("//"):
                found = _DATE_RE.search(line)
                if found:
                    snapshot_date = found.group(1)
                continue
            if not line:
                continue
            entry = line.split()[0].lower()
            if entry.startswith("!"):
                exceptions.add(entry[1:])
            elif entry.startswith("*."):
                wildcards.add(entry[2:])
            else:
                rules.add(entry)
        if not rules and not wildcards:
            raise ValueError(f"no suffix rules found in {path}")
        return cls(rules, wildcards, exceptions, snapshot_date)

    def public_suffix(self, name: str) -> str:
        """Longest matching public suffix of ``name`` (lowercase, no
        trailing dot). Unlisted TLDs fall back to the default "*" rule:
        the last label is the suffix."""
        labels = name.lower().rstrip(".").split(".")
        best = labels[-1]  # implicit default rule "*"
        best_len = 1
        for i in range(len(labels)):
            candidate = ".".join(labels[i:])
            size = len(labels) - i
            if candidate in self._exceptions:
                # exception rule: the suffix is the candidate minus its
                # first label, and it beats any wildcard match
                return ".".join(labels[i + 1:])
            if candidate in self._rules and size > best_len:
                best, best_len = candidate, size
            parent = ".".join(labels[i + 1:])
            if parent and parent in self._wildcards and size > best_len:
                best, best_len = candidate, size
        return best

    def registrable_domain(self, name: str) -> Optional[str]:
        """Public suffix plus one label; None when the name is itself a
        suffix (nothing registrable)."""
        name = name.lower().rstrip(".")
        suffix = self.public_suffix(name)
        if name == suffix:
            return None
        prefix = name[: -(len(suffix) + 1)]
        return prefix.split(".")[-1] + "." + suffix
