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
        # labels in the longest suffix any rule can match; a wildcard's
        # suffixes are one label longer than the rule
        self._depth = max(
            [entry.count(".") + 1 for entry in rules | exceptions]
            + [entry.count(".") + 2 for entry in wildcards]
        )

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
        name = name.lower().rstrip(".")
        best = name[name.rfind(".") + 1:]  # the implicit default rule "*"
        exception = None
        parent, end = "", len(name)
        # shortest candidate first, so a later match is a longer one
        for _ in range(self._depth):
            dot = name.rfind(".", 0, end)
            candidate = name[dot + 1:]
            if candidate in self._exceptions:
                # exception rule: the suffix is the candidate minus its
                # first label, and the longest exception beats any rule
                exception = parent
            elif candidate in self._rules or (parent and parent in self._wildcards):
                best = candidate
            if dot < 0:
                break
            parent, end = candidate, dot
        return best if exception is None else exception

    def registrable_domain(self, name: str) -> Optional[str]:
        """Public suffix plus one label; None when the name is itself a
        suffix (nothing registrable)."""
        name = name.lower().rstrip(".")
        suffix = self.public_suffix(name)
        if name == suffix:
            return None
        prefix = name[: -(len(suffix) + 1)]
        return prefix[prefix.rfind(".") + 1:] + "." + suffix
