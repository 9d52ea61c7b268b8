"""
Subdomain enumeration: expands target SLDs through a prefix dictionary,
confirms candidates by DNS, and filters wildcard zones by comparing each
answer against the wildcard signature instead of mere existence, so
explicitly defined hosts under a wildcard survive.

Dictionary labels are syntax-checked once, when the dictionary is loaded;
each candidate is then the text ``prefix + "." + sld``, so only the total
name length is left to check per candidate. Enumeration builds no
candidate itself: it hands the SLD and the dictionary to the transport's
``resolve_existing``, which asks every candidate that fits in 253
characters and answers only the names that exist. Nearly every candidate
is NXDOMAIN; the mock finds the few that exist through an index of the
names its world holds, and the live backend sends every query.

The observation that confirmed a name is handed on with the result, so
the record crawl does not resolve the name a second time.
"""

from __future__ import annotations

import logging
import string
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from .core import MAX_NAME_LENGTH, DnsObservation, Fqdn, derive_rng, parse_fqdn, read_text, record
from .transport import RRType

logger = logging.getLogger(__name__)

RANDOM_PREFIX_LENGTH = 16
WILDCARD_PROBES = 3


class WildcardInconclusive(Exception):
    """Random-prefix answers disagreed; the zone cannot be classified."""


@record
class PrefixDictionary:
    """Ordered, deduplicated, lowercase label prefixes. A prefix may span
    several labels (e.g. "dev.api"). ``positions`` maps each prefix to its
    index in ``prefixes``."""

    prefixes: tuple[str, ...]
    positions: dict[str, int] = field(init=False, repr=False, compare=False)
    _lengths: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for label in dict.fromkeys(label for prefix in self.prefixes for label in prefix.split(".")):
            parse_fqdn(f"{label}.example.com")  # syntax check, raises DomainSyntaxError
        object.__setattr__(self, "positions", {prefix: i for i, prefix in enumerate(self.prefixes)})
        object.__setattr__(self, "_lengths", tuple(sorted(map(len, self.prefixes))))

    @classmethod
    def from_lines(cls, lines: list[str]) -> "PrefixDictionary":
        seen = set()
        ordered = []
        for raw in lines:
            line = raw.split("#", 1)[0].strip().lower()
            if not line:
                continue
            if line not in seen:
                seen.add(line)
                ordered.append(line)
        return cls(prefixes=tuple(ordered))

    @classmethod
    def load(cls, path: str | Path, on_bytes: Optional[Callable[[bytes], Any]] = None) -> "PrefixDictionary":
        """The dictionary in a file; ``on_bytes`` gets the file's bytes as
        read (see ``read_text``)."""
        return cls.from_lines(read_text(path, on_bytes).splitlines())

    def __len__(self) -> int:
        return len(self.prefixes)

    def names_under(self, parent: str) -> list[str]:
        """``prefix.parent`` for each prefix whose name fits in 253
        characters, in dictionary order: the names enumeration asks."""
        room = MAX_NAME_LENGTH - len(parent) - 1
        return [f"{prefix}.{parent}" for prefix in self.prefixes if len(prefix) <= room]

    def count_under(self, parent: str) -> int:
        """``len(self.names_under(parent))``, without building the names."""
        return bisect_right(self._lengths, MAX_NAME_LENGTH - len(parent) - 1)


@record
class WildcardSignature:
    """The common answer a wildcard zone returns for random prefixes."""

    cname_chain: tuple[str, ...]
    a_records: frozenset[str]
    ns: frozenset[str]

    @classmethod
    def of(cls, obs: DnsObservation) -> "WildcardSignature":
        return cls(
            cname_chain=obs.cname_chain,
            a_records=frozenset(obs.a_records),
            ns=frozenset(obs.ns),
        )


@dataclass
class EnumerationResult:
    """The enumeration of ``dictionary`` under ``parent``.

    ``observations`` holds the answer that confirmed each name in
    ``confirmed``, keyed by the name's text; callers reuse it instead of
    resolving the name again."""

    parent: str
    dictionary: PrefixDictionary
    confirmed: list[Fqdn] = field(default_factory=list)
    observations: dict[str, DnsObservation] = field(default_factory=dict)
    wildcard: Optional[WildcardSignature] = None
    wildcard_inconclusive: bool = False
    excluded_by_wildcard: list[str] = field(default_factory=list)

    @property
    def unconfirmed(self) -> list[str]:
        """Every candidate that did not resolve with records, in dictionary
        order: NXDOMAIN names, failed queries (SERVFAIL, timeouts) and
        names over 253 characters, which were never asked. Derived when
        read; a scan never reads it."""
        found = self.observations.keys() | set(self.excluded_by_wildcard)
        suffix = "." + self.parent
        return [name for prefix in self.dictionary.prefixes if (name := prefix + suffix) not in found]


LABEL_ALPHABET = string.ascii_lowercase + string.digits


def _random_label(rng) -> str:
    """RANDOM_PREFIX_LENGTH characters of LABEL_ALPHABET, each drawn as
    ``rng.choice(LABEL_ALPHABET)`` draws it on CPython 3.11-3.13: six
    random bits, drawn again while they read 36 or more."""
    getrandbits = rng.getrandbits
    label = []
    while len(label) < RANDOM_PREFIX_LENGTH:
        index = getrandbits(6)
        if index < len(LABEL_ALPHABET):
            label.append(LABEL_ALPHABET[index])
    return "".join(label)


def detect_wildcard(sld: Fqdn, transport, seed: int = 0) -> Optional[WildcardSignature]:
    """Probe WILDCARD_PROBES random prefixes under the SLD. All resolving
    with one common answer means wildcard (returns the signature); none
    resolving means no wildcard (returns None); disagreement raises
    WildcardInconclusive."""
    rng = derive_rng(seed, "wildcard", str(sld))
    signatures = []
    for _ in range(WILDCARD_PROBES):
        name = parse_fqdn(f"{_random_label(rng)}.{sld}")
        obs = transport.resolve(name, RRType.ALL)
        if obs.exists_with_records:
            signatures.append(WildcardSignature.of(obs))
        else:
            signatures.append(None)
    if all(sig is None for sig in signatures):
        return None
    if any(sig is None for sig in signatures) or len(set(signatures)) != 1:
        raise WildcardInconclusive(f"random prefixes under {sld} answered inconsistently")
    return signatures[0]


def enumerate_subdomains(
    sld: Fqdn,
    dictionary: PrefixDictionary,
    transport,
    seed: int = 0,
) -> EnumerationResult:
    """Resolve every prefix under the SLD in one ``resolve_existing`` call,
    in dictionary order, keep the names whose DNS answer carries records,
    and drop the ones indistinguishable from the wildcard signature. Output
    is sorted and deduplicated, and carries the observation of every
    confirmed name; every other candidate is read from ``unconfirmed``."""
    result = EnumerationResult(parent=sld.name, dictionary=dictionary)
    try:
        result.wildcard = detect_wildcard(sld, transport, seed=seed)
    except WildcardInconclusive:
        result.wildcard_inconclusive = True
        logger.warning("wildcard check inconclusive for %s; enumeration proceeds without exclusion", sld)

    found = transport.resolve_existing(sld.name, dictionary)
    confirmed: dict[str, DnsObservation] = {}
    for text, obs in found.items():
        if result.wildcard is not None and WildcardSignature.of(obs) == result.wildcard:
            result.excluded_by_wildcard.append(text)
        else:
            confirmed[text] = obs
    for text in sorted(confirmed):
        obs = confirmed[text]
        result.confirmed.append(obs.fqdn)
        result.observations[text] = obs
    return result
