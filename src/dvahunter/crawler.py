"""
Subdomain enumeration: expands target SLDs through a prefix dictionary,
confirms candidates by DNS, and filters wildcard zones by comparing each
answer against the wildcard signature instead of mere existence, so
explicitly defined hosts under a wildcard survive.

Dictionary labels are syntax-checked once, when the dictionary is loaded;
each candidate is then the text ``prefix + "." + sld``, so only the total
name length is left to check per candidate. The candidates of one SLD go
to the transport in one ``resolve_existing`` call, which answers only the
names that exist: nearly every candidate is NXDOMAIN, and such a name
stays a string, with no Fqdn or DnsObservation built for it.

The observation that confirmed a name is handed on with the result, so
the record crawl does not resolve the name a second time.
"""

from __future__ import annotations

import logging
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .core import MAX_NAME_LENGTH, DnsObservation, Fqdn, derive_rng, parse_fqdn
from .transport import RRType

logger = logging.getLogger(__name__)

RANDOM_PREFIX_LENGTH = 16
WILDCARD_PROBES = 3


class WildcardInconclusive(Exception):
    """Random-prefix answers disagreed; the zone cannot be classified."""


@dataclass(frozen=True)
class PrefixDictionary:
    """Ordered, deduplicated, lowercase label prefixes. A prefix may span
    several labels (e.g. "dev.api")."""

    prefixes: tuple[str, ...]

    def __post_init__(self) -> None:
        for label in dict.fromkeys(label for prefix in self.prefixes for label in prefix.split(".")):
            parse_fqdn(f"{label}.example.com")  # syntax check, raises DomainSyntaxError

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
    def load(cls, path: str | Path) -> "PrefixDictionary":
        return cls.from_lines(Path(path).read_text(encoding="utf-8").splitlines())

    def __len__(self) -> int:
        return len(self.prefixes)


@dataclass(frozen=True)
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
    """``observations`` holds the answer that confirmed each name in
    ``confirmed``, keyed by the name's text; callers reuse it instead of
    resolving the name again."""

    confirmed: list[Fqdn] = field(default_factory=list)
    observations: dict[str, DnsObservation] = field(default_factory=dict)
    unconfirmed: list[str] = field(default_factory=list)
    wildcard: Optional[WildcardSignature] = None
    wildcard_inconclusive: bool = False
    excluded_by_wildcard: list[str] = field(default_factory=list)


def _random_label(rng) -> str:
    alphabet = string.ascii_lowercase + string.digits
    return "".join(rng.choice(alphabet) for _ in range(RANDOM_PREFIX_LENGTH))


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
    """Join every prefix with the SLD, resolve the candidates in one batch,
    in dictionary order, keep the ones whose DNS answer carries records, and
    drop the ones indistinguishable from the wildcard signature. Output is
    sorted and deduplicated, and carries the observation of every
    confirmed name; per-candidate timeouts land in ``unconfirmed``."""
    result = EnumerationResult()
    try:
        result.wildcard = detect_wildcard(sld, transport, seed=seed)
    except WildcardInconclusive:
        result.wildcard_inconclusive = True
        logger.warning("wildcard check inconclusive for %s; enumeration proceeds without exclusion", sld)

    suffix = "." + sld.name
    candidates = [prefix + suffix for prefix in dictionary.prefixes]
    # dictionary labels and the SLD are both validated already: only the
    # total length can still make a candidate illegal
    found = transport.resolve_existing([text for text in candidates if len(text) <= MAX_NAME_LENGTH])
    result.unconfirmed = [text for text in candidates if text not in found]
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
