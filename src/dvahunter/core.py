"""
Shared domain types for the scanner: domain names, DNS observations,
HTTP probes and response summaries, and the verdict vocabulary.

Everything here is immutable after construction. A frozen value type, here
or in any other module of the package, is a ``record``.
"""

from __future__ import annotations

import hashlib
import inspect
import random
import re
import sys
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

MAX_NAME_LENGTH = 253
BODY_EXCERPT_CAP = 4096

_LABEL = r"[a-z0-9](?:[a-z0-9-]{0,61}[a-z0-9])?"
_LABEL_RE = re.compile(_LABEL)
_NAME_RE = re.compile(rf"{_LABEL}(?:\.{_LABEL})*")  # use fullmatch: "$" also matches before a final newline


class DomainSyntaxError(ValueError):
    """Raised for names that do not follow DNS hostname syntax."""


class DomainTooLongError(DomainSyntaxError):
    """Raised for names longer than 253 characters."""


class Rcode(Enum):
    NOERROR = "noerror"
    NXDOMAIN = "nxdomain"
    SERVFAIL = "servfail"
    TIMEOUT = "timeout"


class Scheme(Enum):
    HTTP = "http"
    HTTPS = "https"


class TransportFailure(Enum):
    CONNECT_REFUSED = "connect_refused"
    TLS_ERROR = "tls_error"
    TIMEOUT = "timeout"


class VerdictKind(Enum):
    VULNERABLE = "vulnerable"
    NOT_VULNERABLE = "not_vulnerable"
    INCONCLUSIVE = "inconclusive"


def record(cls: Optional[type] = None, /, *, order: bool = False):
    """``@dataclass(frozen=True, slots=True)``, with an ``__init__`` that
    stores each field through the bound ``__set__`` of its slot
    descriptor. Dataclass's own frozen ``__init__`` calls
    ``object.__setattr__`` once per field, which costs about a third of
    building a small record on CPython 3.11.

    The rest is dataclass's: parameters in field order with their
    defaults, ``__post_init__``, eq, hash, repr, ``order``, ``fields()``,
    ``replace()`` and ``FrozenInstanceError``. A field with ``init=False``
    is left for ``__post_init__`` to set, and may have no default. A
    ``default_factory``, a ``kw_only`` field and an annotation that is no
    field (``InitVar``, ``ClassVar``, ``KW_ONLY``) raise TypeError when the
    class is made.
    """

    def wrap(cls: type) -> type:
        undocumented = cls.__doc__ is None
        if undocumented:  # else dataclass signs the init-less class "Name()", slowly
            cls.__doc__ = cls.__name__
        annotated = set(cls.__dict__.get("__annotations__", {}))
        cls = dataclass(cls, init=False, frozen=True, slots=True, order=order)
        params, body, cells = [], [], {}
        for f in fields(cls):
            if f.default_factory is not MISSING or f.kw_only or not (f.init or f.default is MISSING):
                raise TypeError(
                    f"record {cls.__name__}.{f.name}: default_factory, kw_only and a default"
                    " outside __init__ are not supported"
                )
            annotated.discard(f.name)
            if not f.init:
                continue  # __post_init__ sets it
            setter, default = f"__set_{f.name}", f"__default_{f.name}"
            cells[setter] = getattr(cls, f.name).__set__
            if f.default is MISSING:
                if params and "=" in params[-1]:
                    raise TypeError(f"record {cls.__name__}: non-default field {f.name!r} follows a default")
                params.append(f.name)
            else:
                cells[default] = f.default
                params.append(f"{f.name}={default}")
            body.append(f"{setter}(self, {f.name})")
        if annotated:
            raise TypeError(f"record {cls.__name__}: {sorted(annotated)} are not fields")
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        source = (
            f"def __create_fn__({', '.join(cells)}):\n"
            f" def __init__({', '.join(['self', *params])}):\n"
            + "".join(f"  {line}\n" for line in body or ["pass"])
            + " return __init__\n"
        )
        namespace: dict[str, Any] = {}
        exec(source, sys.modules[cls.__module__].__dict__, namespace)
        init = namespace["__create_fn__"](**cells)
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__annotations__ = {f.name: f.type for f in fields(cls) if f.init} | {"return": None}
        cls.__init__ = init
        if undocumented:
            cls.__doc__ = cls.__name__ + str(inspect.signature(cls)).replace(" -> None", "")
        return cls

    return wrap if cls is None else wrap(cls)


@record(order=True)
class Fqdn:
    """A normalized, lowercase fully qualified domain name: its dotted
    text, made by ``parse_fqdn``. Equality, ordering and hashing follow
    the text."""

    name: str

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Fqdn({self.name!r})"

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.name.split("."))


def parse_fqdn(text: str) -> Fqdn:
    """Parse and normalize a domain name.

    Raises DomainSyntaxError on non-ASCII text and empty/illegal labels, and
    DomainTooLongError past 253 characters. Comparison of the result is
    case-insensitive because normalization happens here.
    """
    if not text:
        raise DomainSyntaxError("empty domain name")
    name = text.strip().rstrip(".")
    if not name.isascii():  # before lowering: str.lower folds KELVIN SIGN into "k"
        raise DomainSyntaxError(f"non-ASCII character in {text!r}")
    name = name.lower()
    if not name:
        raise DomainSyntaxError(f"no labels in {text!r}")
    if len(name) > MAX_NAME_LENGTH:
        raise DomainTooLongError(f"{len(name)} chars exceeds {MAX_NAME_LENGTH}: {text[:60]!r}...")
    if _NAME_RE.fullmatch(name) is None:
        # only to word the error: the first label that fails
        for label in name.split("."):
            if not label:
                raise DomainSyntaxError(f"empty label in {text!r}")
            if len(label) > 63:
                raise DomainSyntaxError(f"label over 63 chars in {text!r}")
            if _LABEL_RE.fullmatch(label) is None:
                raise DomainSyntaxError(f"illegal label {label!r} in {text!r}")
    return Fqdn(name)


@record
class DnsObservation:
    """Resolved record set for one FQDN.

    ``rcode`` describes the queried name itself: NOERROR whenever the name
    holds any record, NXDOMAIN only when the name has nothing at all.
    ``cname_chain`` is the chain followed from the name; ``a_records`` are
    the terminal addresses (empty when the chain dead-ends). A dangling
    name therefore shows up as NOERROR + chain + no addresses.

    ``end_rcode`` is the rcode of the chain's last name: what an A query
    for that name would get. A resolver's reply rcode belongs to that name
    (RFC 6604; RFC 1034 §4.3.2), so the answer that followed the chain
    already holds it. None when there is no chain or its end is unknown: a
    loop, a chain cut short, or a reply that does not show it. It is not
    part of ``to_json``.

    The chain and ``ns`` hold the answer's names as text (lowercase, no
    trailing dot), unchecked: a CNAME or NS target may be any DNS name
    (RFC 2181 §11), such as ``_acme-challenge.example.com``.
    """

    fqdn: Fqdn
    cname_chain: tuple[str, ...] = ()
    ns: tuple[str, ...] = ()
    a_records: tuple[str, ...] = ()
    rcode: Rcode = Rcode.NOERROR
    cname_loop: bool = False
    end_rcode: Optional[Rcode] = None

    def __post_init__(self) -> None:
        if self.rcode is not Rcode.NOERROR and (self.cname_chain or self.ns or self.a_records):
            raise ValueError(f"rcode {self.rcode.value} observation must carry no records")

    @property
    def has_records(self) -> bool:
        return bool(self.cname_chain or self.ns or self.a_records)

    @property
    def exists_with_records(self) -> bool:
        """The test for a name that exists: NOERROR with some record."""
        return self.rcode is Rcode.NOERROR and self.has_records

    def to_json(self) -> dict[str, Any]:
        return {
            "fqdn": str(self.fqdn),
            "cname_chain": list(self.cname_chain),
            "ns": list(self.ns),
            "a_records": list(self.a_records),
            "rcode": self.rcode.value,
            "cname_loop": self.cname_loop,
        }


@record
class HttpProbe:
    """One HTTP(S) request with independently controlled SNI and Host.
    An https probe must carry an SNI and a plain-http one must not."""

    target_ip: str
    scheme: Scheme
    host_header: Fqdn
    path: str = "/"
    sni: Optional[Fqdn] = None

    def __post_init__(self) -> None:
        if self.scheme is Scheme.HTTP and self.sni is not None:
            raise ValueError("plain-http probe cannot carry an SNI")
        if self.scheme is Scheme.HTTPS and self.sni is None:
            raise ValueError("https probe requires an SNI")
        if not self.path.startswith("/"):
            raise ValueError(f"path must begin with '/': {self.path!r}")

    @classmethod
    def request(cls, target_ip: str, scheme: Scheme, host: Fqdn, path: str = "/") -> "HttpProbe":
        """A probe with SNI = Host over https and no SNI over plain http."""
        return cls(target_ip, scheme, host, path, sni=host if scheme is Scheme.HTTPS else None)

    def to_json(self) -> dict[str, Any]:
        return {
            "target_ip": self.target_ip,
            "scheme": self.scheme.value,
            "sni": str(self.sni) if self.sni else None,
            "host": str(self.host_header),
            "path": self.path,
        }


def sha1_body(data: bytes) -> bytes:
    """SHA1 digest of exactly the given bytes (20 bytes)."""
    return hashlib.sha1(data).digest()


EMPTY_BODY_SHA1 = sha1_body(b"")


@record
class HttpResponseSummary:
    """Summary of one HTTP exchange: either a status or a transport failure.

    The full body is kept only as its SHA1 and a capped excerpt; the hash
    decides content equality, the excerpt serves substring fingerprints.
    """

    status: Optional[int] = None
    headers: tuple[tuple[str, str], ...] = ()
    body_hash: bytes = EMPTY_BODY_SHA1
    body_excerpt: bytes = b""
    failure: Optional[TransportFailure] = None
    tls_cert_name: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.status is None) == (self.failure is None):
            raise ValueError("exactly one of status/failure must be set")
        if self.status is not None and not (100 <= self.status <= 599):
            raise ValueError(f"status out of range: {self.status}")

    @classmethod
    def from_body(
        cls,
        status: int,
        body: bytes,
        headers: Iterable[tuple[str, str]] = (),
        tls_cert_name: Optional[str] = None,
    ) -> "HttpResponseSummary":
        return cls(
            status=status,
            headers=tuple(headers),
            body_hash=sha1_body(body),
            body_excerpt=body[:BODY_EXCERPT_CAP],
            tls_cert_name=tls_cert_name,
        )

    @classmethod
    def failed(cls, failure: TransportFailure) -> "HttpResponseSummary":
        return cls(failure=failure)

    @property
    def ok(self) -> bool:
        return self.status is not None and 200 <= self.status <= 299

    def header(self, name: str) -> Optional[str]:
        lowered = name.lower()
        for key, value in self.headers:
            if key.lower() == lowered:
                return value
        return None

    def to_json(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "failure": self.failure.value if self.failure else None,
            "headers": [[k, v] for k, v in self.headers],
            "body_sha1": self.body_hash.hex(),
            "body_excerpt": self.body_excerpt.decode("utf-8", "replace"),
            "tls_cert_name": self.tls_cert_name,
        }


@record
class Evidence:
    """One step of a verdict's paper trail."""

    kind: str
    detail: str
    probe: Optional[HttpProbe] = None
    response: Optional[HttpResponseSummary] = None
    observation: Optional[DnsObservation] = None
    fingerprint_id: Optional[str] = None

    def to_json(self, response_ref: Callable[[HttpResponseSummary], str]) -> dict[str, Any]:
        """The step as JSON, its response as ``response_ref`` names it (a
        report's ``ScanReport.response_ref``)."""
        out: dict[str, Any] = {"kind": self.kind, "detail": self.detail}
        if self.probe is not None:
            out["probe"] = self.probe.to_json()
        if self.response is not None:
            out["response"] = response_ref(self.response)
        if self.observation is not None:
            out["observation"] = self.observation.to_json()
        if self.fingerprint_id is not None:
            out["fingerprint_id"] = self.fingerprint_id
        return out


@record
class Verdict:
    """Outcome plus evidence. A Vulnerable verdict cannot be built from
    failed probes: transport failures force Inconclusive upstream."""

    kind: VerdictKind
    evidence: tuple[Evidence, ...] = ()

    def __post_init__(self) -> None:
        if self.kind is VerdictKind.VULNERABLE:
            if not self.evidence:
                raise ValueError("Vulnerable verdict requires evidence")
            for item in self.evidence:
                if item.response is not None and item.response.failure is not None:
                    raise ValueError("Vulnerable verdict cannot rest on a failed probe")

    @classmethod
    def vulnerable(cls, evidence: Iterable[Evidence]) -> "Verdict":
        return cls(VerdictKind.VULNERABLE, tuple(evidence))

    @classmethod
    def not_vulnerable(cls, evidence: Iterable[Evidence] = ()) -> "Verdict":
        return cls(VerdictKind.NOT_VULNERABLE, tuple(evidence))

    @classmethod
    def inconclusive(cls, evidence: Iterable[Evidence] = ()) -> "Verdict":
        return cls(VerdictKind.INCONCLUSIVE, tuple(evidence))

    def to_json(self, response_ref: Callable[[HttpResponseSummary], str]) -> dict[str, Any]:
        return {"kind": self.kind.value, "evidence": [e.to_json(response_ref) for e in self.evidence]}


def read_text(path: str | Path, on_bytes: Optional[Callable[[bytes], Any]] = None) -> str:
    """A file's UTF-8 text, read once: ``on_bytes`` (a hash's ``update``,
    say) gets the very bytes decoded, which are dropped on return."""
    raw = Path(path).read_bytes()
    if on_bytes is not None:
        on_bytes(raw)
    return raw.decode("utf-8")


def derive_rng(seed: int, *scope: object) -> random.Random:
    """Independent RNG for one (seed, scope...) slot.

    Scoped derivation keeps every random choice reproducible regardless of
    which other choices were made first: two runs with the same seed make
    identical picks.
    """
    material = "|".join([str(seed)] + [str(part) for part in scope])
    digest = hashlib.sha1(material.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))
