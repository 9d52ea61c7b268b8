"""
``core.record`` keeps what ``@dataclass(frozen=True)`` gives. Every record
class of the package is compared with a plain frozen-dataclass twin made
from the same fields and methods: ``__init__``'s signature, repr, eq,
hash, order, ``fields()``, ``replace()`` and ``FrozenInstanceError``. Each
``__post_init__`` rule still raises, and a field option the decorator
does not support raises TypeError when the class is made.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import sys
from dataclasses import FrozenInstanceError, InitVar, KW_ONLY, dataclass, field, fields, replace
from typing import ClassVar

import pytest

import dvahunter
from dvahunter.checker import HostedDomainRecord, Recheck
from dvahunter.core import (
    DnsObservation,
    Evidence,
    Fqdn,
    HttpProbe,
    HttpResponseSummary,
    Rcode,
    Scheme,
    TransportFailure,
    Verdict,
    VerdictKind,
    record,
)
from dvahunter.crawler import PrefixDictionary, WildcardSignature
from dvahunter.fronting import FrontingTuple, HarvestedUrl, UrlKind
from dvahunter.providers import CdnMatch, DnsSignal, DnsSignalKind, Fingerprint, SchemaError, ShareEdge
from dvahunter.simnet import DiscontinuedService, HostEntry, Origin, ZoneRecord
from dvahunter.takeover import DanglingFinding, DanglingStage, TakeoverKind, TakeoverPath
from dvahunter.worlds import ProviderFlags

A, B = Fqdn("a.example.com"), Fqdn("b.example.com")
OBS = DnsObservation(A, ("x.cdn.example.net",), (), ("192.0.2.1",))
PROBE = HttpProbe.request("192.0.2.1", Scheme.HTTPS, A)
FP = Fingerprint("gone", status=404)
URL = HarvestedUrl(B, "/logo.png", UrlKind.IMAGE, b"\x01" * 20)

# two instances of each record class, as keyword arguments; they differ
# in their first field
EXAMPLES = {
    Fqdn: [{"name": "a.example.com"}, {"name": "b.example.com"}],
    DnsObservation: [
        {"fqdn": A, "cname_chain": ("x.cdn.example.net",), "a_records": ("192.0.2.1",), "end_rcode": Rcode.NOERROR},
        {"fqdn": B, "rcode": Rcode.NXDOMAIN},
    ],
    HttpProbe: [
        {"target_ip": "192.0.2.1", "scheme": Scheme.HTTPS, "host_header": A, "sni": A},
        {"target_ip": "192.0.2.2", "scheme": Scheme.HTTP, "host_header": A, "path": "/x"},
    ],
    HttpResponseSummary: [
        {"status": 200, "headers": (("Server", "edge"),), "body_excerpt": b"hi"},
        {"status": 404, "tls_cert_name": "edge.example.net"},
    ],
    Evidence: [{"kind": "probe", "detail": "d", "probe": PROBE}, {"kind": "dns", "detail": "d", "observation": OBS}],
    Verdict: [
        {"kind": VerdictKind.VULNERABLE, "evidence": (Evidence("probe", "d", probe=PROBE),)},
        {"kind": VerdictKind.INCONCLUSIVE},
    ],
    ProviderFlags: [
        {"fronting": True, "borrowing": False, "takeover": True},
        {"fronting": False, "borrowing": False, "takeover": True},
    ],
    TakeoverPath: [
        {"kind": TakeoverKind.NO_VERIFICATION, "via_provider": "P", "rationale": "r", "validated": True},
        {"kind": TakeoverKind.FLAWED_W1, "via_provider": "P", "rationale": "r"},
    ],
    DanglingFinding: [
        {"fqdn": A, "provider": "P", "fingerprint": FP, "stage": DanglingStage.HTTP_STAGE, "matched_cname": "x"},
        {"fqdn": B, "provider": "P", "fingerprint": FP, "stage": DanglingStage.DNS_STAGE, "matched_cname": "x",
         "terminal": OBS},
    ],
    DnsSignal: [{"kind": DnsSignalKind.RESOLVES_TO, "ip": "192.0.2.1"}, {"kind": DnsSignalKind.NXDOMAIN}],
    Fingerprint: [
        {"id": "a", "status": 404, "body_contains": b"gone"},
        {"id": "b", "dns_signal": DnsSignal(DnsSignalKind.NXDOMAIN)},
    ],
    ShareEdge: [{"provider": "P", "template": "{domain}.cdn.example.net"}, {"provider": "Q", "note": "cert"}],
    CdnMatch: [
        {"provider": "P", "matched_suffix": ".cdn.example.net", "matched_cname": "x.cdn.example.net"},
        {"provider": "Q", "matched_suffix": ".cdn.example.net", "matched_cname": "x.cdn.example.net"},
    ],
    HarvestedUrl: [
        {"domain": A, "path": "/a.js", "kind": UrlKind.SCRIPT, "stability_hash": b"\x00" * 20},
        {"domain": B, "path": "/logo.png", "kind": UrlKind.IMAGE, "stability_hash": b"\x01" * 20,
         "response": HttpResponseSummary(status=200)},
    ],
    FrontingTuple: [
        {"fd": A, "td": B, "ut": URL, "ingress_ip": "192.0.2.1"},
        {"fd": Fqdn("c.example.com"), "td": B, "ut": URL, "ingress_ip": "192.0.2.1",
         "rt": HttpResponseSummary(status=200)},
    ],
    HostedDomainRecord: [
        {"fqdn": A, "provider": "P", "matched_suffix": ".cdn.example.net", "matched_cname": "x.cdn.example.net",
         "observation": OBS, "recheck": Recheck.CONFIRMED},
        {"fqdn": B, "provider": "P", "matched_suffix": ".cdn.example.net", "matched_cname": "x.cdn.example.net",
         "observation": OBS, "recheck": Recheck.UNCHECKED, "evidence": (Evidence("dns", "d"),)},
    ],
    PrefixDictionary: [{"prefixes": ("www", "dev.api")}, {"prefixes": ("mail",)}],
    WildcardSignature: [
        {"cname_chain": ("x.cdn.example.net",), "a_records": frozenset({"192.0.2.1"}), "ns": frozenset()},
        {"cname_chain": (), "a_records": frozenset(), "ns": frozenset({"ns1.example.net"})},
    ],
    HostEntry: [{"host": "a.example.com", "origin_ip": "192.0.2.1"}, {"host": "b.example.com", "origin_ip": "192.0.2.1"}],
    ZoneRecord: [{"cname": "x.cdn.example.net", "external": True}, {"a": ("192.0.2.1",), "ns": ("ns1.example.net",)}],
    Origin: [{"body": b"<html>", "dynamic": True}, {"body": b"other", "content_type": "text/plain"}],
    DiscontinuedService: [{"provider": "P", "origin_ip": "192.0.2.1"}, {"provider": "Q"}],
}
# frozen dataclasses that are no records: ScenarioProvider's cached_property
# needs an instance dict, and ProviderProfile's metadata a default_factory
PLAIN = {"ScenarioProvider", "ProviderProfile"}


def package_dataclasses():
    for info in pkgutil.iter_modules(dvahunter.__path__):
        module = importlib.import_module(f"dvahunter.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__ and dataclasses.is_dataclass(value):
                yield value


def defined_here(value, module_file):
    """A method, property or classmethod the class's source defines; not
    one that dataclass generated."""
    value = getattr(value, "fget", None) or getattr(value, "__func__", None) or value
    return getattr(getattr(value, "__code__", None), "co_filename", None) == module_file


def twin(cls):
    """``cls`` rebuilt as a plain ``@dataclass(frozen=True)``: the same
    fields, options and methods, no slots and dataclass's own __init__."""
    module_file = sys.modules[cls.__module__].__file__
    namespace = {name: value for name, value in vars(cls).items() if defined_here(value, module_file)}
    namespace["__annotations__"] = {f.name: f.type for f in fields(cls)}
    for f in fields(cls):
        namespace[f.name] = field(default=f.default, init=f.init, repr=f.repr, hash=f.hash, compare=f.compare)
    namespace.update(__module__=cls.__module__, __qualname__=cls.__qualname__)
    return dataclass(frozen=True, order=cls.__dataclass_params__.order)(type(cls.__name__, (), namespace))


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError as err:  # a dict field, as Origin.per_host
        return str(err)


def test_every_frozen_dataclass_is_a_record():
    frozen = {cls for cls in package_dataclasses() if cls.__dataclass_params__.frozen}
    assert {cls.__name__ for cls in frozen} == {cls.__name__ for cls in EXAMPLES} | PLAIN
    for cls in frozen - set(EXAMPLES):
        assert "__slots__" not in vars(cls)
    for cls in EXAMPLES:
        assert "__dict__" not in vars(cls) and cls.__slots__ == tuple(f.name for f in fields(cls))
        assert {f"__set_{f.name}" for f in fields(cls) if f.init} <= set(cls.__init__.__code__.co_freevars)


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda cls: cls.__name__)
def test_record_behaves_as_its_frozen_dataclass_twin(cls):
    plain = twin(cls)
    assert inspect.signature(cls.__init__) == inspect.signature(plain.__init__)
    assert cls.__match_args__ == plain.__match_args__
    attributes = ("name", "type", "default", "init", "repr", "hash", "compare")
    assert [[getattr(f, a) for a in attributes] for f in fields(cls)] == [
        [getattr(f, a) for a in attributes] for f in fields(plain)
    ]
    records = [cls(**kwargs) for kwargs in EXAMPLES[cls]]
    plains = [plain(**kwargs) for kwargs in EXAMPLES[cls]]
    assert [cls(*[getattr(r, f.name) for f in fields(cls) if f.init]) for r in records] == records
    for r, p in zip(records, plains):
        assert repr(r) == repr(p)
        assert hash_or_error(r) == hash_or_error(p)
        for f in fields(cls):
            assert getattr(r, f.name) == getattr(p, f.name)
    first, second = records
    assert first == cls(**EXAMPLES[cls][0]) and first != second
    assert (first == second) == (plains[0] == plains[1])
    if cls.__dataclass_params__.order:
        assert (first < second, first > second, first <= second) == (
            plains[0] < plains[1], plains[0] > plains[1], plains[0] <= plains[1]
        )
    name = fields(cls)[0].name
    changed = replace(first, **{name: getattr(second, name)})
    assert repr(changed) == repr(replace(plains[0], **{name: getattr(second, name)}))
    assert changed == cls(**{**EXAMPLES[cls][0], name: getattr(second, name)})
    for f in fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(first, f.name, getattr(second, f.name))
        with pytest.raises(FrozenInstanceError):
            delattr(first, f.name)
    assert not hasattr(first, "__dict__")


# A known defect, not yet mended: dataclass's frozen __setattr__ and
# __delattr__ keep the class given to ``dataclass`` in their closure, and
# ``slots=True`` replaces that class, so their ``super()`` call raises
# TypeError for an attribute that is no field. Repointing the closure at
# the slotted class mends it, but lets the given classes be collected at
# import, which moves glibc's heap enough to push the benchmark's
# detect-wide ``peak_rss_mib`` past its bound with an equal tracemalloc
# peak; see CHANGES.md.
@pytest.mark.xfail(raises=TypeError, strict=True, reason="dataclass's frozen __setattr__ names the pre-slots class")
@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda cls: cls.__name__)
def test_an_attribute_that_is_no_field_is_refused_as_by_the_twin(cls):
    record_, plain = cls(**EXAMPLES[cls][0]), twin(cls)(**EXAMPLES[cls][0])
    for change in (lambda r: setattr(r, "no_such_field", 1), lambda r: delattr(r, "no_such_field")):
        with pytest.raises(FrozenInstanceError) as expected:
            change(plain)
        with pytest.raises(FrozenInstanceError) as refused:
            change(record_)
        assert str(refused.value) == str(expected.value)


def test_fields_left_to_post_init_are_set():
    fp = Fingerprint("a", status=404)
    assert (fp.needs_http, fp.needs_dns) == (True, False)
    prefixes = PrefixDictionary(("www", "dev.api"))
    assert prefixes.positions == {"www": 0, "dev.api": 1}


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: HttpProbe("192.0.2.1", Scheme.HTTP, A, sni=A), ValueError),
        (lambda: HttpProbe("192.0.2.1", Scheme.HTTPS, A), ValueError),
        (lambda: HttpProbe("192.0.2.1", Scheme.HTTP, A, path="x"), ValueError),
        (lambda: DnsObservation(A, a_records=("192.0.2.1",), rcode=Rcode.NXDOMAIN), ValueError),
        (lambda: DnsObservation(A, ns=("ns1.example.net",), rcode=Rcode.SERVFAIL), ValueError),
        (lambda: HttpResponseSummary(), ValueError),
        (lambda: HttpResponseSummary(status=200, failure=TransportFailure.TIMEOUT), ValueError),
        (lambda: HttpResponseSummary(status=600), ValueError),
        (lambda: Verdict(VerdictKind.VULNERABLE), ValueError),
        (lambda: Verdict.vulnerable(
            [Evidence("probe", "d", response=HttpResponseSummary.failed(TransportFailure.TIMEOUT))]
        ), ValueError),
        (lambda: Fingerprint("a"), SchemaError),
        (lambda: Fingerprint("a", status=404, no_response=True), SchemaError),
        (lambda: Fingerprint("a", body_contains=b""), SchemaError),
        (lambda: FrontingTuple(A, A, URL, "192.0.2.1"), ValueError),
    ],
    ids=[
        "http-with-sni", "https-without-sni", "relative-path", "nxdomain-with-records", "servfail-with-records",
        "neither-status-nor-failure", "status-and-failure", "status-out-of-range", "vulnerable-without-evidence",
        "vulnerable-on-failed-probe", "fingerprint-without-field", "no-response-with-http-field",
        "empty-body-phrase", "front-equals-target",
    ],
)
def test_post_init_rules_still_raise(build, error):
    with pytest.raises(error):
        build()


def test_an_undocumented_record_documents_its_signature():
    @record
    class Point:
        x: int
        y: int = 0

    @dataclass(frozen=True)
    class Plain:
        x: int
        y: int = 0

    assert Point.__doc__ == Plain.__doc__.replace("Plain", "Point")
    assert Point(1) == Point(1, 0) and repr(Point(1)) == repr(Plain(1)).replace("Plain", "Point")


def make_factory_field():
    class Bad:
        x: list = field(default_factory=list)

    return Bad


def make_default_out_of_init():
    class Bad:
        x: int
        seen: int = field(default=0, init=False)

    return Bad


def make_kw_only_field():
    class Bad:
        x: int = field(kw_only=True)

    return Bad


def make_kw_only_marker():
    class Bad:
        x: int
        _: KW_ONLY
        y: int = 0

    return Bad


def make_init_var():
    class Bad:
        x: int
        scale: InitVar[int] = 1

    return Bad


def make_class_var():
    class Bad:
        x: int
        limit: ClassVar[int] = 3

    return Bad


def make_default_first():
    class Bad:
        x: int = 0
        y: int

    return Bad


@pytest.mark.parametrize(
    "make",
    [
        make_factory_field, make_default_out_of_init, make_kw_only_field, make_kw_only_marker, make_init_var,
        make_class_var, make_default_first,
    ],
    ids=["default_factory", "default-out-of-init", "kw_only", "KW_ONLY", "InitVar", "ClassVar", "default-before-required"],
)
def test_an_unsupported_field_option_is_refused_when_the_class_is_made(make):
    with pytest.raises(TypeError):
        record(make())
