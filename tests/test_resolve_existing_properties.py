"""
Property test for enumeration's seam: for any parent and prefix
dictionary, ``MockTransport.resolve_existing(parent, dictionary)``
answers exactly what one ``resolve`` call per name ``prefix.parent``
would, for the names that fit in 253 characters, kept to the names that
exist with records, in dictionary order; and it counts and logs one
query per name that fits. The worlds drawn have wildcard zones or none,
dangling targets, attacker-registration overrides and names too long to
ask.
"""

import dataclasses

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dvahunter.core import DomainSyntaxError, Rcode, parse_fqdn  # noqa: E402
from dvahunter.crawler import PrefixDictionary  # noqa: E402
from dvahunter.simnet import SimulatedInternet, VerificationFailed, ZoneRecord  # noqa: E402
from dvahunter.transport import MockTransport  # noqa: E402
from dvahunter.worlds import build_reference_world  # noqa: E402

LONG_PARENT = ".".join(["p" * 63, "q" * 63, "r" * 40]) + ".site.test"  # 178 characters
# the reference world brings dangling-target synthesis for every kind of
# discontinued fingerprint; these zones add what it lacks
EXTRA_ZONES = {
    "www.site.test": ZoneRecord(a=("198.18.9.2",), ns=("ns1.site.test",)),
    "dev.api.site.test": ZoneRecord(a=("198.18.9.3",)),
    "ns-only.site.test": ZoneRecord(ns=("ns1.site.test",)),
    "empty.site.test": ZoneRecord(),
    "broken.site.test": ZoneRecord(servfail=True),
    "to-broken.site.test": ZoneRecord(cname="broken.site.test"),
    "to-nowhere.site.test": ZoneRecord(cname="gone.nowhere.test", external=True),
    "a.loop.test": ZoneRecord(cname="b.loop.test"),
    "b.loop.test": ZoneRecord(cname="a.loop.test"),
    # held names of 253 and of 254 characters: only the first may be asked
    f"{'f' * 63}.{'f' * 10}.{LONG_PARENT}": ZoneRecord(a=("198.18.9.4",)),
    f"{'g' * 63}.{'g' * 11}.{LONG_PARENT}": ZoneRecord(a=("198.18.9.5",)),
}
WILDCARD_ZONES = {
    "*.wild.test": ZoneRecord(a=("198.18.9.1",)),
    "*.deep.wild.test": ZoneRecord(cname="www.site.test"),
    "www.wild.test": ZoneRecord(cname="to-broken.site.test"),
}
LABELS = ["www", "api", "x1", "deep", "legacy", "promo", "zz-top", "h" * 63]


def splits(name):
    """Every (prefix, parent) that joins to ``name`` at one of its dots."""
    return [(name[:i], name[i + 1:]) for i, char in enumerate(name) if char == "."]


def is_prefix(text):
    try:
        parse_fqdn(f"{text}.example.com")
    except DomainSyntaxError:
        return False
    return True


@pytest.fixture(scope="module")
def scenarios(db):
    """The reference world with the extra zones, without and with the
    wildcard zones."""
    world = build_reference_world(db).scenario
    plain = dataclasses.replace(world, zones={**world.zones, **EXTRA_ZONES})
    wild = dataclasses.replace(world, zones={**plain.zones, **WILDCARD_ZONES})
    return {False: plain, True: wild}


def held_names(zones):
    """The names worth asking about: every zone name (a wildcard's under
    the label "www" and under the label "deep") and every CNAME target."""
    names = set()
    for name, record in zones.items():
        names.update({name.replace("*", "www", 1), name.replace("*", "deep", 1)})
        if record.cname:
            names.add(record.cname)
    return sorted(names)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_batch_equals_one_resolve_per_name(db, scenarios, data):
    scenario = scenarios[data.draw(st.booleans(), label="wildcards")]
    net = SimulatedInternet(scenario, db)
    zones = scenario.zones
    common = held_names(zones)
    # attacker registrations add zone overrides: assigned names resolve again
    registered = []
    for host in data.draw(st.lists(st.sampled_from(sorted(scenario.discontinued)), max_size=4, unique=True)):
        try:
            registered.append(net.attacker_register(scenario.discontinued[host].provider, host, "acct-x"))
        except VerificationFailed:
            pass
    # a name and its parent come from each group as often as from all the
    # world's names: the registrations, the wildcard zones, the extra zones,
    # the discontinued hosts, their dangling targets, the longest names and
    # a parent that holds nothing
    groups = (
        [pair for name in registered for pair in splits(name)],
        [pair for name in held_names({name: zones[name] for name in WILDCARD_ZONES if name in zones})
         for pair in splits(name)],
        [pair for name in held_names(EXTRA_ZONES) for pair in splits(name)],
        [pair for name in sorted(scenario.discontinued) for pair in splits(name)],
        [tuple(zones[host].cname.split(".", 1)) for host in sorted(scenario.discontinued) if zones[host].cname],
        [(f"{'f' * 63}.{'f' * 10}", LONG_PARENT), (f"{'g' * 63}.{'g' * 11}", LONG_PARENT)],
        [("www", "absent.test")],
        [pair for name in common for pair in splits(name)],
    )
    group = data.draw(st.sampled_from([pairs for pairs in groups if pairs]), label="group")
    first, parent = data.draw(st.sampled_from(group), label="name")
    held = sorted({prefix for name in registered + common for prefix, under in splits(name)
                   if under == parent and is_prefix(prefix)})
    # the drawn name's prefix, some of the other prefixes of names held
    # under the parent, and prefixes of no held name, in any order
    label = st.sampled_from(LABELS + [prefix.split(".")[0] for prefix in held])
    others = data.draw(st.lists(st.one_of(label, st.builds(lambda *labels: ".".join(labels), label, label)),
                                max_size=20), label="other prefixes")
    chosen = data.draw(st.lists(st.sampled_from(held), unique=True), label="held prefixes") if held else []
    first = [first] if is_prefix(first) else []
    prefixes = data.draw(st.permutations(list(dict.fromkeys(first + chosen + others))), label="prefixes")
    dictionary = PrefixDictionary(tuple(prefixes))

    batch = MockTransport(net, record=True)
    found = batch.resolve_existing(parent, dictionary)

    asked = [f"{prefix}.{parent}" for prefix in prefixes if len(prefix) + 1 + len(parent) <= 253]
    expected = {}
    for name in asked:
        obs = MockTransport(net).resolve(parse_fqdn(name))
        if obs.rcode is Rcode.NOERROR and obs.has_records:
            expected[name] = obs
    assert found == expected
    assert list(found) == list(expected)  # in dictionary order
    assert batch.stats.dns_queries == len(asked)
    assert batch.query_log == [(name, "all") for name in asked]
