"""``PublicSuffixList.public_suffix`` walks a name's dots from the right and
stops at the deepest rule; it must answer as the join-every-label loop it
replaced, kept here as the reference."""

from hypothesis import given, settings
from hypothesis import strategies as st

from dvahunter.psl import PublicSuffixList


def reference_public_suffix(psl: PublicSuffixList, name: str) -> str:
    labels = name.lower().rstrip(".").split(".")
    best = labels[-1]
    best_len = 1
    for i in range(len(labels)):
        candidate = ".".join(labels[i:])
        size = len(labels) - i
        if candidate in psl._exceptions:
            return ".".join(labels[i + 1:])
        if candidate in psl._rules and size > best_len:
            best, best_len = candidate, size
        parent = ".".join(labels[i + 1:])
        if parent and parent in psl._wildcards and size > best_len:
            best, best_len = candidate, size
    return best


def reference_registrable_domain(psl: PublicSuffixList, name: str):
    name = name.lower().rstrip(".")
    suffix = reference_public_suffix(psl, name)
    if name == suffix:
        return None
    return name[: -(len(suffix) + 1)].split(".")[-1] + "." + suffix


LABELS = st.sampled_from(["a", "b", "c", "www", "co", "xn--p1ai", "", "A"])
FRONT = st.lists(LABELS, max_size=4)


def named_under(entries):
    """A name ending in one of ``entries``, random labels in front, in
    either case and with or without the trailing dot."""
    return st.builds(
        lambda front, entry, case, dot: case(".".join([*front, entry])) + dot,
        FRONT, st.sampled_from(sorted(entries)), st.sampled_from([str.lower, str.upper]), st.sampled_from(["", "."]),
    )


def own_names(psl: PublicSuffixList):
    lists = (psl._rules, psl._exceptions, psl._wildcards, {"zz", "com"})
    return st.one_of([named_under(entries) for entries in lists if entries])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bundled_list_answers_as_the_reference(psl, data):
    name = data.draw(own_names(psl))
    assert psl.public_suffix(name) == reference_public_suffix(psl, name)
    assert psl.registrable_domain(name) == reference_registrable_domain(psl, name)


ENTRIES = st.lists(LABELS.filter(bool), min_size=1, max_size=3).map(".".join)


@settings(max_examples=300, deadline=None)
@given(
    rules=st.sets(ENTRIES, min_size=1, max_size=5),
    wildcards=st.sets(ENTRIES, max_size=3),
    exceptions=st.sets(ENTRIES, max_size=3),
    data=st.data(),
)
def test_drawn_lists_answer_as_the_reference(rules, wildcards, exceptions, data):
    psl = PublicSuffixList(rules, wildcards, exceptions)
    name = data.draw(own_names(psl))
    assert psl.public_suffix(name) == reference_public_suffix(psl, name)
