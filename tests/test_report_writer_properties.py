"""
Property tests for the report writer: for any JSON-able document in any
section, ``ScanReport.dump`` writes exactly the bytes of ``json.dumps(doc,
ensure_ascii=False, separators=(",", ":")) + "\\n"``; where ``json``
raises, ``dump`` raises too, keeps an earlier report and leaves no
temporary file.
"""

import enum
import json
import os
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dvahunter.report import ScanReport, _write_compact  # noqa: E402


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Tag(str, enum.Enum):
    A = "tag-a"


TRICKY = ["", "é", "域名", "✓", "\x00", "\x1f", "\x7f", " ", '"quoted"', "back\\slash", "tab\there", "\U0001f600"]
texts = st.one_of(st.sampled_from(TRICKY), st.text(st.characters(blacklist_categories=("Cs",)), max_size=12))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    texts,
    st.sampled_from([Level.LOW, Level.HIGH, Tag.A]),
)
keys = st.one_of(texts, st.integers(), st.floats(allow_nan=True, allow_infinity=True), st.booleans(), st.none())
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
    ),
    max_leaves=30,
)
# json has no spelling for these: a value of another type, or a key
bad_values = st.sampled_from([b"bytes", {1, 2}, complex(1, 2), object()])
bad_keys = st.sampled_from([(1, 2), b"key", frozenset()])
broken_documents = st.one_of(
    st.tuples(documents, bad_values).map(list),
    st.builds(lambda doc, bad: {"first": doc, "then": [bad]}, documents, bad_values),
    st.builds(lambda doc, key: {"first": doc, key: 1}, documents, bad_keys),
)


def compact(doc) -> str:
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":")) + "\n"


def report_of(doc, key=0) -> ScanReport:
    # the document in a section written whole, or as one entry of a
    # section written entry by entry; the response table holds texts, each
    # the compact JSON of an object decoded from JSON
    sections = [
        lambda: {"meta": {"doc": doc}},
        lambda: {"domains": {"a.example": {"doc": doc}, "b.example": {}}},
        lambda: {"providers": {"P": {"fronting": {"kind": "x"}, "doc": doc}}},
        lambda: {"responses": {"0123456789ab": compact(json.loads(compact(doc))).rstrip("\n")}},
    ]
    return ScanReport(**sections[key]()).finalize()


@settings(max_examples=300, deadline=None)
@given(doc=documents, key=st.integers(0, 3))
def test_dump_equals_compact_json_dumps(doc, key):
    report = report_of(doc, key)
    expected = compact(report.to_json())
    with tempfile.TemporaryDirectory() as where:
        out = Path(where) / "report.json"
        report.dump(out)
        assert out.read_bytes() == expected.encode("utf-8")
        assert os.listdir(where) == ["report.json"]


@settings(max_examples=100, deadline=None)
@given(doc=broken_documents, key=st.integers(0, 2))
def test_dump_raises_where_json_raises(doc, key):
    report = report_of(doc, key)
    with pytest.raises(TypeError):
        compact(report.to_json())
    with tempfile.TemporaryDirectory() as where:
        out = Path(where) / "report.json"
        out.write_text("earlier report\n", encoding="utf-8")
        with pytest.raises(TypeError):
            report.dump(out)
        assert out.read_text(encoding="utf-8") == "earlier report\n"
        assert os.listdir(where) == ["report.json"]


def test_large_document_is_written_in_pieces():
    """A document of many entries reaches the file in many writes, none
    of them close to the whole text, which still equals json's."""
    writes: list[str] = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    doc = {f"d{i:05d}": {"kind": "vulnerable", "evidence": [{"detail": "é" * 20, "n": i}]} for i in range(3000)}
    report = ScanReport(domains=doc).finalize()
    _write_compact(report.to_json(), Recorder())
    expected = compact(report.to_json())
    assert "".join(writes) == expected
    assert len(writes) > 10 and max(map(len, writes)) < len(expected) / 10
