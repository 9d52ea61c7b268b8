"""
Golden reports: each world below, scanned on the mock backend, must write
byte-for-byte the same report.

A change that only makes the scanner faster or smaller leaves these
hashes alone. A change that means to alter a report updates the constant
and says why in CHANGES.md.

The reference constant is the SHA1 of the file written by

    dvahunter scan --targets src/dvahunter/data/reference_world_targets.txt \
        --scenario src/dvahunter/data/reference_world.json \
        --backend mock --mode all --seed 7 --out report.json

The generated constants are the SHA1s of the reports that
``perfbench/run.py --workload <name> --seed 1`` writes: the world built by
``perfbench/worldgen.py`` with seed 1, scanned in the world's mode with
seed 1.

The schema-1 constants are the SHA1s the same scans wrote as schema-1
reports (indented JSON, responses inline, no ``meta.stats``). Turning a
schema-2 report back into that form must give those bytes: schema 2
changes how the report is spelled, not what it says.
"""

import copy
import hashlib
import json

import pytest

from dvahunter.report import ScanReport, diff_reports
from dvahunter.scan import run_scan
from dvahunter.simnet import scenario_to_json
from tests.conftest import DATA, scan_config

REFERENCE_REPORT_SHA1 = "a2543b28744436d253f51dde6a3d3d3e04440382"

GENERATED_REPORT_SHA1 = {
    "detect-wide": "1b3b52506bc10b36511f31098e202944a8237f37",
    "takeover-churn": "34a7785a954984baa97af078b6945ace5a0c84c1",
}

SCHEMA_1_REPORT_SHA1 = {
    "reference": "208dd805d9cb9abb3b56975c823c8acd39db6c36",
    "detect-wide": "390d4d7d2fc672dfe874c0079791ef727329d19b",
    "takeover-churn": "b639c055d454c91c41a1cc34f864ceb744d2046b",
}


def to_schema_1(doc: dict) -> dict:
    """A schema-2 document as a schema-1 report spelled it: every response
    ref replaced by its response, no ``responses`` table, no
    ``meta.stats``."""
    doc = copy.deepcopy(doc)
    table = doc.pop("responses")
    verdicts = [d["exposure"] for d in doc["domains"].values() if "exposure" in d]
    for section in doc["providers"].values():
        if "borrowing_baseline" in section:
            section["borrowing_baseline"] = table[section["borrowing_baseline"]]
        verdicts.extend(section[c] for c in ("fronting", "borrowing", "takeover") if c in section)
    for verdict in verdicts:
        for item in verdict["evidence"]:
            if "response" in item:
                item["response"] = table[item["response"]]
    del doc["meta"]["stats"]
    doc["schema"] = "dvahunter-report/1"
    return doc


def schema_1_bytes(doc: dict) -> bytes:
    """The bytes the schema-1 writer wrote for a document."""
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def scan_reference(out):
    run_scan(scan_config(DATA["reference_world_targets.txt"], DATA["reference_world.json"], mode="all", seed=7, out=out))


def scan_generated(tmp_path, db, worldgen, workload, out):
    # the inputs as perfbench/run.py:prepare_inputs writes them
    world = worldgen.BUILDERS[workload](db, 1)
    scenario, targets = tmp_path / "scenario.json", tmp_path / "targets.txt"
    scenario.write_text(json.dumps(scenario_to_json(world.scenario)), encoding="utf-8")
    targets.write_text("\n".join(world.targets) + "\n", encoding="utf-8")
    run_scan(scan_config(targets, scenario, mode=world.mode, seed=1, out=out))


def check_schema_1_form(raw: bytes, workload: str) -> None:
    assert hashlib.sha1(schema_1_bytes(to_schema_1(json.loads(raw)))).hexdigest() == SCHEMA_1_REPORT_SHA1[workload]


def test_reference_report_is_byte_identical(tmp_path):
    out = tmp_path / "report.json"
    scan_reference(out)
    raw = out.read_bytes()
    assert hashlib.sha1(raw).hexdigest() == REFERENCE_REPORT_SHA1
    check_schema_1_form(raw, "reference")


@pytest.mark.parametrize("workload", sorted(GENERATED_REPORT_SHA1))
def test_generated_report_is_byte_identical(tmp_path, db, worldgen, workload):
    out = tmp_path / "report.json"
    scan_generated(tmp_path, db, worldgen, workload, out)
    raw = out.read_bytes()
    assert hashlib.sha1(raw).hexdigest() == GENERATED_REPORT_SHA1[workload]
    check_schema_1_form(raw, workload)


def test_schema_1_and_schema_2_reports_of_one_scan_load_alike(tmp_path):
    out, old = tmp_path / "report.json", tmp_path / "schema-1.json"
    scan_reference(out)
    doc = json.loads(out.read_bytes())
    old.write_bytes(schema_1_bytes(to_schema_1(doc)))
    new_report, old_report = ScanReport.load(out), ScanReport.load(old)
    # the schema-1 responses move into the table under the same refs
    assert old_report.responses == new_report.responses
    assert {ref: new_report.response(ref) for ref in new_report.responses} == doc["responses"]
    assert old_report.providers == new_report.providers
    assert old_report.domains == new_report.domains
    assert old_report.counters == new_report.counters
    assert {k: v for k, v in new_report.meta.items() if k != "stats"} == old_report.meta
    old_report.verify_counters()
    assert diff_reports(old_report, new_report)["empty"]
    assert diff_reports(new_report, old_report)["empty"]
    # a loaded schema-1 report writes schema 2
    rewritten = tmp_path / "rewritten.json"
    old_report.meta["stats"] = new_report.meta["stats"]
    old_report.dump(rewritten)
    assert rewritten.read_bytes() == out.read_bytes()
