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
"""

import hashlib
import json

import pytest

from dvahunter.scan import run_scan
from dvahunter.simnet import scenario_to_json
from tests.conftest import DATA, scan_config

REFERENCE_REPORT_SHA1 = "208dd805d9cb9abb3b56975c823c8acd39db6c36"

GENERATED_REPORT_SHA1 = {
    "detect-wide": "390d4d7d2fc672dfe874c0079791ef727329d19b",
    "takeover-churn": "b639c055d454c91c41a1cc34f864ceb744d2046b",
}


def test_reference_report_is_byte_identical(tmp_path):
    out = tmp_path / "report.json"
    run_scan(scan_config(DATA["reference_world_targets.txt"], DATA["reference_world.json"], mode="all", seed=7, out=out))
    assert hashlib.sha1(out.read_bytes()).hexdigest() == REFERENCE_REPORT_SHA1


@pytest.mark.parametrize("workload", sorted(GENERATED_REPORT_SHA1))
def test_generated_report_is_byte_identical(tmp_path, db, worldgen, workload):
    # the inputs as perfbench/run.py:prepare_inputs writes them
    world = worldgen.BUILDERS[workload](db, 1)
    scenario, targets, out = tmp_path / "scenario.json", tmp_path / "targets.txt", tmp_path / "report.json"
    scenario.write_text(json.dumps(scenario_to_json(world.scenario)), encoding="utf-8")
    targets.write_text("\n".join(world.targets) + "\n", encoding="utf-8")
    run_scan(scan_config(targets, scenario, mode=world.mode, seed=1, out=out))
    assert hashlib.sha1(out.read_bytes()).hexdigest() == GENERATED_REPORT_SHA1[workload]
