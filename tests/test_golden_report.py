"""
Golden report: the bundled reference world, scanned on the mock backend
with ``--mode all`` and seed 7, must write byte-for-byte the same report.

A change that only makes the scanner faster or smaller leaves this hash
alone. A change that means to alter the report updates the constant and
says why in CHANGES.md. The constant is the SHA1 of the file written by

    dvahunter scan --targets src/dvahunter/data/reference_world_targets.txt \
        --scenario src/dvahunter/data/reference_world.json \
        --backend mock --mode all --seed 7 --out report.json
"""

import hashlib

from dvahunter.scan import run_scan
from tests.conftest import DATA, scan_config

REFERENCE_REPORT_SHA1 = "9cb55c9f123fe9aebadb004bd9c908773d7b7e28"


def test_reference_report_is_byte_identical(tmp_path):
    out = tmp_path / "report.json"
    run_scan(scan_config(DATA["reference_world_targets.txt"], DATA["reference_world.json"], mode="all", seed=7, out=out))
    assert hashlib.sha1(out.read_bytes()).hexdigest() == REFERENCE_REPORT_SHA1
