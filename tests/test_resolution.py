"""
One resolution per name: over a whole scan, each name gets at most one
``RRType.ALL`` lookup. Enumeration's answers feed the record crawl, and
the crawl's answers feed the borrowing precondition guard. Only the
deliberate re-resolutions (the terminal chain element and validation
after an attacker registration) ask again, and those use ``RRType.A``.
"""

from collections import Counter

from dvahunter.scan import run_scan_with_context
from tests.conftest import DATA, scan_config


def test_reference_scan_resolves_each_name_once():
    ctx = run_scan_with_context(
        scan_config(DATA["reference_world_targets.txt"], DATA["reference_world.json"],
                    mode="all", seed=7, record_probes=True)
    )
    lookups = Counter(name for name, rrtype in ctx.transport.query_log if rrtype == "all")
    assert ctx.nonhosted and ctx.report.domains  # the borrowing and crawl phases had work
    repeated = {name: count for name, count in lookups.items() if count > 1}
    assert repeated == {}
