"""
One resolution per name: over a whole scan, each name gets at most one
``RRType.ALL`` lookup. Enumeration's answers feed the record crawl, and
borrowing probes the crawl's non-hosted names without resolving them
again. Only the deliberate re-resolutions (the terminal chain element and
validation after an attacker registration) ask again, and those use
``RRType.A``.

The same scan checks the invariant borrowing relies on instead of a guard
of its own: every name the crawl hands to borrowing attributes to no
provider.
"""

from collections import Counter

from dvahunter.providers import identify_cdn
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
    hosted = [n.name for n in ctx.nonhosted if identify_cdn(ctx.observations[n.name], ctx.db) is not None]
    assert hosted == []
