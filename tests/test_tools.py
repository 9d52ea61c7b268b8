import importlib.util
from pathlib import Path

from dvahunter.crawler import EnumerationResult

LINECOV = Path(__file__).resolve().parents[1] / "tools" / "linecov.py"


def test_linecov_resolves_a_property_to_its_getter():
    # a property once failed with "'property' object has no attribute '__code__'"
    spec = importlib.util.spec_from_file_location("linecov", LINECOV)
    linecov = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(linecov)
    code = linecov.function_code("crawler.EnumerationResult.unconfirmed")
    assert code is EnumerationResult.unconfirmed.fget.__code__
