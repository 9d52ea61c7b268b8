import importlib.util
import re
from pathlib import Path

from dvahunter import simnet
from dvahunter.crawler import EnumerationResult
from dvahunter.simnet import SimulatedInternet

LINECOV = Path(__file__).resolve().parents[1] / "tools" / "linecov.py"


def load_linecov():
    spec = importlib.util.spec_from_file_location("linecov", LINECOV)
    linecov = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(linecov)
    return linecov


def test_linecov_resolves_a_property_to_its_getter():
    # a property once failed with "'property' object has no attribute '__code__'"
    code = load_linecov().function_code("crawler.EnumerationResult.unconfirmed")
    assert code is EnumerationResult.unconfirmed.fget.__code__


def test_linecov_resolves_a_decorated_function_to_the_function_it_wraps():
    # a @contextmanager once reported the lines of contextlib's wrapper
    code = load_linecov().function_code("simnet.SimulatedInternet.registration_scope")
    assert code is SimulatedInternet.registration_scope.__wrapped__.__code__
    assert code.co_filename == simnet.__file__


def test_linecov_reports_every_function_of_a_bare_module():
    codes = load_linecov().module_codes("simnet")
    source = Path(simnet.__file__).read_text(encoding="utf-8")
    # module-level functions and methods of module-level classes
    defined = set(re.findall(r"^(?:    )?def (\w+)\(", source, re.M))
    assert {spec.rsplit(".", 1)[1] for spec in codes} == defined
    assert codes["simnet.load_scenario"] is simnet.load_scenario.__code__
    assert codes["simnet.SimulatedInternet.serve_http"] is SimulatedInternet.serve_http.__code__
    assert codes["simnet.ScenarioProvider.ips"] is simnet.ScenarioProvider.ips.func.__code__
    assert all(code.co_filename == simnet.__file__ for code in codes.values())
    assert "simnet.parse_fqdn" not in codes  # imported, not defined there
    lines = [code.co_firstlineno for code in codes.values()]
    assert lines == sorted(lines)


def test_linecov_reports_every_method_of_a_class():
    codes = load_linecov().module_codes("simnet.NameTable")
    assert codes["simnet.NameTable.lookup"] is simnet.NameTable.lookup.__code__
    assert set(codes) == {f"simnet.NameTable.{name}" for name, obj in vars(simnet.NameTable).items()
                          if callable(obj)}
    assert load_linecov().function_code("simnet.NameTable") is None
