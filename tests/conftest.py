from __future__ import annotations

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from dvahunter.cli import default_data, main
from dvahunter.providers import ProviderDb, load_provider_db
from dvahunter.psl import PublicSuffixList
from dvahunter.scan import ScanConfig
from dvahunter.simnet import Scenario, scenario_to_json
from dvahunter.transport import Backend
from dvahunter.worlds import BuiltWorld

DATA = {name: default_data(name) for name in (
    "providers.json", "public_suffix_list.dat", "prefixes.txt",
    "reference_world.json", "reference_world_targets.txt",
)}

WORLDGEN = Path(__file__).resolve().parents[1] / "perfbench" / "worldgen.py"


@pytest.fixture(scope="session")
def psl() -> PublicSuffixList:
    return PublicSuffixList.load(DATA["public_suffix_list.dat"])


@pytest.fixture(scope="session")
def db() -> ProviderDb:
    return load_provider_db(DATA["providers.json"])


@pytest.fixture(scope="module")
def worldgen():
    """``perfbench/worldgen.py``, the benchmark's world builders."""
    spec = importlib.util.spec_from_file_location("worldgen", WORLDGEN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop(spec.name, None)


def write_world(tmp_path: Path, world: BuiltWorld, tag: str = "world") -> tuple[Path, Path]:
    """Serialize a built world's scenario + targets for run_scan configs."""
    scenario_path = tmp_path / f"{tag}.json"
    scenario_path.write_text(json.dumps(scenario_to_json(world.scenario), indent=2), encoding="utf-8")
    targets_path = tmp_path / f"{tag}_targets.txt"
    targets_path.write_text("\n".join(world.targets) + "\n", encoding="utf-8")
    return scenario_path, targets_path


def keep_providers(scenario: Scenario, keep: set[str]) -> Scenario:
    """``scenario`` cut down to the providers named in ``keep``: the others'
    discontinued hosts go, and so do those hosts' zones, whose dangling
    targets the world no longer holds."""
    gone = {host for host, svc in scenario.discontinued.items() if svc.provider not in keep}
    return dataclasses.replace(
        scenario,
        providers=[prov for prov in scenario.providers if prov.name in keep],
        zones={name: rec for name, rec in scenario.zones.items() if name not in gone},
        discontinued={host: svc for host, svc in scenario.discontinued.items() if host not in gone},
    )


def scan_config(targets: Path, scenario: Path, mode: str = "all", seed: int = 7, **kw) -> ScanConfig:
    return ScanConfig(
        targets=targets,
        providers=DATA["providers.json"],
        suffixes=DATA["public_suffix_list.dat"],
        dictionary=DATA["prefixes.txt"],
        mode=mode,
        backend=Backend.MOCK,
        scenario=scenario,
        seed=seed,
        **kw,
    )


def edited_reference_scan(tmp_path, targets: str, *edits, mode: str = "takeover") -> tuple[int, dict]:
    """The exit code and report of a scan of ``targets`` over a copy of
    the reference world changed by each of ``edits`` in turn; the copy
    must pass validate-scenario first."""
    doc = json.loads(DATA["reference_world.json"].read_text(encoding="utf-8"))
    for edit in edits:
        edit(doc)
    scenario = tmp_path / "world.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate-scenario", str(scenario)]) == 0
    targets_path = tmp_path / "targets.txt"
    targets_path.write_text(targets, encoding="utf-8")
    out = tmp_path / "report.json"
    code = main(["scan", "--mode", mode, "--seed", "7", "--out", str(out),
                 "--targets", str(targets_path), "--scenario", str(scenario)])
    return code, json.loads(out.read_text(encoding="utf-8"))


def set_zone(name: str, **record):
    """An ``edited_reference_scan`` edit: the zone record of ``name``."""
    def edit(doc):
        doc["zones"][name] = record
    return edit


def set_provider(name: str, **fields):
    """An ``edited_reference_scan`` edit: fields of one scenario provider."""
    def edit(doc):
        next(prov for prov in doc["providers"] if prov["name"] == name).update(fields)
    return edit
