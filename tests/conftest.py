from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from dvahunter.cli import default_data
from dvahunter.providers import ProviderDb, load_provider_db
from dvahunter.psl import PublicSuffixList
from dvahunter.scan import ScanConfig
from dvahunter.simnet import scenario_to_json
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
