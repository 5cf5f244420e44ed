"""The bundled configs' outputs, byte for byte.

tests/golden/<config>/ holds the result.json and, where the command
writes one, the data.csv of ``latticeball <command> --config
configs/<config>.json --out DIR``, where <command> is the config's name
up to its first underscore.  A change that moves any of these bytes
fails here; one that changes an output on purpose regenerates the files
as README's "Golden outputs" says, and says why.
"""

from pathlib import Path

import pytest

from latticeball.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = sorted(ROOT.glob("configs/*.json"))


def test_every_config_has_golden_outputs():
    assert sorted(p.stem for p in CONFIGS) == sorted(
        p.name for p in GOLDEN.iterdir())


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_outputs_match_golden(tmp_path, config):
    command = config.stem.split("_")[0]
    assert main([command, "--config", str(config), "--out",
                 str(tmp_path)]) == 0
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir()
               if p.name != "manifest.json"}
    golden = {p.name: p.read_bytes()
              for p in (GOLDEN / config.stem).iterdir()}
    assert written.keys() == golden.keys()
    for name in golden:
        assert written[name] == golden[name], name
