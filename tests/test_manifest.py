"""Every CLI artifact of scripts/cli_lines.txt against tests/golden/manifest.json.

A difference here is a change to what the CLI writes.  If it is meant,
rewrite the manifest with `PYTHONPATH=src python3 scripts/update_manifest.py`
and say which lines changed and why.
"""

import importlib.util
import json
import re
from pathlib import Path

from csikey import cli

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "update_manifest.py"
_spec = importlib.util.spec_from_file_location("update_manifest", _SCRIPT)
manifest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(manifest)

RECORDED = json.loads(manifest.MANIFEST.read_text())


def test_cli_artifacts_match_the_manifest():
    current = manifest.build_manifest()
    assert manifest.differences(RECORDED, current) == []


def test_manifest_format():
    assert set(RECORDED) == {"columns", "provenance", "artifacts"}
    assert RECORDED["columns"] == 80
    assert set(RECORDED["provenance"]) == {"python", "numpy", "blas", "machine"}
    assert all(isinstance(v, str) for v in RECORDED["provenance"].values())
    expected = {f"{line} --seed {seed} --format {fmt}"
                for line in manifest.command_lines()
                for seed in (0, 1, 2, 3) for fmt in ("json", "csv")}
    assert set(RECORDED["artifacts"]) == expected
    for entry in RECORDED["artifacts"].values():
        assert set(entry) == {"sha256", "exit", "stderr", "discrete"}
        assert re.fullmatch("[0-9a-f]{64}", entry["sha256"])
        assert re.fullmatch("[0-9a-f]{64}", entry["discrete"])
        assert entry["exit"] in (0, 1, 2) and isinstance(entry["stderr"], str)
        assert (entry["exit"] == 0) == ("error:" not in entry["stderr"])


def test_a_planted_change_to_one_artifact_fails(monkeypatch):
    line = "cipher --n 4 --log2m 3 --trials 5"
    planted = f"{line} --seed 3 --format csv"
    render = cli.render

    def planted_render(record, fmt):
        if record["config"]["seed"] == 3 and fmt == "csv":
            record["results"][0]["bit_errors"] += 1
        return render(record, fmt)

    monkeypatch.setattr(cli, "render", planted_render)
    current = {**RECORDED, "provenance": manifest.provenance(),
               "artifacts": {**RECORDED["artifacts"], **manifest.line_entries(line)}}
    diffs = manifest.differences(RECORDED, current)
    assert f"{planted}: discrete differs" in diffs
    assert {d.split(":")[0] for d in diffs} == {planted}
