"""The compare mode of tools/outputs.py and the record it committed."""

import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parents[1] / "tools"))
import outputs  # noqa: E402

ENV = {"python": "3.11.7", "numpy": "2.4.6", "simd_baseline": ["X86_V2"], "simd_dispatch": []}


def record(**runs):
    return {"environment": ENV, "runs": runs}


def compared(old, new):
    out = io.StringIO()
    same = outputs.compare(old, new, out)
    return same, out.getvalue().splitlines()


def test_an_unchanged_record_is_identical():
    old = record(run={"x": (0.1).hex(), "k": 3, "ok": True, "sha": "ab12"})
    assert compared(old, json.loads(json.dumps(old))) == (True, ["identical"])


def test_each_moved_number_and_the_largest_move_per_run_are_printed():
    old = record(a={"x": (1.0).hex(), "y": (2.0).hex(), "k": 4}, b={"z": (1.0).hex()})
    new = record(a={"x": (1.5).hex(), "y": (2.0).hex(), "k": 5}, b={"z": (1.0).hex()})
    same, lines = compared(old, new)
    assert not same
    assert lines == [
        "a k: 4 -> 5 (relative move 0.25)",
        f"a x: {(1.0).hex()} -> {(1.5).hex()} (relative move 0.5)",
        "a: largest relative move 0.5",
    ]


def test_a_digest_is_not_read_as_a_hex_number():
    # float.fromhex would take "ff" and "0a" as numbers; only float.hex()
    # output, which holds "0x", is one
    old = record(fit={"trace_sha256": "ff", "converged": True})
    new = record(fit={"trace_sha256": "0a", "converged": False})
    same, lines = compared(old, new)
    assert not same
    assert lines == [
        "fit converged: True -> False",
        "fit trace_sha256: ff -> 0a",
        "fit: no number moved",
    ]


def test_runs_and_environments_that_differ_are_named():
    old = record(a={"x": (1.0).hex()})
    new = {"environment": dict(ENV, simd_dispatch=["X86_V3"]), "runs": {"a": {}, "b": {"y": 1}}}
    _, lines = compared(old, new)
    assert lines[0].startswith("note: environments differ")
    assert "a x: 0x1.0000000000000p+0 -> absent" in lines
    assert "b y: absent -> 1" in lines


def test_the_committed_record_holds_every_listed_run():
    committed = json.loads((Path(__file__).parents[1] / "OUTPUTS.json").read_text())
    runs = committed["runs"]
    simulate = [name for name in runs if name.startswith("simulate/")]
    assert len(simulate) == 8
    assert all(len(runs[name]) == 1 + 2 * 5 * 9 for name in simulate)  # the CSV and 45 cells
    blocks = sorted(name for name in runs if name.startswith("blocks/"))
    assert blocks == ["blocks/n1001/em", "blocks/n1001/known", "blocks/n50001/known"]
    assert len(runs["blocks/n1001/em"]) == len(runs["blocks/n1001/known"]) == 1 + 2 * 5 * 9
    assert len(runs["blocks/n50001/known"]) == 1 + 2 * 5 * 4  # the CSV and 20 cells
    assert len(runs["em_fits"]) == 900 * 7
    assert sorted(name for name in runs if name.startswith("em_rows/")) == ["em_rows/n131075"]
    assert len(runs["em_rows/n131075"]) == 3 * 7
    assert sorted(name for name in runs if name.startswith("large_n/")) == [f"large_n/{i}" for i in range(4)]
    assert len([name for name in runs if name.startswith("penalty/")]) == 8
    assert len([name for name in runs if name.startswith("estimate/")]) == 6
    assert set(committed["environment"]) == {"python", "numpy", "simd_baseline", "simd_dispatch"}


def test_compare_mode_exits_1_when_a_value_moved(tmp_path, monkeypatch):
    old = record(a={"x": (1.0).hex()})
    (tmp_path / "old.json").write_text(json.dumps(old))
    argv = ["--out", str(tmp_path / "new.json"), "--compare", str(tmp_path / "old.json")]
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts --src on the path
    for new, code in ((old, 0), (record(a={"x": (1.5).hex()}), 1)):
        monkeypatch.setattr(outputs, "record", lambda: new)
        assert outputs.main(argv) == code
        assert json.loads((tmp_path / "new.json").read_text()) == new
    assert outputs.main(["--out", str(tmp_path / "new.json")]) == 0
