"""Every ``BENCH_<pr>.json`` at the repository root is a before/after record in
schema ``bench-pr/1`` (see ROADMAP.md, "BENCH_<pr>.json convention")."""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
KEYS = ("change", "parent_commit", "command", "machine", "design", "workloads", "trace",
        "claim")


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_follows_schema(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record.get("schema") == "bench-pr/1"
    assert [k for k in KEYS if k not in record] == []
