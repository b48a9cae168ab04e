"""Smoke tests of the campaign benchmark.

Run from the root of the repository with
``python -m pytest campaignbench`` (the repository's own suite collects
only ``tests/``).  A tiny grid (one trial per configuration) must emit
every metric named in ``BENCHMARK.json`` with its unit, a tampered
journal must trip the digest gate, and the benchmark must refuse to run
where there is no program to measure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

from workloads import (  # noqa: E402
    WORKLOADS,
    digests,
    gate,
    load_grid,
    make_spec,
    run_real,
    run_serial,
)

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "campaignbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_tiny_grid_emits_every_named_metric(trace: str,
                                            section: str) -> None:
    out = _bench(ROOT, "--workload", "defense-service", "--seed", "3",
                 "--connections", "1", "--seconds", "0.1",
                 "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 6
    units = {m["name"]: m["unit"] for m in MANIFEST[section]}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float)
        assert f"{name} = " in out.stdout


def test_tampered_journal_trips_the_digest_gate(tmp_path: Path) -> None:
    workload = WORKLOADS["sweep-quiet"]
    spec = make_spec(workload, 5, connections=1)
    expected = digests(run_serial(spec, tmp_path / "reference.jsonl"))
    journal = tmp_path / "campaign.jsonl"
    grid = run_real(workload, spec, journal)
    assert gate([grid], expected) == (10, 0)

    lines = journal.read_text().splitlines()
    index = next(i for i, line in enumerate(lines)
                 if json.loads(line).get("type") == "unit")
    record = json.loads(lines[index])
    record["result"]["attempts"] += 1
    lines[index] = json.dumps(record, sort_keys=True)
    journal.write_text("\n".join(lines) + "\n")
    assert gate([load_grid(journal)], expected) == (10, 10)


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "campaignbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, "--workload", "sweep-quiet", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
