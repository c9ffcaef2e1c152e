"""Self-tests of the benchmark, run on its smoke mode (tiny inputs, seconds per run).

From the root of a checkout: ``python3 -m pytest perfbench``
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

assert run.import_program() is not None, "dphist sources not found"

import gate  # noqa: E402
from tracing import COUNT_METRICS  # noqa: E402
from dphist.histogram import PrivateHistogram  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def smoke(workload: str, trace: bool, workdir: Path) -> dict:
    return run.measure(workload, 3, 0.0, trace, True, workdir)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_match_benchmark_json(workload, tmp_path):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        record = smoke(workload, trace, tmp_path / section)
        result = record["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, record["meta"]["failures"]
        assert result["attempted"] >= 1
        units = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in BENCH[section]}
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_counts_repeat_between_runs(workload, tmp_path):
    first = smoke(workload, True, tmp_path / "a")["result"]["metrics"]
    second = smoke(workload, True, tmp_path / "b")["result"]["metrics"]
    assert {k: first[k]["value"] for k in COUNT_METRICS} == {k: second[k]["value"] for k in COUNT_METRICS}
    assert first["privacy.laplace.calls"]["value"] > 0
    assert first["privacy.ledger.entries"]["value"] > 0


def _tamper_saves(monkeypatch, edit):
    """Make every release file written from now on pass through ``edit(lines)``."""
    original = PrivateHistogram.save

    def save(self, path):
        original(self, path)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        Path(path).write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")

    monkeypatch.setattr(PrivateHistogram, "save", save)


def test_gate_trips_on_release_that_does_not_tile(tmp_path, monkeypatch, capsys):
    def drop_last_leaf(lines):
        header = lines[0].split()
        header[3] = str(int(header[3]) - 1)
        return [" ".join(header)] + lines[1:-1]

    _tamper_saves(monkeypatch, drop_last_leaf)
    argv = ["--workload", "cli-htf-1m", "--seed", "3", "--seconds", "0", "--smoke", "--workdir", str(tmp_path / "w")]
    assert run.main(argv) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0


def test_gate_trips_on_changed_count(tmp_path, monkeypatch):
    def double_first_count(lines):
        leaf = lines[1].split()
        leaf[4] = repr(2 * float(leaf[4]) + 1)
        return [lines[0], " ".join(leaf)] + lines[2:]

    _tamper_saves(monkeypatch, double_first_count)
    record = smoke("answer-fine", False, tmp_path)
    assert not record["result"]["correct"]
    assert any("evaluate/uniform" in f and "brute force" in f for f in record["meta"]["failures"])


def test_gate_trips_on_overspent_ledger(tmp_path):
    from dphist import baselines, grid
    from dphist.privacy import NoiseSource

    hist = baselines.build_flat_uniform(grid.generate_gaussian(500, 3.0, 8, 8, 1), 0.5, NoiseSource(1))
    hist.save(tmp_path / "h.txt")
    hist.ledger.save(tmp_path / "l.csv")
    gate.audit_release(tmp_path / "h.txt", tmp_path / "l.csv", 0.5, (8, 8))
    text = (tmp_path / "l.csv").read_text(encoding="utf-8")
    (tmp_path / "l.csv").write_text(text.replace(",0.5,", ",0.6,"), encoding="utf-8")
    with pytest.raises(gate.GateError):
        gate.audit_release(tmp_path / "h.txt", tmp_path / "l.csv", 0.5, (8, 8))


def test_fails_without_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
