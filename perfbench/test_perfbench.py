"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench

Every workload runs at its tiny size, traced and untraced, and must print
every metric of BENCHMARK.json with its unit; the correctness gate must flag
a wrong expected value injected here (the program is never altered); the
benchmark must refuse to run without the source tree.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        assert any(line.startswith(f"{m['name']} ") and f" {m['unit']}" in line
                   for line in lines[:-1]), m["name"]
    assert any(line.startswith("fail_ratio ") for line in lines)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("tiny", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_item_count_does_not_depend_on_the_seed(workload, tiny):
    expected = workloads.load_expected()
    counts = set()
    for seed in (1, 2, 3):
        items, _ = workloads.build(workload, seed, tiny, expected)
        counts.add(len(items))
    assert len(counts) == 1 and counts.pop() > 10


def test_gate_flags_a_wrong_recorded_value():
    import worker

    expected = workloads.load_expected()
    items, groups = workloads.build("rc-sweep", 1, True, expected)
    values, _, _ = worker.run_items(items)
    assert worker.check_items(items, groups, values) == {}
    victim = items[0].label
    expected["rc-sweep"][victim] += 1
    items, groups = workloads.build("rc-sweep", 1, True, expected)
    values, _, _ = worker.run_items(items)
    failures = worker.check_items(items, groups, values)
    assert victim in failures and "recorded" in failures[victim]


def test_gate_flags_a_wrong_cli_value_and_the_known_defect(monkeypatch):
    import worker

    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    expected = workloads.load_expected()
    expected["cli-cold"]["tiny"]["lr"] += 1
    items, groups = workloads.build("cli-cold", 1, True, expected,
                                    lambda argv: workloads.run_cli(argv, traced=False))
    picked = [item for item in items if item.label in ("lr", "rc", "error-gf-negative-b")]
    values, _, _ = worker.run_items(picked)
    failures = worker.check_items(picked, groups, values)
    assert "lr" in failures and "recorded" in failures["lr"] and "rc" not in failures
    assert all(item.known_defect == (item.label in workloads.KNOWN_DEFECTS) for item in items)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    import run

    assert run.tail_index(11, 1) == 0
    assert run.tail_index(377, 1) == 366
    assert run.tail_index(20, 3) == 29  # 30 of 60 pooled items beyond it
    with pytest.raises(run.BenchError):
        run.tail_index(10, 4)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "rc-sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
