"""Self-test of the benchmark on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import fixtures  # noqa: E402
from run import Proc, Runner, Verifier  # noqa: E402


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(workload, trace):
    done = _bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _swap_conditions(out: Path) -> None:
    text = (out / "bands.csv").read_text()
    swapped = text.replace("eyes_open", "@").replace("eyes_closed", "eyes_open").replace("@", "eyes_closed")
    (out / "bands.csv").write_text(swapped)


def _drop_beats(out: Path) -> None:
    (out / "rr.csv").write_text("beat_time_s,rr_ms,flag\n")


@pytest.mark.parametrize(
    "workload, tamper",
    [
        ("berger_long", _swap_conditions),
        ("cardiac_capture", _drop_beats),
    ],
)
def test_broken_output_fails_the_check(tmp_path, workload, tamper):
    (tmp_path / "in").mkdir()
    fx = fixtures.BUILDERS[workload](3, tmp_path / "in", smoke=True)
    out = tmp_path / "out"
    proc = Runner(tmp_path).run(fx.command(out))
    assert proc.rc == 0, proc.stderr
    assert checks.check(fx, out)[0] == []
    tamper(out)
    assert checks.check(fx, out)[0]


def test_failed_or_differing_commands_count_as_failed(tmp_path):
    (tmp_path / "in").mkdir()
    fx = fixtures.BUILDERS["berger_long"](3, tmp_path / "in", smoke=True)
    runner = Runner(tmp_path)
    verifier = Verifier(fx)
    first = runner.run(fx.command(tmp_path / "a"))
    verifier.verify(first, tmp_path / "a")
    assert first.problems == []

    proc = runner.run(fx.command(tmp_path / "b"))
    (tmp_path / "b" / "bands.csv").write_text("changed\n")
    verifier.verify(proc, tmp_path / "b")
    assert proc.problems == ["reports differ from the first command's"]

    crashed = Proc(argv=fx.argv, rc=3, wall=0.1, cpu=0.1, rss_mb=1.0, stderr="boom")
    verifier.verify(crashed, tmp_path / "c")
    assert crashed.problems


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
