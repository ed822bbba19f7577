"""Tests of the benchmark itself (not of the package).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import bench  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
from graphon_hawkes import cli  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_tiny_run_is_correct_and_emits_declared_metrics(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", str(SEED), "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-2])["report"]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert set(report["machine"]) == {
        "nproc", "cpu", "python", "numpy", "scipy", "blas", "blas_threads"}


def test_declared_workloads_match_the_plans():
    assert [w["name"] for w in SPEC["workloads"]] == list(inputs.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = inputs.write_inputs(SEED, tmp_path / "a")
    b = inputs.write_inputs(SEED, tmp_path / "b")
    c = inputs.write_inputs(SEED + 1, tmp_path / "c")
    for name in a:
        assert a[name].read_bytes() == b[name].read_bytes()
    assert a["step16"].read_bytes() != c["step16"].read_bytes()
    assert a["history"].read_text().count("\n") == inputs.HISTORY_EVENTS


@pytest.fixture(scope="module")
def tiny_outputs(tmp_path_factory):
    """Artifacts of one tiny pass of the two workloads with exact oracles."""
    tmp = tmp_path_factory.mktemp("tiny")
    paths = inputs.write_inputs(SEED, tmp / "inputs", tiny=True)
    oracle = checks.oracles(SEED)
    for workload in ("sim-experiments", "operator-analysis"):
        p = bench.run_pass(inputs.plan(workload, tiny=True), paths, SEED, tmp / "out", oracle)
        assert not any(p.failures.values()), p.failures
    return tmp / "out", oracle


@pytest.mark.parametrize(
    "metric, key",
    [
        ("stability_step_s", "step_rho"),
        ("flln_s", "step_lam_bar_A"),
        ("stability_smooth_s", "smooth_rho"),
        ("fclt_s", "const_lam_bar_A"),
        ("fclt_s", "const_sigma_A"),
    ],
)
def test_check_fails_on_a_wrong_oracle(tiny_outputs, metric, key):
    out, oracle = tiny_outputs
    assert checks.check(metric, out / metric, oracle) == []
    wrong = dict(oracle, **{key: oracle[key] * 1.01})
    assert checks.check(metric, out / metric, wrong)


def test_converge_check_fails_when_distance_grows_with_d(tmp_path):
    lines = ["d,mode,rep,distance,shared_fraction,one_event_per_cell"]
    for mode in ("annealed", "quenched"):
        for rep in range(10):
            lines.append(f"4,{mode},{rep},{0.1 + 0.01 * rep},1.0,true")
            lines.append(f"64,{mode},{rep},{5.0 + 0.01 * rep},1.0,true")
    (tmp_path / "converge.csv").write_text("\n".join(lines) + "\n")
    assert len(checks.check("converge_s", tmp_path, {})) == 2


def test_check_reports_missing_output(tmp_path):
    assert checks.check("transform_s", tmp_path, checks.oracles(SEED))


def test_nondeterministic_artifacts_count_as_failures():
    first = bench.Pass(failures={"x_s": []}, digests={"x_s": "a"})
    second = bench.Pass(failures={"x_s": []}, digests={"x_s": "b"})
    bench._mark_nondeterminism([first, second], first)
    assert first.failures["x_s"] == [] and second.failures["x_s"]


def test_tracer_restores_the_package():
    original = cli.main
    with Tracer() as tracer:
        assert cli.main is not original
    assert cli.main is original
    assert tracer.layer_metrics()["cli.calls"] == 0


def test_without_package_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "thinning-history", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
