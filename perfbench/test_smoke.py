"""Smoke test of the benchmark harness on tiny ranges.

    PYTHONPATH=src python -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import micro  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402

TINY = ["verify", "thm2", "--n", "1..2", "--r", "1..2", "--s", "1", "--t", "1",
        "--claim", "all"]


def test_seed_only_permutes_case_order():
    from qaltsum import cli

    lexicographic = cli.build_cases(cli.build_parser().parse_args(TINY))
    assert workload.build_sweep(TINY, 0) == lexicographic
    shuffled = workload.build_sweep(TINY, 5)
    assert shuffled != lexicographic
    assert sorted(map(repr, shuffled)) == sorted(map(repr, lexicographic))


def test_report_digest_ignores_order_jobs_and_timing():
    serial = workload.run_sweep(workload.build_sweep(TINY, 0), 1)
    pooled = workload.run_sweep(workload.build_sweep(TINY, 3), 2)
    assert serial["checked"] == pooled["checked"] == 12
    assert serial["falsified"] == pooled["falsified"] == 0
    assert serial["digest"] == pooled["digest"]
    assert serial["segments"] >= 1 and serial["run_s"] > 0 and serial["run_ref_s"] > 0


def test_speedometer_leaves_out_its_probes_and_scales_by_them(monkeypatch):
    ref = workload.REF_PROBE_S
    clock = iter([0.0, 0.05, 0.06, 0.08, 0.09])
    probes = iter([2 * ref, 4 * ref, ref])
    monkeypatch.setattr(workload, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    monkeypatch.setattr(workload, "probe", lambda: next(probes))
    speed = workload.Speedometer()
    speed.mark()  # closes 0.0-0.05, then probes until 0.06
    timing = speed.result()  # closes 0.06-0.08
    assert timing["segments"] == 2
    assert timing["wall_s"] == pytest.approx(0.09)
    assert timing["run_s"] == pytest.approx(0.05 + 0.02)
    assert timing["run_ref_s"] == pytest.approx(0.05 / 2 + 0.02 / 1)


def test_tracer_records_layers_and_restores_bindings():
    from qaltsum import cyclo, polycore, sums, verify

    bindings = lambda: (sums.qbinom, verify.divexact, cyclo.divexact,  # noqa: E731
                        polycore.IntPoly.__mul__, polycore.IntPoly.__rmul__)
    before = bindings()
    cases = workload.build_sweep(TINY, 0)
    tracer = spans.Tracer()
    tracer.install_layers()
    try:
        assert all(new is not old for new, old in zip(bindings(), before))
        result = workload.run_sweep(cases, 1)
    finally:
        tracer.uninstall()
    assert bindings() == before
    metrics = tracer.metrics(result["wall_s"])
    assert metrics["verify.run_case.calls"] == len(cases)
    assert metrics["sums.triple_sum.q.calls"] == 10  # t2c3 runs only where r = 2
    assert metrics["polycore.mul.calls"] > 0 and metrics["polycore.divexact.calls"] > 0
    shares = sum(metrics[f"share.{layer}"] for layer in spans.LAYERS)
    assert 0 < shares <= 1 + 1e-9
    assert set(metrics) <= {name for name, _, _ in spans.PER_LAYER}


def test_tracer_counts_failed_divisions():
    from qaltsum import verify

    tracer = spans.Tracer()
    tracer.install_layers()
    try:
        assert verify.check_congruence(4, 2).holds
        assert not verify.check_congruence(3, 2).holds
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(0.0)
    assert metrics["polycore.divexact.calls"] == 2
    assert metrics["polycore.divexact.not_divisible"] == 1
    assert metrics["polycore.divexact.quotient_coeffs"] == 1


def test_oracle_on_tiny_ranges(monkeypatch):
    monkeypatch.setattr(workload, "ORACLE_MAX_N", 6)
    monkeypatch.setattr(workload, "LUCAS_MAX_D", 3)
    monkeypatch.setattr(workload, "LUCAS_MAX_QUOTIENT", 2)
    pairs, lucas = workload.build_oracle(2)
    assert len(pairs) == 28 and len(lucas) == 9 * (4 + 9)
    result = workload.run_oracle((pairs, lucas))
    assert result["falsified"] == 0
    assert result["checked"] == len(pairs) + len(lucas)


def test_micro_rows_agree_across_lanes():
    rows = micro.rows()
    assert rows["checks"] >= 4 and rows["mismatches"] == 0
    assert sorted(rows["layers"]) == sorted(
        name for name, _, _ in spans.PER_LAYER if name.startswith("polycore.micro."))


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workload.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in spans.PER_LAYER]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qsum-j1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_run_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "qsum-j1", "--seed", "4",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 324
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
