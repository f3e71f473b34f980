"""Tests of the benchmark itself, on its shrunk configuration (--small)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, bench_dir=BENCH):
    proc = subprocess.run([sys.executable, str(bench_dir / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def parsed(lines):
    assert lines[-2].startswith("detail: ")
    return json.loads(lines[-1]), json.loads(lines[-2][len("detail: "):])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_small_run_emits_every_named_metric(workload, trace):
    code, lines = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--small")
    out, detail = parsed(lines)
    assert code == 0, detail["mismatches"]
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())
        assert detail["machine"]["nproc"] >= 1


def test_perturbed_reference_fails(tmp_path):
    bench_copy = tmp_path / "perfbench"
    shutil.copytree(BENCH, bench_copy, ignore=shutil.ignore_patterns("__pycache__"))
    ref = bench_copy / "ref" / "verify_all.json"
    doc = json.loads(ref.read_text())
    entry = next(e for e in doc["7"]["reports"] if e[0] == "mink")
    entry[3] *= 1.0 + 1e-6
    ref.write_text(json.dumps(doc))
    # --seconds 0.1: exactly one pass, so the one perturbed report fails once
    code, lines = bench("--workload", "verify_all", "--seed", "7", "--seconds", "0.1",
                        "--trace", "0", "--small", bench_dir=bench_copy)
    out, detail = parsed(lines)
    assert code != 0
    assert not out["correct"] and out["failed"] == 1
    assert detail["fail_frac"] > 0


def test_seed_changes_corpus_hash():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import harness
        import workloads
        from lorentz_forge.verify.corpus import corpus_hash

        hashes = {corpus_hash(workloads.verify_inputs(harness.program_seed(s)))
                  for s in (7, 8)}
    finally:
        del sys.path[:2]
    assert len(hashes) == 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "verify_all", "--seed", "7", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
