"""Tiny-size smoke run of the benchmark, a few seconds in all.

    python3 perfbench/smoke.py

Runs run.py with --smoke (U_30 and U_18, two odd circulants on 105
vertices, the dense circulant C_18{1..6}, classify of U_8) for every
workload, untraced and traced.  It asserts that the last line is the result
object, that every metric of BENCHMARK.json prints by name with its unit,
that nothing failed (fail_ratio 0) and that the checker's negative control
was flagged.  It also checks that the benchmark exits non-zero without a
result when the totcol sources are missing.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace):
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    assert "fail_ratio = 0/%d = 0.0000" % result["attempted"] in lines, proc.stdout
    assert any(line.startswith("negative control: flagged") for line in lines)
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), got
        line = "metric %s = %r %s" % (m["name"], got["value"], m["unit"])
        assert line in lines, line
    print("smoke %-15s trace=%d: ok, %d operations" % (workload, trace, result["attempted"]))


def check_refuses_without_sources(spec):
    bare = os.path.join(ROOT, ".bench_build", "perfbench-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke without sources: exit %d, no result" % proc.returncode)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, workload["name"], trace)
    check_refuses_without_sources(spec)
    print("smoke: ok")


if __name__ == "__main__":
    main()
