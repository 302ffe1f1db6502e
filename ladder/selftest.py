"""Fast self-test of the ladder benchmark (about a minute on 2 cores).

    python3 ladder/selftest.py

Runs every workload at the tiny scale through ``run.py`` and asserts:

* the untraced run prints every end-to-end metric of ``BENCHMARK.json``
  with its unit, and the traced run every per-layer metric;
* every output check passes and nothing failed;
* two runs at the same seed produce the same label/pivot digest;
* the shard metrics read 0 on the workloads without shards;
* a cached input whose bytes no longer match its digest is regenerated;
* without the program next to it, the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
SHARD_METRICS = ("shard.loads", "shard.load_ms_total", "shard.evicts", "frame.lookups")


def _run(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, f"{workload} exited {out.returncode}:\n{out.stdout}\n{out.stderr}"
    result = json.loads(out.stdout.strip().splitlines()[-1])
    digest = re.search(r"digest=(\w+)", out.stdout).group(1)
    return result, digest


def _assert_metrics(result: dict, declared: list[dict], workload: str) -> None:
    assert result["correct"] and result["failed"] == 0, (workload, result)
    assert result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"{workload}: metrics {sorted(set(got) ^ set(want))} differ"


def check_workloads() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        plain, digest = _run(workload, 7, 0)
        _assert_metrics(plain, SPEC["end_to_end"], workload)
        again, digest_again = _run(workload, 7, 0)
        assert digest == digest_again, f"{workload}: digests differ at one seed"
        traced, _ = _run(workload, 7, 1)
        _assert_metrics(traced, SPEC["per_layer"], workload)
        shard = [traced["metrics"][m]["value"] for m in SHARD_METRICS]
        if workload == "sharded-spill":
            assert all(v > 0 for v in shard), (workload, shard)
        else:
            assert all(v == 0 for v in shard), (workload, shard)
        print(f"ok {workload} digest={digest}")


def check_cache_digest() -> None:
    sys.path.insert(0, str(HERE))
    import inputs

    spec = {"kind": "churn", "seed": 99, "n": 200, "steps": 5}
    base, deltas = inputs.load(spec)
    ref = inputs.CACHE / f"{inputs.spec_key(spec)}.ref"
    blob = inputs.CACHE / f"{ref.read_text().strip()}.npz"
    blob.write_bytes(blob.read_bytes()[:-1] + b"\0")
    base2, deltas2 = inputs.load(spec)
    assert base2.num_edges == base.num_edges and len(deltas2) == len(deltas)
    print("ok input cache digest")


def check_without_program() -> None:
    bare = HERE / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("work", "cache", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", bare)
    try:
        out = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "mesh-refine",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0 and '"metrics"' not in out.stdout, out.stdout
    print("ok fails without the program")


if __name__ == "__main__":
    check_without_program()
    check_cache_digest()
    check_workloads()
    print("self-test passed")
