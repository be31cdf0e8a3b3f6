"""Self-test of the benchmark harness, at a tiny input size.

    python3 bench/selftest.py

Checks that every workload prints each metric of BENCHMARK.json with its
unit, untraced and traced; that a corrupted output fails each workload's gate
and a wrong digest fails the pin; that a directory without padicdyn's
sources makes the harness exit non-zero without a result; and that the traced
worked quintic reproduces the call counts the ROADMAP quotes.  Exits non-zero
on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS, GateFailure, Raised  # noqa: E402

# ROADMAP item 2: survey(X^5+X^2+X+1/2, 2, log 50) makes these calls.
WORKED_QUINTIC_CALLS = {
    "heights.survey": 1,
    "berkovich.escape_threshold": 12510,
    "heights.is_preperiodic": 6190,
    "heights.local_escape_rate": 6255,
    "heights.canonical_height": 3095,
}


def harness(root: Path, *args: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(root / "bench" / "run.py"), *args]
    return subprocess.run(argv, capture_output=True, text=True, cwd=root, timeout=300)


def check_metrics_printed(spec: dict) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[section]}
        for name in WORKLOADS:
            done = harness(ROOT, "--workload", name, "--seed", "1", "--seconds", "0.2",
                           "--trace", str(trace), "--scale", "tiny")
            assert done.returncode == 0, f"{name} trace={trace}: exit {done.returncode}\n{done.stderr}"
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == expected, f"{name} trace={trace}: {printed} != {expected}"
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            print(f"ok  {name} trace={trace}: {len(printed)} metrics with units")


def corrupted(pd, call, out):
    """A wrong version of ``out``, or None when this call has no corruption."""
    if call.kind in ("worked", "companion"):
        return dataclasses.replace(out, records=out.records[:-1])
    if call.kind == "escape_type1":
        return pd.Escaped(out.step + 1)
    if call.kind == "max_point":
        return dataclasses.replace(out, snapped=out.snapped + 1)
    if call.kind == "np":
        return out[0], out[1][:-2]
    if call.kind == "verify":
        return False
    if call.kind == "crossover":
        return out + 1
    return None


def check_gates_reject_corruption() -> None:
    for name, workload in WORKLOADS.items():
        pd = run.import_padicdyn()
        hits = 0
        for block in workload.batch(pd, 1, "tiny"):
            for call in block:
                try:
                    out = workload.invoke(pd, call)
                except Exception as exc:  # the gate decides, as in run.run_blocks
                    out = Raised(exc)
                workload.check(pd, call, out)
                bad = corrupted(pd, call, out)
                if bad is None:
                    continue
                try:
                    workload.check(pd, call, bad)
                except GateFailure:
                    hits += 1
                else:
                    raise AssertionError(f"{name} {call.kind}: corrupted output passed the gate")
        assert hits, f"{name}: no call was corrupted"
        tally = run.anchor(workload, pd)
        pins = {name: {"anchor": "0" * 64}}
        try:
            run.check_pin(pins, name, "anchor", tally)
        except run.PinMismatch:
            pass
        else:
            raise AssertionError(f"{name}: a wrong pin was accepted")
        print(f"ok  {name}: {hits} corrupted outputs and a wrong pin rejected")


def check_bare_directory_fails() -> None:
    bare = BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = harness(bare, "--workload", "survey", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0, "the harness ran without padicdyn's sources"
    assert '"correct"' not in done.stdout, done.stdout
    print(f"ok  without src/: exit {done.returncode}, no result printed")


def check_worked_quintic_counts() -> None:
    done = harness(ROOT, "--workload", "survey", "--seed", "0", "--seconds", "0", "--trace", "1")
    assert done.returncode == 0, done.stderr
    line = next(x for x in done.stdout.splitlines() if x.startswith("trace worked: "))
    counts = json.loads(line.removeprefix("trace worked: "))
    for name, expected in WORKED_QUINTIC_CALLS.items():
        assert counts.get(name) == expected, f"{name}: {counts.get(name)} calls, expected {expected}"
    print("ok  worked quintic: " + ", ".join(f"{k} {v}" for k, v in WORKED_QUINTIC_CALLS.items()))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics_printed(spec)
    check_gates_reject_corruption()
    check_bare_directory_fails()
    check_worked_quintic_counts()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
