"""Benchmark harness for padicdyn: one process, one thread, a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S [--out FILE]
    python3 bench/run.py --write-pins

A run imports padicdyn from ``src/`` next to this directory (never from
anywhere else), builds the workload's inputs from the seed, replays a small
anchor batch whose output digest is pinned, then calls the workload's batch,
block after block, until the calls have been busy for S seconds.  Every
output goes through the workload's gate outside the timed region.  With
``--trace 1`` a fixed number of blocks is then run again under the layer
tracer.  Every reported time is in reference seconds (see refclock.py).
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics named in BENCHMARK.json.

``--workload all`` runs every workload, untraced and traced, each in its own
process, and prints a table of the end-to-end metrics; ``--out`` also writes
them, the per-layer metrics and the environment to a JSON file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from layertrace import Tracer
from refclock import REF_S, RefClock
from workloads import DEFAULT_SEED, KNOWN_DEFECT, WORKLOADS, GateFailure, Raised

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PINS = BENCH / "pins.json"
OUT = BENCH / "out"
SETUP_REPEATS = 7
MAX_REPORTED_FAILURES = 5


class PinMismatch(Exception):
    """Outputs differ from the pinned digest: the run is aborted."""


# -- set-up -------------------------------------------------------------------


def import_padicdyn():
    """A fresh import of padicdyn from this checkout's src/ directory."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "padicdyn" or n.startswith("padicdyn.")]:
        del sys.modules[name]
    pd = importlib.import_module("padicdyn")
    if not Path(pd.__file__).resolve().is_relative_to(src):
        raise ImportError(f"padicdyn was imported from {pd.__file__}, not from {src}")
    return pd


def setup(workload, seed: int, scale: str):
    """Import padicdyn and build the inputs SETUP_REPEATS times; keep the last
    and report the median time in reference seconds."""
    spans = []
    with RefClock() as clock:
        for _ in range(SETUP_REPEATS):
            start = clock.mark()
            pd = import_padicdyn()
            batch = workload.batch(pd, seed, scale)
            spans.append(clock.span(start))
    return pd, batch, statistics.median(clock.reference(s) for s in spans)


# -- running blocks -----------------------------------------------------------


@dataclass
class Tally:
    """What one loop over blocks did: timings, gate outcomes, output digest.

    ``wall_s`` holds each call's wall time less probing; ``ref_s`` the same
    in reference seconds (see refclock.py), which every reported timing uses.
    """

    digest_blocks: int
    calls: int = 0
    blocks: int = 0
    items: int = 0
    wall_busy_s: float = 0.0
    known_defect_items: int = 0
    failed_items: int = 0
    wall_s: list = field(default_factory=list)
    ref_s: list = field(default_factory=list)
    items_per_call: list = field(default_factory=list)
    block_ends: list = field(default_factory=list)  # calls done after each block
    probes: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    sha: object = field(default_factory=hashlib.sha256)

    @property
    def digest(self) -> str:
        return self.sha.hexdigest()

    @property
    def busy_s(self) -> float:
        return sum(self.ref_s)

    def latency_ms(self, times: list, q: float) -> float:
        """The q-quantile of time per item over all items: a call of n items
        that took t counts as n items of t/n each."""
        target = q * self.items
        done = 0
        for per_item, n in sorted((t / n, n) for t, n in zip(times, self.items_per_call)):
            done += n
            if done >= target:
                return 1e3 * per_item
        raise ValueError("no items")

    def blocks_busy_s(self, blocks: int) -> float:
        return sum(self.ref_s[: self.block_ends[blocks - 1]])


def run_blocks(workload, pd, batch, seconds: float, min_blocks: int, tracer: Tracer | None = None) -> Tally:
    """Call blocks in order (cycling) until the calls' wall time reaches
    ``seconds`` and ``min_blocks`` ran."""
    tally = Tally(digest_blocks=min_blocks)
    spans = []
    with RefClock() as clock:
        if tracer is not None:
            tracer.now = clock.now
        for index in itertools.count():
            for call in batch[index % len(batch)]:
                if tracer is not None:
                    tracer.item, tracer.kind, tracer.active = tally.calls, call.kind, True
                start = clock.mark()
                try:
                    out = workload.invoke(pd, call)
                except Exception as exc:  # the gate decides whether this is a failure
                    out = Raised(exc)
                span = clock.span(start)
                if tracer is not None:
                    tracer.active = False
                    if workload.item_counter:
                        tracer.counters[workload.item_counter] += call.items
                spans.append(span)
                _record(workload, pd, call, out, span[0], tally)
            tally.blocks += 1
            tally.block_ends.append(tally.calls)
            if tally.wall_busy_s >= seconds and tally.blocks >= min_blocks:
                break
    tally.probes = clock.probes
    tally.wall_s = [span[0] for span in spans]
    tally.ref_s = [clock.reference(span) for span in spans]
    return tally


def _record(workload, pd, call, out, elapsed: float, tally: Tally) -> None:
    tally.calls += 1
    tally.items += call.items
    tally.wall_busy_s += elapsed
    tally.items_per_call.append(call.items)
    try:
        outcome, data = workload.check(pd, call, out)
    except GateFailure as exc:
        tally.failed_items += call.items
        if len(tally.failures) < MAX_REPORTED_FAILURES:
            detail = "".join(traceback.format_exception(out.exc)) if isinstance(out, Raised) else ""
            tally.failures.append(f"{call.kind}: {exc}\n{detail}")
        return
    if outcome == KNOWN_DEFECT:
        tally.known_defect_items += call.items
    if tally.blocks < tally.digest_blocks:
        tally.sha.update(f"{call.kind}:{len(data)}:".encode() + data)


# -- pins ---------------------------------------------------------------------


def load_pins() -> dict:
    with open(PINS) as fh:
        return json.load(fh)


def check_pin(pins: dict, workload: str, key: str, tally: Tally) -> None:
    expected = pins[workload][key]
    if tally.digest != expected:
        raise PinMismatch(f"{workload} {key} outputs hash to {tally.digest}, pinned {expected}")


def anchor(workload, pd) -> Tally:
    """The default seed's tiny batch: warms up and is checked against its pin."""
    batch = workload.batch(pd, DEFAULT_SEED, "tiny")
    return run_blocks(workload, pd, batch, 0.0, len(batch))


def write_pins() -> None:
    pins = {}
    for name, workload in WORKLOADS.items():
        pd = import_padicdyn()
        tallies = {
            "anchor": anchor(workload, pd),
            "seed0": run_blocks(workload, pd, workload.batch(pd, DEFAULT_SEED, "full"), 0.0, workload.pin_blocks),
        }
        for key, tally in tallies.items():
            if tally.failed_items:
                raise SystemExit(f"{name} {key} fails its gate; not pinning:\n" + "\n".join(tally.failures))
        pins[name] = {key: tally.digest for key, tally in tallies.items()}
        print(name, pins[name], flush=True)
    PINS.write_text(json.dumps(pins, indent=2) + "\n")


# -- metrics ------------------------------------------------------------------


def environment(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"  # a checkout without .git records no commit
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = done.stdout.strip() or commit
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def end_to_end(tally: Tally, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (tally.items / tally.busy_s, "items/s"),
        "latency_p50_ms": (tally.latency_ms(tally.ref_s, 0.5), "ms"),
        "latency_p99_ms": (tally.latency_ms(tally.ref_s, 0.99), "ms"),
        "ok_ratio": ((tally.items - tally.failed_items - tally.known_defect_items) / tally.items, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def measure(name: str, seed: int, seconds: float, trace: bool, scale: str) -> int:
    workload = WORKLOADS[name]
    pd, batch, setup_s = setup(workload, seed, scale)
    pins = load_pins()
    warm = anchor(workload, pd)
    tallies = [warm]
    if not warm.failed_items:
        check_pin(pins, name, "anchor", warm)
    main = run_blocks(workload, pd, batch, seconds, workload.pin_blocks)
    tallies.append(main)
    if seed == DEFAULT_SEED and scale == "full" and not main.failed_items:
        check_pin(pins, name, "seed0", main)
    e2e = end_to_end(main, setup_s)

    env = environment(seed)
    print("env " + json.dumps(env))
    print(
        f"{name}: {main.items} items in {main.calls} calls ({main.blocks} blocks); "
        f"known-defect items {main.known_defect_items}; "
        f"fail_ratio {1 - e2e['ok_ratio'][0]:.6f} (known defects included)"
    )
    print(
        f"wall clock: busy {main.wall_busy_s:.3f} s, {main.items / main.wall_busy_s:.6g} items/s, "
        f"p50 {main.latency_ms(main.wall_s, 0.5):.6g} ms, p99 {main.latency_ms(main.wall_s, 0.99):.6g} ms; "
        f"probe median {1e3 * statistics.median(main.probes):.4f} ms over {len(main.probes)} probes"
    )
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    if trace:
        tracer = Tracer()
        tracer.install(pd)
        try:
            traced = run_blocks(workload, pd, batch, 0.0, workload.traced_blocks, tracer)
        finally:
            tracer.uninstall()
        tallies.append(traced)
        values = tracer.metrics(traced.items, REF_S / statistics.median(traced.probes))
        values["trace.items"] = traced.items
        # Same blocks untraced: the main loop ran at least pin_blocks >= traced_blocks.
        values["trace.items_per_s_ratio"] = main.blocks_busy_s(traced.blocks) / traced.busy_s
        units = per_layer_units()
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{name}-seed{seed}.json"
        path.write_text(json.dumps({"workload": name, "env": env, "items": traced.items, **tracer.dump()}))
        for kind, counts in tracer.calls_by_kind.items():
            print(f"trace {kind}: " + json.dumps(dict(sorted(counts.items()))))
        print(f"trace written to {path.relative_to(ROOT)}")

    failed = sum(t.failed_items for t in tallies)
    for t in tallies:
        for failure in t.failures:
            print("GATE FAILURE " + failure, file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": sum(t.items for t in tallies),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# -- all workloads ------------------------------------------------------------


def run_all(seed: int, seconds: float, scale: str, out: str | None) -> int:
    results: dict = {"env": environment(seed), "seconds": seconds, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace), "--scale", scale]
            done = subprocess.run(argv, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{name} trace={trace} exited {done.returncode}\n{done.stderr}", file=sys.stderr)
                status = 1
                break
            entry["end_to_end" if trace == 0 else "per_layer"] = json.loads(lines[-1])["metrics"]
            entry["log" if trace == 0 else "trace_log"] = lines[:-1]
        results["workloads"][name] = entry
    header = ["workload", "setup_s", "items_per_s", "latency_p50_ms", "latency_p99_ms", "fail_ratio", "peak_rss_mb"]
    print(" ".join(f"{h:>16}" for h in header))
    for name, entry in results["workloads"].items():
        m = entry.get("end_to_end")
        if not m:
            continue
        m["fail_ratio"] = {"value": 1 - m["ok_ratio"]["value"], "unit": "fraction"}
        cells = [name] + [f"{m[h]['value']:.6g} {m[h]['unit']}" for h in header[1:]]
        print(" ".join(f"{c:>16}" for c in cells))
    if out:
        Path(out).write_text(json.dumps(results, indent=1) + "\n")
    return status


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the self-test")
    parser.add_argument("--out", help="with --workload all: write the results here")
    parser.add_argument("--write-pins", action="store_true",
                        help="recompute the pinned output digests")
    args = parser.parse_args(argv)
    try:
        if args.write_pins:
            write_pins()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.scale, args.out)
        return measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except ImportError as exc:
        print(f"cannot import padicdyn from this checkout: {exc}", file=sys.stderr)
        return 2
    except PinMismatch as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
