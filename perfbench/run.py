#!/usr/bin/env python3
"""Reference benchmark of the CORP simulator.

Builds ``perfbench`` (this directory's CMake project, compiled from the
repository's ``src/``), makes one workload's inputs from ``--seed``, runs
the ``perfbench`` binary in its own process, checks every output and
prints each metric by name with its unit. The last line of stdout is one
JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of untraced runs; ``--trace 1``
makes one traced run and reports the per-layer metrics. Without
``--workload`` every workload runs, each in its own processes (one timed,
one traced), and the metrics are keyed ``<workload>/<metric>``.

Usage: python3 perfbench/run.py [--workload NAME] [--seed N]
                                [--seconds S] [--trace 0|1]

Only the Python standard library is used. See perfbench/README.md for the
metrics, the workloads and the noise findings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_palmetto", "steady_100k", "azure_replay")
DEFAULT_SEED = 1
BINARY_TIMEOUT_S = 170
# The azure_replay input: one fixed fixture, pinned by its sha256 in
# expected.json, whatever the seed.
FIXTURE_ARGS = ("--schema", "azure-vm", "--mb", "128", "--seed", "1")
FIXTURE_NAME = "azure-vm-128mb-seed1.csv"


class CheckFailed(Exception):
    """An output of the program did not match what the benchmark expects."""


def declared_units(kind: str) -> dict[str, str]:
    """Metric names and units of one BENCHMARK.json list."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in bench[kind]}


# --- build and inputs --------------------------------------------------------


def build_dir() -> Path:
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build_binary() -> Path:
    """Configures (once) and builds perfbench; returns its path."""
    out = build_dir() / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "perfbench"


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def azure_fixture(expected_sha: str) -> Path:
    """The pinned fixture, generated by tools/make_trace_fixture.py on
    first use and kept in the build directory; any mismatch with the
    pinned sha256 fails the run."""
    path = build_dir() / "fixtures" / FIXTURE_NAME
    if path.exists() and sha256_of(path) == expected_sha:
        return path
    path.parent.mkdir(parents=True, exist_ok=True)
    script = ROOT / "tools" / "make_trace_fixture.py"
    subprocess.run([sys.executable, str(script), "--out", str(path),
                    *FIXTURE_ARGS], check=True, stdout=sys.stderr)
    got = sha256_of(path)
    if got != expected_sha:
        raise CheckFailed(f"fixture sha256 {got} != pinned {expected_sha}")
    return path


# --- checks ------------------------------------------------------------------


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_invariants(result: dict[str, Any], submitted: int,
                     where: str) -> None:
    """Conservation laws every run obeys, for any seed."""
    check(result["slots_ticked"] + result["slots_skipped"]
          == result["slots_simulated"],
          f"{where}: ticked + skipped != simulated")
    # Every submitted job ends exactly once: completed (on time, violated
    # or forced at the grace cutoff, all recorded as completions) or
    # dropped after its retry budget.
    ended = result["jobs_completed"] + result["jobs_dropped"]
    check(ended == submitted,
          f"{where}: {ended} jobs ended but {submitted} were submitted")
    check(result["jobs_forced"] <= result["jobs_completed"],
          f"{where}: more forced than completed jobs")
    check(result["jobs_violated"] <= ended,
          f"{where}: more violated than ended jobs")
    check(result["slo_violation_rate"] == result["jobs_violated"] / ended,
          f"{where}: slo_violation_rate != violated / ended")


def check_pins(doc: dict[str, Any], pins: dict[str, Any], seed: int) -> None:
    """Exact outputs: stream counts and the fixture for every seed (the
    fixture never changes), result fields for the default seed."""
    for key, want in pins.get("stream", {}).items():
        got = doc["stream"][key]
        check(got == want, f"stream.{key} = {got}, pinned {want}")
    if seed != DEFAULT_SEED:
        return
    result = doc["reps"][0]["result"]
    for key, want in pins["result"].items():
        check(result[key] == want, f"result.{key} = {result[key]!r}, "
                                   f"pinned {want!r} for seed {seed}")


def checked_reps(doc: dict[str, Any], pins: dict[str, Any], seed: int,
                 submitted: int) -> None:
    first = doc["reps"][0]["result"]
    for i, rep in enumerate(doc["reps"]):
        check_invariants(rep["result"], submitted, f"rep {i}")
        # Each rep sets up a fresh Simulation: results must repeat exactly.
        check(rep["result"] == first, f"rep {i} result differs from rep 0")
    if "traced" in doc:
        traced = doc["traced"]
        check_invariants(traced["result"], submitted, "traced run")
        diff = [k for k in first if traced["result"][k] != first[k]]
        check(not diff, f"traced result differs from untraced in {diff}")
        check(traced.get("stream") == doc.get("stream"),
              "traced stream counts differ from untraced")
        check(len(traced["slot_ms"]) == first["slots_ticked"],
              "traced run stamped a different number of slots than it ticked")
    check_pins(doc, pins, seed)


# --- metrics -----------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile of a fixed ladder with at least ten samples
    beyond it (nearest rank); p50 when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 50.0, 0
    pct = next((p for p in (99.9, 99.0, 95.0, 90.0, 75.0)
                if n * (100.0 - p) / 100.0 >= 10), 50.0)
    return ordered[max(0, math.ceil(pct / 100.0 * n) - 1)], pct, n


def rows_of(doc: dict[str, Any]) -> int:
    stream = doc.get("stream")
    return int(stream["rows_parsed"]) if stream else int(doc["trace_rows"])


def end_to_end(doc: dict[str, Any], submitted: int) -> dict[str, float]:
    reps = doc["reps"]
    result = reps[0]["result"]
    rows = rows_of(doc)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "busy_slots_per_s": statistics.median(
            r["result"]["slots_ticked"] / r["run_s"] for r in reps),
        "rows_per_s": statistics.median(rows / r["run_s"] for r in reps),
        "alloc_ms_per_job": statistics.median(
            r["total_latency_ms"] / submitted for r in reps),
        "peak_rss_mb": doc["peak_rss_mb"],
        "utilization": result["overall_utilization"],
        "slo_violation_rate": result["slo_violation_rate"],
    }


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(doc: dict[str, Any]) -> tuple[dict[str, float], list[str]]:
    t = doc["traced"]
    result = t["result"]
    stream = t.get("stream", {})
    calls = t["sched_call_ms"]
    sched_tail, sched_pct, sched_n = tail(calls)
    slot_tail, slot_pct, slot_n = tail(t["slot_ms"])
    run_s = t["run_s"]
    self_s = (run_s - t["sched_busy_s"] - t["predict_busy_s"]
              - t["source_busy_s"])
    placements = (result["opportunistic_placements"]
                  + result["reserved_placements"])
    m = {
        "dnn.busy_s": t["dnn_busy_s"],
        "dnn.sgd_steps": t["dnn_sgd_steps"],
        "dnn.us_per_step": ratio(t["dnn_busy_s"] * 1e6, t["dnn_sgd_steps"]),
        "dnn.share_of_setup": ratio(t["dnn_busy_s"], t["setup_s"]),
        "hmm.busy_s": t["hmm_busy_s"],
        "hmm.iterations": t["hmm_iterations"],
        "hmm.share_of_setup": ratio(t["hmm_busy_s"], t["setup_s"]),
        "predict.busy_s": t["predict_busy_s"],
        "predict.rows": t["predict_rows"],
        "predict.us_per_row": ratio(t["predict_busy_s"] * 1e6,
                                    t["predict_rows"]),
        "predict.share_of_run": ratio(t["predict_busy_s"], run_s),
        "sched.busy_s": t["sched_busy_s"],
        "sched.calls": len(calls),
        "sched.ms_per_call_p50": median_or_zero(calls),
        "sched.ms_per_call_tail": sched_tail,
        "sched.jobs_offered": t["sched_offered"],
        "sched.yield": ratio(t["sched_placed"], t["sched_offered"]),
        "sched.opportunistic_share": ratio(result["opportunistic_placements"],
                                           placements),
        "sched.packed_pairs": t["packed_pairs"],
        "sched.share_of_run": ratio(t["sched_busy_s"], run_s),
        "sim.busy_s": run_s,
        "sim.self_s": self_s,
        "sim.self_share_of_run": ratio(self_s, run_s),
        "sim.busy_slots": result["slots_ticked"],
        "sim.skipped_slots": result["slots_skipped"],
        "sim.slot_ms_p50": median_or_zero(t["slot_ms"]),
        "sim.slot_ms_tail": slot_tail,
        "sim.tracing_overhead": ratio(run_s, doc["reps"][0]["run_s"]),
        "trace.busy_s": t["source_busy_s"],
        "trace.rows": stream.get("rows_parsed", 0),
        "trace.bytes": stream.get("bytes_read", 0),
        "trace.rows_per_busy_s": ratio(stream.get("rows_parsed", 0),
                                       t["source_busy_s"]),
        "trace.keep_ratio": ratio(stream.get("jobs_emitted", 0),
                                  stream.get("tasks_opened", 0)),
        "trace.peak_live_jobs": stream.get("peak_live_jobs", 0),
        "trace.peak_open_tasks": stream.get("peak_open_tasks", 0),
        "trace.share_of_run": ratio(t["source_busy_s"], run_s),
    }
    notes = [
        f"sched.ms_per_call_tail is p{sched_pct:g} of n={sched_n} calls",
        f"sim.slot_ms_tail is p{slot_pct:g} of n={slot_n} ticked slots",
        "layer shares (traced run): set-up {:.3f} s = dnn {:.1%} + hmm {:.1%};"
        " run {:.3f} s = predict {:.1%} + sched {:.1%} + trace {:.1%}"
        " + sim self {:.1%}".format(
            t["setup_s"], m["dnn.share_of_setup"], m["hmm.share_of_setup"],
            run_s, m["predict.share_of_run"], m["sched.share_of_run"],
            m["trace.share_of_run"], m["sim.self_share_of_run"]),
    ]
    return m, notes


# --- one workload ------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict[str, Any]:
    pins = json.loads((HERE / "expected.json").read_text())[workload]
    binary = build_binary()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    try:
        if workload == "azure_replay":
            cmd += ["--fixture", str(azure_fixture(pins["fixture_sha256"]))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"perfbench exited with {proc.returncode}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        stream = doc.get("stream")
        submitted = int(stream["jobs_emitted"] if stream
                        else doc["jobs_submitted"])
        checked_reps(doc, pins, seed, submitted)
    except CheckFailed as failure:
        # A mismatch fails the run and is never reported as a number.
        print(f"{workload}: output check failed: {failure}")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    attempted = len(doc["reps"]) + (1 if trace else 0)
    if trace:
        values, notes = per_layer(doc)
        units = declared_units("per_layer")
    else:
        values, notes = end_to_end(doc, submitted), []
        units = declared_units("end_to_end")
    if values.keys() != units.keys():
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(values.keys() ^ units.keys())}")
    print(f"{workload} (seed {seed}, {len(doc['reps'])} reps, "
          f"{'traced' if trace else 'untraced'})")
    for name, value in values.items():
        print(f"  {name:<28} {value:>16.6g} {units[name]}")
    for note in notes:
        print(f"  {note}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return {"correct": True, "attempted": attempted, "failed": 0,
            "metrics": metrics}


def run_all(seed: int, seconds: float) -> dict[str, Any]:
    """Every workload, timed and traced, each in its own process."""
    summary: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0,
                               "metrics": {}}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", trace],
                stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                raise RuntimeError(f"{workload} --trace {trace} failed")
            part = json.loads(lines[-1])
            summary["correct"] = summary["correct"] and part["correct"]
            summary["attempted"] += part["attempted"]
            summary["failed"] += part["failed"]
            for name, metric in part["metrics"].items():
                summary["metrics"][f"{workload}/{name}"] = metric
    return summary


def main() -> int:
    doc = __doc__ or ""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "sim" / "simulation.hpp").is_file():
        print(f"error: no CORP sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload is None:
            summary = run_all(args.seed, args.seconds)
        else:
            summary = run_workload(args.workload, args.seed, args.seconds,
                                   args.trace == 1)
    except (RuntimeError, CheckFailed, subprocess.SubprocessError, OSError,
            ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
