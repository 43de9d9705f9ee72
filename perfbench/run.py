"""Request-stream benchmark for rigidtori.

    python3 perfbench/run.py [--workload actions|cold-groups|all]
                             [--seed N] [--trace 0|1]

Run from the root of a source checkout.  For each workload it generates the
seeded request stream in a separate process, replays the whole stream
through the rigidtori.cli runners in a fresh measuring process
(perfbench/serve.py) as a closed loop with one client, checks every answer
here, outside the measuring process, and prints each metric by name with
its unit.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.

The amount of work is fixed per workload (a fixed number of decks of
requests), so that every run serves the same requests whatever the speed
of the host; --seconds is accepted but does not change it.  On a 2-core
x86 host a run serves for about 45-55 s (actions) or 30 s (cold-groups).

Request times are scaled to a fixed host speed before they enter the
metrics: each is multiplied by REFERENCE_S over the median time of the
reference kernel (serve.reference) taken in the REFERENCE_WINDOW slots
around it.  The raw figures are printed as notes.

--trace 0 reports the end-to-end metrics.  --trace 1 instead replays the
stream twice, traced and untraced, and reports the per-layer metrics and
the tracing overhead.

Exit status: 0 when every answer passed its check, 1 when one did not,
2 when the benchmark could not run (no rigidtori sources, a crashed child
process).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("actions", "cold-groups")
SETUP_PROBES = 2         # extra fresh processes timing set-up alone
GENERATE_TIMEOUT = 600   # seconds; the first stream also draws the catalogue
TAIL_BEYOND = 10         # samples that must lie beyond the tail percentile
REFERENCE_S = 0.012      # reference kernel time at the speed times are scaled to
REFERENCE_WINDOW = 4     # kernel timings each side of a request


class BenchmarkError(RuntimeError):
    pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="accepted; the work per run is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rigidtori", "cli.py")):
        print("perfbench: no rigidtori sources under src/ next to perfbench/",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            docs = generate(workload, args.seed)
            result = run_traced(docs) if args.trace else run_measured(docs)
            report(workload, args.seed, result)
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, (value, unit) in result["metrics"].items():
                key = name if len(workloads) == 1 else f"{workload}/{name}"
                summary["metrics"][key] = {"value": value, "unit": unit}
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


# -- child processes ----------------------------------------------------------


def _python(script, *argv, timeout=None):
    """Run a perfbench script in a fresh interpreter; its last stdout line
    is JSON.  Hash seeding is fixed so that set and dict orders, and with
    them the traced counts, repeat exactly."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, script), *argv],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{script} {' '.join(argv)} timed out") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{script} {' '.join(argv)} exited with "
                             f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def source_key():
    """A digest of the benchmark's and the library's sources.  Generated
    streams depend on both (fixtures, element orders), so they are cached
    under it and drawn anew when either changes."""
    digest = hashlib.sha256()
    for pattern in ("perfbench/*.py", "src/rigidtori/**/*.py"):
        for path in sorted(glob.glob(os.path.join(ROOT, pattern),
                                     recursive=True)):
            digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read() + b"\0")
    return digest.hexdigest()[:16]


def generate(workload, seed):
    """Generate the stream once per sources, workload and seed."""
    docs = os.path.join(ROOT, ".bench_build", "perfbench", source_key(),
                        f"{workload}-{seed}")
    if not os.path.isfile(os.path.join(docs, "expect.json")):
        _python("generate.py", "--workload", workload, "--seed", str(seed),
                "--out", docs, timeout=GENERATE_TIMEOUT)
    return docs


def serve(docs, tag, *flags):
    """Serve the stream in a fresh process and check its answers here."""
    import checks
    reports = os.path.join(docs, f"reports-{tag}.jsonl")
    run = _python("serve.py", "--docs", docs, "--reports", reports, *flags)
    with open(os.path.join(docs, "requests.json")) as fh:
        requests = json.load(fh)
    with open(os.path.join(docs, "expect.json")) as fh:
        expect = json.load(fh)["expect"]
    with open(reports) as fh:
        records = [json.loads(line) for line in fh]
    if len(records) != len(requests):
        raise BenchmarkError(f"{tag} run answered {len(records)} of "
                             f"{len(requests)} requests")
    run["outcomes"], run["failures"], run["wrong"] = checks.check_stream(
        requests, expect, records)
    return run


def run_measured(docs):
    setups = [_python("serve.py", "--docs", docs, "--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    run = serve(docs, "measured")
    setups.append(run["setup_s"])
    result = _outcome(run)
    scaled = scaled_latencies(run)
    latencies = ranked_latencies(run, scaled)
    tail, percentile = tail_latency(latencies)
    answered = result["attempted"] - result["failed"]
    raw = ranked_latencies(run, run["latencies"])
    result["metrics"] = {
        "throughput_rps": (answered / sum(scaled), "1/s"),
        "latency_p50_s": (median_latency(latencies), "s"),
        "latency_tail_s": (tail, "s"),
        "answered_share": (answered / result["attempted"], "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    result["notes"] = [
        f"failed_share {result['failed'] / result['attempted']:.6g} ratio",
        f"latency_tail_s is p{percentile:.4g} of {len(latencies)} samples, "
        f"{min(TAIL_BEYOND, len(latencies) - 1)} beyond it",
        f"setup_s samples {', '.join(f'{s:.4f}' for s in setups)}",
        f"served for {run['served_s']:.4g} s, {sum(scaled):.4g} s scaled",
        f"unscaled: throughput_rps {answered / run['served_s']:.6g}, "
        f"latency_p50_s {median_latency(raw):.6g}, "
        f"latency_tail_s {tail_latency(raw)[0]:.6g}",
        f"reference kernel {1e3 * statistics.median(run['references']):.4g} ms "
        f"median, {1e3 * min(run['references']):.4g}-"
        f"{1e3 * max(run['references']):.4g} ms "
        f"(scaled to {1e3 * REFERENCE_S:.4g} ms)",
    ]
    return result


def run_traced(docs):
    traced = serve(docs, "traced", "--trace")
    plain = serve(docs, "plain")
    result = _outcome(traced)
    result["correct"] &= plain["wrong"] == 0
    result["metrics"] = {name: tuple(value)
                         for name, value in traced["layers"].items()}
    result["metrics"]["trace.overhead_share"] = (
        sum(scaled_latencies(traced)) / sum(scaled_latencies(plain)) - 1,
        "ratio")
    result["notes"] = [f"spans in {os.path.join(docs, 'spans.json')}"]
    return result


def _outcome(run):
    return {"correct": run["wrong"] == 0,
            "attempted": len(run["latencies"]),
            "failed": len(run["failures"]),
            "failures": run["failures"],
            "outcomes": run["outcomes"]}


def scaled_latencies(run):
    """Each request's time at the host speed where the reference kernel
    takes REFERENCE_S.  The kernel ran before every request and after the
    last (references[i] just before request i); request i is scaled by the
    median of the kernel times within REFERENCE_WINDOW slots of it, since
    the host's speed changes within seconds."""
    refs = run["references"]
    return [t * REFERENCE_S / statistics.median(
                refs[max(0, i + 1 - REFERENCE_WINDOW):i + 1 + REFERENCE_WINDOW])
            for i, t in enumerate(run["latencies"])]


def ranked_latencies(run, latencies):
    """Latencies in rank order, where a failed request ranks above every
    answered one: it misses any latency limit.  A failed request keeps its
    measured time as its value, so a percentile that falls on one (more
    than ten failures) reads low; answered_share reports those runs."""
    failed = {f["index"] for f in run["failures"]}
    ranked = sorted((i in failed, t) for i, t in enumerate(latencies))
    return [t for _, t in ranked]


def median_latency(latencies):
    """The median by rank (statistics.median would re-sort by value)."""
    n = len(latencies)
    return (latencies[(n - 1) // 2] + latencies[n // 2]) / 2


def tail_latency(latencies):
    """(value, percentile): the highest percentile with at least TAIL_BEYOND
    samples beyond it; the maximum when there are too few samples."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return latencies[-1], 100.0
    return latencies[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def report(workload, seed, result):
    print(f"== {workload} (seed {seed}, closed loop, 1 client) ==")
    for name, (value, unit) in result["metrics"].items():
        print(f"{workload} {name} {value:.6g} {unit}")
    for note in result["notes"]:
        print(f"{workload} {note}")
    outcomes = ", ".join(f"{k} {v}" for k, v in sorted(result["outcomes"].items()))
    print(f"{workload} answered: {outcomes or 'none'}")
    for failure in result["failures"]:
        detail = f" ({failure['detail']})" if "detail" in failure else ""
        print(f"{workload} FAILED request {failure['index']}: "
              f"{failure['error']}{detail}")


if __name__ == "__main__":
    sys.exit(main())
