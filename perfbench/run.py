#!/usr/bin/env python3
"""End-to-end benchmark of the wcp library: one command, two workloads.

    python3 perfbench/run.py --workload offline|serve --seed N \
        --seconds S --trace 0|1

Builds the benchmark binary (perfbench/cpp, against ../src) in .bench_build on
first use, runs one workload closed-loop, checks every op against its
oracle and prints as the last line of stdout one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (see
perfbench/README.md for what each measures and which end-to-end metric it
should move). Every result is also written, stamped with cores, build type,
compiler and seed, to .bench_build/runs/. Exits non-zero without printing a
result when the library sources are missing or any step fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "wcp_perfbench")
RUN_TIMEOUT_S = 170

# The workloads BENCHMARK.json gates. The binary also runs `lattice`, but
# only as a traced pass of every traced run: on a shared 4-vCPU VM its
# end-to-end figures swung beyond the bounds (see STEADINESS.md).
WORKLOADS = ("offline", "serve")

# name -> unit. Must match BENCHMARK.json (test_stats.py checks).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
}

# Per-layer metrics taken as the median, over the traced ops that have the
# span, of that op's self time in the span.
SPAN_MS = {
    "trace.load_text_ms": "trace.load_text",
    "trace.load_bin_ms": "trace.load_bin",
    "trace.store_build_ms": "trace.store_build",
    "detect.token_ms": "detect.token",
    "detect.multi_ms": "detect.multi",
    "detect.dd_ms": "detect.dd",
    "detect.checker_ms": "detect.checker",
    "slice.build_ms": "slice.build",
    "detect.lattice_sliced_ms": "detect.lattice_sliced",
    "detect.definitely_sliced_ms": "detect.definitely_sliced",
    "lattice.possibly_ms": "lattice.possibly",
    "lattice.definitely_ms": "lattice.definitely",
    "serve.connect_ms": "serve.connect",
    "protocol.encode_ms": "protocol.encode",
    "protocol.decode_ms": "protocol.decode",
    "session.apply_ms": "session.apply",
    "session.token_ms": "session.token",
    "session.checker_ms": "session.checker",
    "session.slicer_ms": "session.slicer",
    "session.lattice_online_ms": "session.lattice_online",
}

# Per-layer metrics taken as the median of a per-op counter sample.
SAMPLED = {
    "trace_store.bytes_per_state": "B",
    "sim.events_per_op": "count",
    "cut_storage.peak_bytes": "B",
    "cut_storage.probes_per_cut": "ratio",
    "cut_storage.heap_allocs": "count",
    "serve.acks_per_snapshot": "ratio",
    "serve.bytes_in_per_snapshot": "B",
    "serve.bytes_out_per_snapshot": "B",
    "serve.gc_rounds": "count",
    "serve.store_peak_bytes": "B",
}

# name -> unit for every per-layer metric, in report order. Must match
# BENCHMARK.json (test_stats.py checks).
PER_LAYER = {
    **{name: "ms" for name in SPAN_MS},
    **SAMPLED,
    "lattice.cuts_per_s": "1/s",
    "lattice.mc_ratio": "ratio",
    "serve.transport_ms": "ms",
    "serve.hol_wait_ms": "ms",
    "tracing.ops_ratio": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", CMAKE_DIR, "--target", "wcp_perfbench", "-j",
         str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr)


def measured_ops(phase):
    """Ops of a phase that ended inside its measured window."""
    lo, hi = phase["start"], phase["start"] + phase["seconds"]
    return [op for op in phase["ops"] if lo <= op[1] < hi]


def ops_per_s(phase):
    return stats.completion_rate([op[1] for op in phase["ops"]],
                                 phase["start"], phase["seconds"])


def latencies_ms(ops):
    return [(op[1] - op[0]) * 1e3 for op in ops]


def phase(run, name):
    for ph in run["phases"]:
        if ph["name"] == name:
            return ph
    raise KeyError(f"run has no phase {name}")


def end_to_end(run, workload):
    ph = phase(run, workload + ".measure")
    lat = latencies_ms(measured_ops(ph))
    if not lat:
        raise RuntimeError("no op completed inside the measured window")
    _, p99 = stats.tail_percentile(lat, 99)
    return {
        "setup_s": stats.median(run["setup_s"]),
        "peak_rss_mb": run["values"]["peak_rss_kb"] / 1024,
        "ops_per_s": ops_per_s(ph),
        "op_p50_ms": stats.median(lat),
        "op_p99_ms": p99,
    }


def span_table(run):
    """Self time of every span, grouped as {name: {op: total self ms}}."""
    names = run["span_names"]
    spans = run["spans"]
    selfs = stats.self_times([(s[1], s[3], s[4]) for s in spans])
    table = {}
    for s, self_ns in zip(spans, selfs):
        per_op = table.setdefault(names[s[0]], {})
        per_op[s[2]] = per_op.get(s[2], 0.0) + self_ns / 1e6
    durations = {}
    for s in spans:
        durations.setdefault(names[s[0]], []).append((s[4] - s[3]) / 1e6)
    return table, durations


def hol_wait_ms(ops):
    """p99 of bounded-only streams that overlapped a lattice-online stream
    on the shared loop, minus p99 of those that overlapped none."""
    heavy = [(op[0], op[1]) for op in ops if op[3] == 1]
    shared, alone = [], []
    for op in ops:
        if op[3] != 0:
            continue
        hit = any(a < op[1] and op[0] < b for a, b in heavy)
        (shared if hit else alone).append((op[1] - op[0]) * 1e3)
    if not shared or not alone:
        raise RuntimeError(
            "traced serve pass has no bounded-only streams "
            + ("sharing the loop with" if not shared else "clear of")
            + " a lattice-online stream")
    return stats.tail_percentile(shared)[1] - stats.tail_percentile(alone)[1]


def per_layer(run, workload):
    table, durations = span_table(run)
    out = {}
    for metric, span in SPAN_MS.items():
        per_op = table.get(span)
        if not per_op:
            raise RuntimeError(f"traced run recorded no {span} span")
        out[metric] = stats.median(list(per_op.values()))
    for metric in SAMPLED:
        vs = run["samples"].get(metric)
        if not vs:
            raise RuntimeError(f"traced run recorded no {metric} sample")
        out[metric] = stats.median(vs)
    searched_ms = (sum(durations["lattice.possibly"]) +
                   sum(durations["lattice.definitely"]))
    out["lattice.cuts_per_s"] = (sum(run["samples"]["lattice.cuts"]) /
                                 (searched_ms / 1e3))
    out["lattice.mc_ratio"] = run["values"]["lattice.mc_ratio"]
    out["serve.transport_ms"] = (stats.median(durations["serve.stream"]) -
                                 out["session.apply_ms"] -
                                 out["protocol.encode_ms"])
    out["serve.hol_wait_ms"] = hol_wait_ms(
        measured_ops(phase(run, "serve.traced")))
    out["tracing.ops_ratio"] = (ops_per_s(phase(run, workload + ".traced")) /
                                ops_per_s(phase(run, workload + ".untraced")))
    return out, table, durations


def report_spans(table, durations):
    log(f"{'span':28} {'count':>7} {'p50 ms':>9} {'p50 self ms':>12} "
        f"{'self total ms':>14}")
    for name in sorted(table):
        selfs = list(table[name].values())
        log(f"{name:28} {len(durations[name]):7d} "
            f"{stats.median(durations[name]):9.4f} "
            f"{stats.median(selfs):12.4f} {sum(selfs):14.2f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = os.path.join(runs, tag + ".raw.json")
    scratch = os.path.join(BUILD, f"scratch-{os.getpid()}")
    t0 = time.monotonic()
    try:
        subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scratch", scratch, "--out", raw_path],
            check=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(raw_path) as f:
        run = json.load(f)

    if args.trace:
        metrics, table, durations = per_layer(run, args.workload)
        units = PER_LAYER
        report_spans(table, durations)
    else:
        metrics = end_to_end(run, args.workload)
        units = END_TO_END
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    with open(os.path.join(runs, tag + ".json"), "w") as f:
        json.dump({"stamp": run["stamp"], "wall_s": time.monotonic() - t0,
                   **result}, f, indent=1)
    print(json.dumps({"stamp": run["stamp"]}))
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, KeyError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
