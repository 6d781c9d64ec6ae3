#!/usr/bin/env python3
"""The hsc benchmark: one command that builds the simulator from source,
runs one workload, checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --steady <runs> --workload <name|all> [--first-seed <n>]

Run from the root of a checkout. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones, and the traced run also writes its spans as
a Chrome-trace JSON (loadable in ui.perfetto.dev) and a per-layer table
under .bench_out/. --steady runs a workload on several seeds and prints
the median and quartiles of every metric (see README.md).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("paper_repro", "config_sweep", "trace_observed", "litmus_explore")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# repro_all section titles (the line under a "====" rule) and the section
# each opens; consecutive titles of one section merge.
SECTION_TITLES = (
    ("Table II:", "tables"),
    ("Table III:", "tables"),
    ("Figure 4:", "fig4"),
    ("Figure 5:", "fig5"),
    ("Figure 6:", "fig6"),
    ("Figure 7:", "fig7"),
    ("Table I:", "table1"),
    ("Ablation", "ablation"),
    ("Workload characterization", "characterize"),
    ("Extension", "extension"),
)
SECTIONS = tuple(dict.fromkeys(key for _, key in SECTION_TITLES))
# The simulated cells each figure section runs (benchmarks x configurations):
# paper_repro's cells. Figs. 5 and 7 repeat cells of Figs. 4 and 6, so 70
# of these 120 are distinct.
FIGURE_CELLS = {"fig4": 10 * 4, "fig5": 10 * 5, "fig6": 5 * 3, "fig7": 5 * 3}
# repro_all launches per paper_repro run, at least: one launch runs Figs. 6
# and 7, which set states_per_s and cell_ms_tail, in about 3 s, and its
# figures moved 20 % between runs of the same code.
MIN_LAUNCHES = 2


class BenchError(Exception):
    """The benchmark cannot produce a result (build or launch failure)."""


def load_spec(root=ROOT):
    """BENCHMARK.json's metric declarations: name -> (unit, better)."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    return spec, e2e, layers


# ---------------------------------------------------------------- statistics


def median(values):
    return statistics.median(values) if values else 0.0


def tail(samples):
    """The highest percentile with at least ten samples beyond it, by rank:
    the (n-10)-th smallest of n samples, at percentile 100*(n-10)/n. Under
    forty samples that would be no tail, so the median is reported, at 50.
    Returns (value, percentile, sample count)."""
    n = len(samples)
    if n < 40:
        return median(samples), 50.0, n
    k = n - 10
    return sorted(samples)[k - 1], 100.0 * k / n, n


def round_count(seconds, first_round_s):
    """Whole rounds that fill `seconds` at the first round's pace; at least one."""
    if first_round_s <= 0:
        return 1
    return max(1, int(seconds // first_round_s))


def end_to_end(raw, peak_rss_kb):
    """The end-to-end metrics of one run from its raw measurements. Rates
    are medians of the per-round rates, like wall_s is of round times."""
    rounds = raw["round_s"]
    cells_s = raw.get("round_cells_s") or rounds
    states_s = raw.get("round_states_s") or rounds
    return {
        "wall_s": median(rounds),
        "setup_s": median(raw["setup_s"]),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "cells_per_s": median([c / t for c, t in zip(raw["round_cells"], cells_s) if t > 0]),
        "cell_ms_p50": median(raw["cell_ms"]),
        "cell_ms_tail": tail(raw["cell_ms"])[0],
        "states_per_s": median([s / t for s, t in zip(raw["round_states"], states_s) if t > 0]),
    }


def per_layer(raw, declared):
    """Every declared per-layer metric: the traced round's figures, the
    tracing overhead and the tail rule's percentile and sample count; a
    layer the workload does not drive reads 0."""
    layers = dict(raw["layers"])
    if raw.get("traced_round_s") is not None:
        layers["bench.trace_overhead_s"] = raw["traced_round_s"] - median(raw["round_s"])
    _, pct, n = tail(raw["cell_ms"])
    layers["bench.tail_pct"] = pct
    layers["bench.tail_samples"] = n
    layers["bench.rounds"] = len(raw["round_s"])
    unknown = sorted(set(layers) - set(declared))
    if unknown:
        raise BenchError(f"undeclared per-layer metrics: {unknown}")
    return {name: layers.get(name, 0.0) for name in declared}


def result_line(raw, metrics, declared):
    """The final JSON object; every metric must be declared with its unit."""
    out = {}
    for name, value in metrics.items():
        if name not in declared or not NAME_RE.match(name):
            raise BenchError(f"metric {name!r} is not declared in BENCHMARK.json")
        out[name] = {"value": float(value), "unit": declared[name][0]}
    missing = sorted(set(declared) - set(out))
    if missing:
        raise BenchError(f"declared metrics not produced: {missing}")
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    if attempted < 1 or not 0 <= failed <= attempted:
        raise BenchError(f"bad operation counts: attempted {attempted}, failed {failed}")
    return {
        "correct": not raw["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }


# --------------------------------------------------------------------- build


def build():
    """Builds the simulator's binaries and the harness; returns their paths.
    The two workspaces get their own target directories under
    $CARGO_TARGET_DIR (default .bench_build) so neither rebuilds the
    other's artifacts."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "bench")
    ):
        raise BenchError(f"{ROOT} is not an hsc checkout (no Cargo.toml / crates/bench)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    steps = (
        ("repo", ["cargo", "build", "--release", "--offline", "-p", "hsc-bench", "--bins"]),
        (
            "perfbench",
            ["cargo", "build", "--release", "--offline", "--manifest-path",
             os.path.join(HERE, "Cargo.toml")],
        ),
    )
    for sub, cmd in steps:
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(target, sub))
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if r.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    rel = lambda sub, name: os.path.join(target, sub, "release", name)
    return {
        "repro_all": rel("repo", "repro_all"),
        "validate_report": rel("repo", "validate_report"),
        "harness": rel("perfbench", "hsc-perfbench"),
    }


def spawn(cmd):
    """Runs cmd to completion; returns (stdout, exit status, peak RSS in KiB
    of the process and the descendants it waited for)."""
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    out = p.stdout.read()
    p.stdout.close()
    _, status, usage = os.wait4(p.pid, 0)
    return out, os.waitstatus_to_exitcode(status), usage.ru_maxrss


# --------------------------------------------------------------- paper_repro


def sections_of(lines):
    """[(section, start_s)] from repro_all's timestamped stdout lines. A
    section opens with a title under a "=====" rule; it starts when the
    previous section's output ends (the line before that rule), so a
    child that prints its title only after computing is still charged
    for its own work."""
    found = []
    for i in range(1, len(lines)):
        prev, line = lines[i - 1][1], lines[i][1]
        if not prev.startswith("=====") or line.startswith("====="):
            continue
        key = next((k for title, k in SECTION_TITLES if line.startswith(title)), None)
        if key is not None and (not found or found[-1][0] != key):
            found.append((key, lines[i - 2][0] if found and i >= 2 else lines[0][0]))
    return found


def launch_repro_all(exe):
    """One `repro_all --jobs 1`, each stdout line timestamped as it streams.
    Returns launch-to-first-line, first-line-to-exit, section durations,
    the output lines, exit code and peak RSS (children included)."""
    t0 = time.perf_counter()
    p = subprocess.Popen([exe, "--jobs", "1"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [(time.perf_counter() - t0, line.rstrip("\n")) for line in p.stdout]
    p.stdout.close()
    _, status, usage = os.wait4(p.pid, 0)
    t_end = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    first = lines[0][0] if lines else t_end
    secs = sections_of(lines)
    bounds = [t for _, t in secs[1:]] + [t_end]
    durations = [(k, end - start) for (k, start), end in zip(secs, bounds)]
    return {
        "setup_s": first,
        "wall_s": t_end - first,
        "sections": durations,
        "section_starts": secs,
        "lines": [line for _, line in lines],
        "code": code,
        "rss_kb": usage.ru_maxrss,
    }


def table_rows(lines, section_title):
    """The rows (token lists) and the average of a Fig. 6/7 table."""
    start = next((i for i, l in enumerate(lines) if l.startswith(section_title)), None)
    if start is None:
        return None, None
    rows, avg = [], None
    i = next((j for j in range(start, len(lines)) if lines[j].startswith("bench")), len(lines))
    for line in lines[i + 1:]:
        if line.startswith("----"):
            continue
        m = re.match(r"average[^:]*:\s*([+-]?\d+\.\d+)%", line)
        if m:
            avg = m.group(1)
            break
        rows.append(line.split())
    return rows, avg


def check_figures(lines, fig67):
    """Fig. 6/7 as repro_all printed them must equal the recomputation."""
    errors = []
    for title, key in (("Figure 6:", "fig6"), ("Figure 7:", "fig7")):
        rows, avg = table_rows(lines, title)
        if rows != fig67[key]:
            errors.append(f"{key}: printed rows {rows} differ from the recomputed {fig67[key]}")
        if avg != fig67[key + "_avg"]:
            errors.append(f"{key}: printed average {avg} differs from the recomputed {fig67[key + '_avg']}")
    return errors


def tally(seen, code):
    """(attempted, failed) sections of one repro_all launch: every expected
    section is attempted; one that never started failed, and so did the
    last one started if the process exited non-zero."""
    done = len(set(seen) & set(SECTIONS))
    if code != 0 and done:
        done -= 1
    return len(SECTIONS), len(SECTIONS) - done


def paper_repro(args, bins):
    raw = {"setup_s": [], "round_s": [], "round_cells": [], "round_cells_s": [],
           "round_states": [], "round_states_s": [], "attempted": 0, "failed": 0, "errors": [],
           "layers": {}, "traced_round_s": None}
    per_cell = {k: [] for k in FIGURE_CELLS}
    launches = []
    total = 1
    while len(launches) < total:
        run = launch_repro_all(bins["repro_all"])
        launches.append(run)
        if len(launches) == 1:
            total = max(MIN_LAUNCHES, round_count(args.seconds, run["wall_s"]))
    traced = launch_repro_all(bins["repro_all"]) if args.trace else None

    # Checks, outside the timed phase: exit status, every section present,
    # and Figs. 6/7 equal to the benchmark's recomputation from Metrics.
    out, code, _ = spawn([bins["harness"], "fig67"])
    fig67 = json.loads(out.strip().splitlines()[-1]) if code == 0 and out.strip() else None
    if fig67 is None:
        raw["errors"].append(f"fig67 recomputation failed (exit {code})")
    else:
        raw["errors"] += fig67["errors"]
    for run in launches + ([traced] if traced else []):
        seen = [k for k, _ in run["sections"]]
        if run is not traced:
            attempted, failed = tally(seen, run["code"])
            raw["attempted"] += attempted
            raw["failed"] += failed
            raw["setup_s"].append(run["setup_s"])
            raw["round_s"].append(run["wall_s"])
            figures = {k: d for k, d in run["sections"] if k in FIGURE_CELLS}
            raw["round_cells"].append(sum(FIGURE_CELLS[k] for k in figures))
            raw["round_cells_s"].append(sum(figures.values()))
            for k, d in figures.items():
                per_cell[k].append(d * 1e3 / FIGURE_CELLS[k])
        if run["code"] != 0:
            raw["errors"].append(f"repro_all exited with {run['code']}")
        if seen != list(SECTIONS):
            raw["errors"].append(f"repro_all sections {seen}, expected {list(SECTIONS)}")
        if fig67 is not None:
            raw["errors"] += check_figures(run["lines"], fig67)
    # A figure's cells share its section time evenly.
    raw["cell_ms"] = [median(v) for k, v in per_cell.items() if v for _ in range(FIGURE_CELLS[k])]
    # Figs. 6 and 7 each run exactly the 15 recomputed cells, so their
    # sections' event rate is the engine's throughput inside repro_all.
    for run in launches:
        raw["round_states"].append(2 * fig67["events"] if fig67 else 0)
        raw["round_states_s"].append(sum(d for k, d in run["sections"] if k in ("fig6", "fig7")))
    rss = max(run["rss_kb"] for run in launches + ([traced] if traced else []))

    spans = []
    if traced:
        raw["traced_round_s"] = traced["wall_s"]
        spans.append(("repro_all", 0.0, traced["setup_s"] + traced["wall_s"], None))
        spans.append(("launch to first line", 0.0, traced["setup_s"], 0))
        for (k, start), (_, d) in zip(traced["section_starts"], traced["sections"]):
            raw["layers"][f"bench.section_s.{k}"] = d
            spans.append((f"bench.section {k}", start, start + d, 0))
    return raw, rss, spans


# --------------------------------------------------------- in-process workloads


def in_process(args, bins, stem):
    cmd = [bins["harness"], args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace-out", stem + ".trace.json"]
    if args.workload == "trace_observed":
        cmd += ["--report", stem + ".report.json"]
    out, code, rss = spawn(cmd)
    if code != 0 or not out.strip():
        raise BenchError(f"{' '.join(cmd)} exited with {code}")
    raw = json.loads(out.strip().splitlines()[-1])
    if args.workload == "trace_observed":
        vout, vcode, _ = spawn([bins["validate_report"], stem + ".report.json"])
        if vcode != 0:
            raw["errors"].append(f"validate_report rejected the run report: {vout.strip()}")
    return raw, rss


# ---------------------------------------------------------------------- main


def write_chrome_trace(path, spans):
    events = [
        {"name": name, "cat": "perfbench", "ph": "X", "pid": 1, "tid": 1,
         "ts": start * 1e6, "dur": (end - start) * 1e6, "args": {"id": i, "parent": parent}}
        for i, (name, start, end, parent) in enumerate(spans)
    ]
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)


def layer_table(metrics, declared):
    rows = [f"{'metric':<44} {'value':>16} unit", "-" * 68]
    for name, v in metrics.items():
        rows.append(f"{name:<44} {v:>16.6g} {declared[name][0]}")
    return "\n".join(rows) + "\n"


def run_once(args):
    _, e2e, layers = load_spec()
    bins = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    if args.workload == "paper_repro":
        raw, rss, spans = paper_repro(args, bins)
        if args.trace:
            write_chrome_trace(stem + ".trace.json", spans)
    else:
        raw, rss = in_process(args, bins, stem)
    for e in raw["errors"]:
        print(f"check failed: {e}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(raw, layers)
        table = layer_table(metrics, layers)
        with open(stem + ".layers.txt", "w", encoding="utf-8") as f:
            f.write(table)
        sys.stderr.write(table)
        print(f"spans: {stem}.trace.json", file=sys.stderr)
        return result_line(raw, metrics, layers)
    return result_line(raw, end_to_end(raw, rss), e2e)


# ----------------------------------------------------------- steadiness mode


def host_fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), model)
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True, check=False).stdout.strip()
    except OSError:
        rustc = "unknown"
    return {"nproc": os.cpu_count(), "cpu": model, "rustc": rustc}


def host_load():
    """1-minute load average and total steal jiffies (from /proc/stat)."""
    load, steal = None, None
    try:
        with open("/proc/loadavg", encoding="utf-8") as f:
            load = float(f.read().split()[0])
        with open("/proc/stat", encoding="utf-8") as f:
            cpu = f.readline().split()
        steal = int(cpu[8]) if cpu and cpu[0] == "cpu" and len(cpu) > 8 else None
    except OSError:
        pass
    return load, steal


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(args):
    spec, _, _ = load_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    fp = host_fingerprint()
    print(f"host: nproc={fp['nproc']} cpu={fp['cpu']!r} {fp['rustc']}")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"host": fp, "workloads": {}}
    ok_all = True
    for w in workloads:
        runs = []
        for i in range(args.steady):
            seed = args.first_seed + i
            _, steal0 = host_load()
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t = time.perf_counter()
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            elapsed = time.perf_counter() - t
            load1, steal1 = host_load()
            if r.returncode != 0:
                sys.stderr.write(r.stderr)
                raise BenchError(f"{w} seed {seed} exited with {r.returncode}")
            res = json.loads(r.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "elapsed_s": elapsed, "load1": load1,
                         "steal_jiffies": None if steal0 is None else steal1 - steal0, "result": res})
            vals = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
            print(f"{w} seed={seed} {elapsed:.1f}s load1={load1} steal={runs[-1]['steal_jiffies']} "
                  f"correct={res['correct']} {res['failed']}/{res['attempted']} failed  {vals}", flush=True)
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
        table = {}
        print(f"{w}: {len(runs)} runs, failed share(s) {sorted(shares)}")
        print(f"  {'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in runs[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag, ok_all = "  > bound/3", False
            table[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            b = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {name:<32} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {b:>6}{flag}")
        summary["workloads"][w] = {"runs": runs, "metrics": table, "failed_shares": sorted(shares)}
        ok_all = ok_all and len(shares) == 1 and all(r["result"]["correct"] for r in runs)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"steady-{args.workload}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=1)
    print(f"steady: {'every spread within a third of its bound' if ok_all else 'NOT steady'}; {path}")
    return 0 if ok_all else 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="RUNS",
                    help="run the workload on RUNS consecutive seeds and print medians and quartiles")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all" and not args.steady:
        ap.error("--workload all needs --steady")
    return args


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.steady:
            return steady(args)
        print(json.dumps(run_once(args)))
        return 0
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
