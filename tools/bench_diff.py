#!/usr/bin/env python3
"""Diff a fresh micro_sim run against the committed BENCH_sim.json baseline.

Usage: bench_diff.py [--fail-regressed] BENCH_sim.json BENCH_sim_raw.json
       [>> $GITHUB_STEP_SUMMARY]

The committed baseline stores curated `after_*` numbers per benchmark
(items/s for event-counting benches, wall-clock ms/us otherwise).  The raw
file is Google Benchmark's --benchmark_out JSON.  The script renders a
markdown comparison table to stdout and emits a GitHub `::warning::`
annotation for every benchmark that regressed by more than REGRESSION_PCT.

A baseline entry may additionally carry `after_<counter>_bytes` memory
fields (e.g. `after_flat_bytes`); each is compared against the
same-named gbench counter of the raw run as its own lower-is-better row.
Memory counters are deterministic, but they share the one regression
threshold: a >10% footprint growth flags exactly like a slowdown.

Benchmarks present in only one of the two files are reported explicitly:
baseline-only ones as "gone" (deleted or renamed — update the baseline),
raw-only ones as "new" (not yet curated into the baseline).  Neither state
is an error and neither regresses.

By default the script always exits 0: the job summary is the report, CI
does not gate on noisy single-run numbers.  With --fail-regressed it exits
1 when any benchmark regressed beyond the threshold — the opt-in gate the
telemetry-overhead CI step uses.

A missing or malformed input file is an environment problem, not a perf
result: the script prints one line to stderr and exits 2 (no traceback),
so the CI step fails with a readable message.  `bench_diff.py --self-check`
runs the built-in pytest-style checks of exactly that contract.
"""

import json
import sys

REGRESSION_PCT = 10.0


def load_json(path, role):
    """Loads a JSON input or fails with a one-line diagnostic (exit 2)."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        sys.stderr.write(
            f"bench_diff: cannot read {role} file '{path}': {e.strerror}\n")
        raise SystemExit(2)
    except json.JSONDecodeError as e:
        sys.stderr.write(
            f"bench_diff: {role} file '{path}' is not valid JSON: {e}\n")
        raise SystemExit(2)


def raw_by_name(raw):
    out = {}
    for bench in raw.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue
        out[bench["name"]] = bench
    return out


def to_unit(value_ns_like, time_unit, target):
    """Google Benchmark real_time (in `time_unit`) -> target unit."""
    scale_to_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[time_unit]
    ns = value_ns_like * scale_to_ns
    return ns / {"us": 1e3, "ms": 1e6}[target]


def fmt_bytes(value):
    if value >= 1 << 20:
        return f"{value / (1 << 20):.2f} MiB"
    if value >= 1 << 10:
        return f"{value / (1 << 10):.2f} KiB"
    return f"{value:.0f} B"


def fresh_cell(fresh):
    """Best-effort rendering of a raw result with no baseline to compare."""
    if "items_per_second" in fresh:
        return f"{float(fresh['items_per_second']) / 1e6:.2f} M/s"
    ms = to_unit(float(fresh["real_time"]), fresh.get("time_unit", "ns"),
                 "ms")
    return f"{ms:.2f} ms" if ms >= 1.0 else f"{ms * 1e3:.2f} us"


def self_check():
    """Pytest-style checks of the error contract: one stderr line, exit 2,
    no traceback, for each way an input file can be bad."""
    import os
    import subprocess
    import tempfile

    script = os.path.abspath(__file__)
    checks = []

    def check(name, argv):
        proc = subprocess.run([sys.executable, script] + argv,
                              capture_output=True, text=True)
        ok = (proc.returncode == 2
              and proc.stderr.startswith("bench_diff: ")
              and len(proc.stderr.splitlines()) == 1
              and "Traceback" not in proc.stderr)
        checks.append((name, ok, proc.returncode, proc.stderr.strip()))

    with tempfile.TemporaryDirectory() as tmp:
        good = os.path.join(tmp, "good.json")
        with open(good, "w") as f:
            json.dump({"benchmarks": []}, f)
        bad = os.path.join(tmp, "bad.json")
        with open(bad, "w") as f:
            f.write("{not json")
        missing = os.path.join(tmp, "missing.json")
        check("missing baseline", [missing, good])
        check("missing raw", [good, missing])
        check("malformed baseline", [bad, good])
        check("malformed raw", [good, bad])
        unreadable = os.path.join(tmp, "unreadable.json")
        with open(unreadable, "w") as f:
            f.write("{}")
        os.chmod(unreadable, 0)
        if not os.access(unreadable, os.R_OK):  # Skipped when run as root.
            check("unreadable baseline", [unreadable, good])
        # And the happy path still exits 0 with the report on stdout.
        proc = subprocess.run([sys.executable, script, good, good],
                              capture_output=True, text=True)
        checks.append(("two empty inputs pass", proc.returncode == 0
                       and "micro_sim" in proc.stdout, proc.returncode,
                       proc.stderr.strip()))
        # Memory fields: an unchanged counter passes, a grown one gates.
        mem_base = os.path.join(tmp, "mem_base.json")
        with open(mem_base, "w") as f:
            json.dump({"benchmarks": [{"name": "BM_Mem", "after_ms": 1.0,
                                       "after_compressed_bytes": 1000}]}, f)
        mem_raw = os.path.join(tmp, "mem_raw.json")
        with open(mem_raw, "w") as f:
            json.dump({"benchmarks": [{"name": "BM_Mem", "real_time": 1.0,
                                       "time_unit": "ms",
                                       "compressed_bytes": 1000.0}]}, f)
        proc = subprocess.run([sys.executable, script, "--fail-regressed",
                               mem_base, mem_raw],
                              capture_output=True, text=True)
        checks.append(("unchanged memory counter passes",
                       proc.returncode == 0
                       and "BM_Mem [compressed_bytes]" in proc.stdout,
                       proc.returncode, proc.stderr.strip()))
        with open(mem_raw, "w") as f:
            json.dump({"benchmarks": [{"name": "BM_Mem", "real_time": 1.0,
                                       "time_unit": "ms",
                                       "compressed_bytes": 2000.0}]}, f)
        proc = subprocess.run([sys.executable, script, "--fail-regressed",
                               mem_base, mem_raw],
                              capture_output=True, text=True)
        checks.append(("grown memory counter gates", proc.returncode == 1
                       and "compressed_bytes grew" in proc.stderr,
                       proc.returncode, proc.stderr.strip()))

    failed = 0
    for name, ok, code, err in checks:
        status = "ok" if ok else "FAILED"
        print(f"self-check: {name} ... {status}"
              + ("" if ok else f" (exit={code}, stderr={err!r})"))
        failed += 0 if ok else 1
    print(f"self-check: {len(checks) - failed}/{len(checks)} passed")
    return 1 if failed else 0


def main():
    args = sys.argv[1:]
    if args == ["--self-check"]:
        return self_check()
    fail_regressed = "--fail-regressed" in args
    args = [a for a in args if a != "--fail-regressed"]
    if len(args) != 2:
        sys.stderr.write(__doc__)
        return 2
    baseline = load_json(args[0], "baseline")
    raw = raw_by_name(load_json(args[1], "raw"))

    rows = []
    warnings = []
    gone = []
    baseline_names = set()
    for bench in baseline.get("benchmarks", []):
        name = bench["name"]
        baseline_names.add(name)
        fresh = raw.get(name)
        if fresh is None:
            gone.append(name)
            continue
        if "after_items_per_second" in bench:
            base = float(bench["after_items_per_second"])
            new = float(fresh.get("items_per_second", 0.0))
            # Higher is better.
            delta_pct = (new - base) / base * 100.0
            rows.append((name, f"{base / 1e6:.2f} M/s", f"{new / 1e6:.2f} M/s",
                         delta_pct))
            if delta_pct < -REGRESSION_PCT:
                warnings.append(
                    f"{name}: {abs(delta_pct):.1f}% slower than the "
                    f"committed BENCH_sim.json baseline")
        elif "after_ms" in bench or "after_us" in bench:
            unit = "ms" if "after_ms" in bench else "us"
            base = float(bench[f"after_{unit}"])
            new = to_unit(float(fresh["real_time"]),
                          fresh.get("time_unit", "ns"), unit)
            # Lower is better; report slowdown as a negative delta.
            delta_pct = (base - new) / base * 100.0
            rows.append((name, f"{base:.2f} {unit}", f"{new:.2f} {unit}",
                         delta_pct))
            if delta_pct < -REGRESSION_PCT:
                warnings.append(
                    f"{name}: {abs(delta_pct):.1f}% slower than the "
                    f"committed BENCH_sim.json baseline")
        # Memory fields: after_<counter>_bytes vs the raw run's same-named
        # gbench counter (a top-level key in the benchmark dict).
        for key in sorted(bench):
            if not (key.startswith("after_") and key.endswith("_bytes")):
                continue
            counter = key[len("after_"):]
            base = float(bench[key])
            new = float(fresh.get(counter, 0.0))
            # Lower is better, like wall-clock.
            delta_pct = (base - new) / base * 100.0
            rows.append((f"{name} [{counter}]", fmt_bytes(base),
                         fmt_bytes(new), delta_pct))
            if delta_pct < -REGRESSION_PCT:
                warnings.append(
                    f"{name}: {counter} grew {abs(delta_pct):.1f}% over the "
                    f"committed BENCH_sim.json baseline")
    new_benches = [name for name in raw if name not in baseline_names]

    print("## micro_sim vs committed BENCH_sim.json baseline\n")
    print(f"Regression threshold: {REGRESSION_PCT:.0f}% "
          "(single CI run; treat small deltas as noise).\n")
    print("| benchmark | baseline | this run | delta |")
    print("|---|---|---|---|")
    for name, base, new, delta in rows:
        flag = " ⚠️" if delta < -REGRESSION_PCT else ""
        print(f"| {name} | {base} | {new} | {delta:+.1f}%{flag} |")
    for name in new_benches:
        print(f"| {name} | *new* | {fresh_cell(raw[name])} | — |")
    for name in gone:
        print(f"| {name} | *gone* (not in this run) | — | — |")
    if new_benches:
        print(f"\n{len(new_benches)} new benchmark(s) not in the baseline "
              "yet — curate them into BENCH_sim.json when stable.")
    if gone:
        print(f"\n{len(gone)} baseline benchmark(s) gone from this run — "
              "deleted or renamed; update BENCH_sim.json.")
    if warnings:
        print(f"\n**{len(warnings)} benchmark(s) regressed > "
              f"{REGRESSION_PCT:.0f}%.**")
    else:
        print("\nNo regressions beyond the threshold.")

    # GitHub annotations surface in the job log and the PR checks UI.
    for w in warnings:
        sys.stderr.write(f"::warning title=bench regression::{w}\n")
    if fail_regressed and warnings:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
