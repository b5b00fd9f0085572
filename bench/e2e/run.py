#!/usr/bin/env python3
"""End-to-end campaign benchmark of the XGFT simulator (bench/e2e/README.md).

  python3 bench/e2e/run.py [--build DIR] [--seed S] [--reps N] [--out R.json]
      Every workload: N repetition rounds that alternate between the
      workloads, then one traced pass each.  Prints every metric with its
      unit, median, q1, q3 and n; --out also writes them as JSON for
      compare.py.
  python3 bench/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1
      One workload, repeated for T seconds.  The last stdout line is one JSON
      object {correct, attempted, failed, metrics}: the end-to-end metrics
      with --trace 0, the per-layer metrics with --trace 1.
  python3 bench/e2e/run.py --self-check
      Checks run.py itself on the smoke campaign and on an injected failure.

The benchmark builds its own binary (bench/e2e/CMakeLists.txt) into
.bench_build/e2e, or into --build DIR, which must then exist.  Each phase of
each repetition is a fresh e2e_bench process, pinned to one CPU, and setup
and run times are scaled by a host-speed probe (see PROBE_REF_S).  --seed S
adds S-1 to every job seed; at S=1 every CSV must equal
bench/e2e/golden/<workload>.csv, at other seeds every CSV must equal the
first repetition's.

Exit codes: 0 every output correct, 1 a wrong output or a failed phase,
2 usage or environment error (one line on stderr, same contract as
tools/bench_diff.py).
"""

import argparse
import csv
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MIN_ROUNDS = 3
# A driven run must end within 180 s of its build; leave room to report.
RUN_BUDGET_S = 165.0
PHASE_TIMEOUT_S = 600.0
# The host's speed drifts by tens of percent within minutes, for the program
# and for a fixed workload alike, and differs between CPUs.  So everything
# after the build runs on one CPU, every setup and run phase sits between two
# `probe` phases, and its time is reported at the host speed at which the
# probe takes PROBE_REF_S: time * PROBE_REF_S / mean of the two probe times.
# The raw times are kept as raw.<metric>.  PROBE_REF_S is the probe's time on
# a 4-vCPU Xeon VM in its fast periods (5th percentile of 438 probes; median
# 0.182 s), so there scaled and raw times agree when the host is fast.
PROBE_REF_S = 0.160
SCALED = ("wall_s", "setup_s")
EXTRA_UNITS = {"host.probe_s": "s", "raw.wall_s": "s", "raw.setup_s": "s"}

SMOKE = ("pattern=ring:64 msg_scale=0.125 m1=8 m2=8 w2={4,2} "
         "routing={s-mod-k,d-mod-k,colored,adaptive} seed=1\n"
         "pattern=ring:64 msg_scale=0.125 m1=8 m2=8 w2={4,2} "
         "routing={Random,spray} seed=1..2\n")
OVERSIZED = "pattern=ring:512 m1=8 m2=8\n"


class BenchError(Exception):
    """A phase failed or produced no result; the run reports no metrics."""


def die(message):
    sys.stderr.write(f"run.py: {message}\n")
    sys.exit(2)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")


def build(build_dir):
    """Configures (once) and builds e2e_bench; returns the binary's path."""
    log = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "e2e_bench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                      timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError(f"build failed: {e}") from e
            if code != 0:
                raise BenchError(f"build failed, see {log}")
    return build_dir / "e2e_bench"


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


class Workload:
    """One campaign and everything this invocation measured on it."""

    def __init__(self, name, campaign, golden, seed, out_dir):
        self.name = name
        self.campaign = campaign
        self.golden = golden
        self.offset = max(seed - 1, 0)
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.samples = {}  # metric -> one value per repetition
        self.csvs = []     # every CSV produced: repetitions, traced pass
        self.traced = {}
        self.rounds = 0

    def phase(self, binary, phase, deadline, *outputs):
        cmd = [str(binary), phase]
        if phase != "probe":
            cmd += [str(self.campaign), str(self.offset)]
            cmd += [str(self.out_dir / o) for o in outputs]
        timeout = (PHASE_TIMEOUT_S if deadline is None
                   else deadline - time.monotonic())
        if timeout <= 0:
            raise BenchError(f"{self.name}: out of time before the {phase} "
                             "phase")
        try:
            p = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=timeout)
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"{self.name}: {phase} phase timed out") from e
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            err = (p.stderr.strip().splitlines() or ["no output"])[-1]
            raise BenchError(f"{self.name}: {phase} phase exited "
                             f"{p.returncode}: {err}")
        return json.loads(lines[-1])

    def round(self, binary, phases, deadline, probes):
        """One repetition of the phases.  `probes` holds every probe time
        of this invocation, shared across workloads: each phase is scaled
        by the mean of the probes right before and right after it."""
        for phase in phases:
            if not probes:
                probes.append(self.phase(binary, "probe", deadline)["probe_s"])
            if phase == "setup":
                result = self.phase(binary, "setup", deadline)
            else:
                result = self.phase(binary, "run", deadline, "run.csv")
                self.csvs.append((self.out_dir / "run.csv").read_text())
            probes.append(self.phase(binary, "probe", deadline)["probe_s"])
            probe = (probes[-2] + probes[-1]) / 2
            self.samples.setdefault("host.probe_s", []).append(probe)
            for key in SCALED:
                if key in result:
                    result["raw." + key] = result[key]
                    result[key] *= PROBE_REF_S / probe
            for key, value in result.items():
                self.samples.setdefault(key, []).append(value)
        self.rounds += 1

    def trace(self, binary, deadline):
        self.traced = self.phase(binary, "traced", deadline, "traced.csv",
                                 "spans.json")
        self.csvs.append((self.out_dir / "traced.csv").read_text())

    def check(self):
        """(attempted, failed) job rows over every CSV produced.  A row
        fails when its job errored or when it differs from the reference:
        the golden CSV at seed 1, else the first repetition's CSV."""
        tables = [list(csv.reader(io.StringIO(t))) for t in self.csvs]
        golden = (list(csv.reader(io.StringIO(self.golden)))
                  if self.golden is not None else None)
        reference = golden if golden and self.offset == 0 else tables[0]
        status = reference[0].index("status")
        attempted = failed = 0
        for table in tables:
            wrong_shape = golden is not None and (
                table[0] != golden[0] or len(table) != len(golden))
            for i in range(1, max(len(table), len(reference))):
                attempted += 1
                row = table[i] if i < len(table) else None
                if (wrong_shape or row is None or i >= len(reference)
                        or row != reference[i] or row[status] != "ok"):
                    failed += 1
        return attempted, failed

    def span_seconds(self):
        """Total span time per span name of the traced pass."""
        totals = {}
        for s in json.loads((self.out_dir / "spans.json").read_text()):
            totals[s["name"]] = (totals.get(s["name"], 0.0)
                                 + (s["end_ns"] - s["start_ns"]) * 1e-9)
        return totals


def make_workload(name, seed, out_root):
    campaign = HERE / "workloads" / f"{name}.campaign"
    golden = HERE / "golden" / f"{name}.csv"
    if not campaign.is_file() or not golden.is_file():
        die(f"workload '{name}' has no {campaign.name} or {golden.name} "
            "under bench/e2e")
    return Workload(name, campaign, golden.read_text(), seed,
                    out_root / name)


def metric_value(w, name):
    """The traced pass's value, else the median over repetitions."""
    if name in w.traced:
        return w.traced[name]
    return statistics.median(w.samples[name])


def driven_run(spec, binary, build_dir, args):
    """One workload for --seconds; prints the one-line JSON result."""
    deadline = time.monotonic() + RUN_BUDGET_S
    w = make_workload(args.workload, args.seed, build_dir / "out")
    phases = ("run",) if args.trace else ("setup", "run")
    begin = time.monotonic()
    probes = []
    while w.rounds < MIN_ROUNDS or time.monotonic() - begin < args.seconds:
        w.round(binary, phases, deadline, probes)
    if args.trace:
        w.trace(binary, deadline)
    attempted, failed = w.check()
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": metric_value(w, m["name"]),
                           "unit": m["unit"]} for m in spec[kind]}
    print(json.dumps({"samples": {k: w.samples[k] for k in EXTRA_UNITS
                                  if k in w.samples}}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def full_run(spec, binary, build_dir, args):
    """Every workload, alternating within each round; prints the table."""
    names = [w["name"] for w in spec["workloads"]]
    workloads = [make_workload(n, args.seed, build_dir / "out")
                 for n in names]
    probes = []
    for _ in range(args.reps):
        for w in workloads:
            w.round(binary, ("setup", "run"), None, probes)
    for w in workloads:
        w.trace(binary, None)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    units.update(EXTRA_UNITS)
    first = workloads[0].samples
    meta = {key: first[key][0] for key in ("nproc", "threads", "compiler",
                                           "build_type")}
    meta.update(seed=args.seed, reps=args.reps)
    report = {"meta": meta, "workloads": {}}
    print("# " + ", ".join(f"{k}={v}" for k, v in meta.items()))
    print(f"{'workload':<15} {'metric':<30} {'unit':<6} {'median':>14} "
          f"{'q1':>14} {'q3':>14} {'n':>3}")
    exit_code = 0
    for w in workloads:
        attempted, failed = w.check()
        if failed:
            exit_code = 1
        entry = {"attempted": attempted, "failed": failed, "metrics": {},
                 "span_s": w.span_seconds()}
        for name, unit in units.items():
            values = w.samples.get(name) or [w.traced[name]]
            q1, median, q3 = quartiles(values)
            entry["metrics"][name] = {"unit": unit, "median": median,
                                      "q1": q1, "q3": q3, "n": len(values),
                                      "samples": values}
            cells = " ".join(f"{v:>14}" if isinstance(v, int)
                             else f"{v:>14.6f}" for v in (median, q1, q3))
            print(f"{w.name:<15} {name:<30} {unit:<6} {cells} "
                  f"{len(values):>3}")
        print(f"{w.name:<15} {'failed jobs':<30} {'count':<6} "
              f"{failed:>14} of {attempted}")
        for name, seconds in sorted(entry["span_s"].items()):
            print(f"{w.name:<15} {'span ' + name:<30} {'s':<6} "
                  f"{seconds:>14.6f}")
        report["workloads"][w.name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return exit_code


def self_check(spec, binary, build_dir):
    """Smoke campaign through all three phases, an injected failure, and
    the missing --build directory contract."""
    out_root = build_dir / "self-check"
    out_root.mkdir(parents=True, exist_ok=True)
    problems = []

    def workload(name, text):
        campaign = out_root / f"{name}.campaign"
        campaign.write_text(text)
        w = Workload(name, campaign, None, 1, out_root / name)
        w.round(binary, ("setup", "run"), None, [])
        w.trace(binary, None)
        return w

    smoke = workload("smoke", SMOKE)
    names = ({m["name"] for m in spec["end_to_end"]}
             | {m["name"] for m in spec["per_layer"]})
    missing = names - set(smoke.samples) - set(smoke.traced)
    if missing:
        problems.append(f"metrics never produced: {sorted(missing)}")
    if smoke.csvs[0] != smoke.csvs[-1]:
        problems.append("smoke: traced CSV differs from the run CSV")
    smoke_attempted, smoke_failed = smoke.check()
    if smoke_failed:
        problems.append(f"smoke: {smoke_failed} failed rows")
    if smoke.traced["engine.setup_misses_in_run"] != 0:
        problems.append("smoke: set-up missed artifacts the jobs used")

    # The oversized job errors in both the run and the traced CSV: exactly
    # its two rows fail, and a driven run would exit 1 with a result.
    broken = workload("oversized", SMOKE + OVERSIZED)
    attempted, failed = broken.check()
    if (attempted, failed) != (smoke_attempted + 2, 2):
        problems.append(f"oversized job: {failed} of {attempted} rows "
                        "failed, expected its 2 rows")

    p = subprocess.run([sys.executable, __file__, "--build",
                        str(out_root / "missing"), "--workload",
                        spec["workloads"][0]["name"]],
                       capture_output=True, text=True, timeout=60)
    if p.returncode != 2 or len(p.stderr.splitlines()) != 1 or p.stdout:
        problems.append(f"missing --build: exit {p.returncode}, "
                        f"{len(p.stderr.splitlines())} stderr lines")

    for problem in problems:
        print(f"self-check: FAIL {problem}")
    print(f"self-check: {len(problems)} problem(s)")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--build", help="existing build directory")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--out")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seed >= 2**63 or args.reps < 1:
        die("--seed must be in [0, 2^63) and --reps at least 1")
    spec = load_spec()
    if not (ROOT / "src" / "engine" / "runner.hpp").is_file():
        die(f"no simulator sources under {ROOT / 'src'}; run from a full "
            "checkout")
    if args.build:
        build_dir = Path(args.build).resolve()
        if not build_dir.is_dir():
            die(f"build directory '{args.build}' does not exist")
    else:
        build_dir = ROOT / ".bench_build" / "e2e"
        build_dir.mkdir(parents=True, exist_ok=True)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload and args.workload not in names:
        die(f"unknown workload '{args.workload}' "
            f"(known: {', '.join(names)})")

    try:
        binary = build(build_dir)
        # One CPU from here on; see PROBE_REF_S.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        if args.self_check:
            return self_check(spec, binary, build_dir)
        if args.workload:
            return driven_run(spec, binary, build_dir, args)
        return full_run(spec, binary, build_dir, args)
    except BenchError as e:
        sys.stderr.write(f"run.py: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
