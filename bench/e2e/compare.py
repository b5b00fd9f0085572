#!/usr/bin/env python3
"""Compares two results of the end-to-end benchmark (run.py --out).

  python3 bench/e2e/compare.py BASE.json NEW.json

Prints one row per workload and end-to-end metric: both medians, both IQRs
(q3 - q1 as a share of the median), the change of the median, and a verdict
against the metric's bound in BENCHMARK.json:

  worse       the median moved the wrong way by more than the bound
  better      the median moved the right way by more than the bound
  same        the median moved by at most the bound
  unresolved  an IQR exceeds the bound, so these runs cannot tell; it reads
              better only when every new sample beats every base sample

Exit codes: 1 on any "worse" or when a workload's failed share grew,
2 when an input is missing or malformed (one line on stderr), else 0.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def die(message):
    sys.stderr.write(f"compare.py: {message}\n")
    sys.exit(2)


def load(path, key):
    try:
        return json.loads(Path(path).read_text())[key]
    except (OSError, ValueError, KeyError, TypeError) as e:
        die(f"cannot read '{key}' from {path}: {e}")


def verdict(base, new, bound, lower_is_better):
    sign = 1 if lower_is_better else -1
    change = sign * (new["median"] - base["median"]) / base["median"]
    iqr = max((s["q3"] - s["q1"]) / s["median"] for s in (base, new))
    if iqr > bound:
        if lower_is_better:
            wins = max(new["samples"]) < min(base["samples"])
        else:
            wins = min(new["samples"]) > max(base["samples"])
        return "better" if wins else "unresolved"
    if change > bound:
        return "worse"
    return "better" if change < -bound else "same"


def share(entry):
    return entry["failed"] / entry["attempted"] if entry["attempted"] else 0.0


def main(argv):
    if len(argv) != 2:
        die("usage: compare.py BASE.json NEW.json")
    base = load(argv[0], "workloads")
    new = load(argv[1], "workloads")
    metrics = load(ROOT / "BENCHMARK.json", "end_to_end")
    print(f"{'workload':<15} {'metric':<12} {'base':>11} {'iqr':>6} "
          f"{'new':>11} {'iqr':>6} {'delta':>8}  verdict")
    exit_code = 0
    for name in sorted(set(base) & set(new)):
        try:
            for m in metrics:
                b = base[name]["metrics"][m["name"]]
                n = new[name]["metrics"][m["name"]]
                v = verdict(b, n, m["bound"], m["better"] == "lower")
                if v == "worse":
                    exit_code = 1
                print(f"{name:<15} {m['name']:<12} {b['median']:>11.4f} "
                      f"{(b['q3'] - b['q1']) / b['median']:>6.1%} "
                      f"{n['median']:>11.4f} "
                      f"{(n['q3'] - n['q1']) / n['median']:>6.1%} "
                      f"{(n['median'] - b['median']) / b['median']:>+8.1%}"
                      f"  {v}")
            if share(new[name]) > share(base[name]):
                exit_code = 1
                print(f"{name:<15} failed share grew: "
                      f"{share(base[name]):.4f} -> {share(new[name]):.4f}")
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
            die(f"{name}: malformed result ({e!r})")
    for name in sorted(set(base) ^ set(new)):
        print(f"{name:<15} only in {'base' if name in base else 'new'}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
