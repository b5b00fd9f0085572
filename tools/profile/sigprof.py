#!/usr/bin/env python3
"""Sampling profile of a command, from tools/profile/sigprof.c.

Usage: sigprof.py [--runs N] [--match REGEX] -- CMD...
       sigprof.py --self-check [--build DIR]

Compiles the LD_PRELOAD sampler (sigprof.c) with `cc`, runs CMD N times
pinned to one CPU (the highest-numbered one this process may use, as
bench/e2e/run.py pins its phases), subtracts each run's load base of the
main binary from its sampled PCs and resolves them with
`addr2line -f -i -C`.  Then it prints the samples by inline leaf (the
innermost inlined function a PC belongs to) and by containing function
(the symbol the PC sits in), and the hottest PCs, each with its inline
chain and, from `objdump`, the instruction before it and its own.  A
sample lands on or just after an instruction that stalls, so both are
shown.  Samples outside
the main binary (libc, libstdc++, the kernel's vDSO) count as
"[outside the main binary]".

Inline chains need debug info: build the binary with -g (a Release build
with CMAKE_CXX_FLAGS=-g keeps the optimized code).  Without it, every
frame is the containing function.  The kernel's tick sets the sampling
period; at 4 ms, 12 one-second runs give about 3,000 samples.

--match REGEX also prints the share of samples whose inline chain has a
frame matching REGEX, and the largest share any one such PC holds (the
profile of a stall that sits on one instruction).

--self-check profiles `campaign_cli --builtin smoke` from the build
directory (default `build`) and checks that most samples resolve into
the event core: a frame whose function name starts with `sim::`, so a
`std::` function with a `sim::` template argument does not count.  It
exits 1 when they do not and 2 when a tool or the binary is missing.
"""

import argparse
import bisect
import collections
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SOURCE = Path(__file__).resolve().with_name("sigprof.c")
OUTSIDE = "[outside the main binary]"
TOP = 15  # rows per table
RUNS = 12  # runs per profile, --self-check's included


class ProfileError(Exception):
    pass


def build_sampler(workdir):
    so = workdir / "sigprof.so"
    cmd = ["cc", "-O2", "-fPIC", "-shared", "-o", str(so), str(SOURCE)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        raise ProfileError(f"cannot build the sampler: {p.stderr.strip()}")
    return so


def read_samples(path):
    """(base, end, pcs) from one run's $SIGPROF_OUT file."""
    lines = path.read_text().split()
    if len(lines) < 4 or lines[0] != "base" or lines[2] != "end":
        raise ProfileError(f"{path}: not a sampler output")
    pcs = [int(x, 16) for x in lines[4:]]
    return int(lines[1], 16), int(lines[3], 16), pcs


def sample(so, cmd, runs, cpu, workdir):
    """Offsets into the main binary of every sample, None for a sample
    outside it."""
    offsets = []
    for i in range(runs):
        out = workdir / f"run{i}.txt"
        env = dict(os.environ, LD_PRELOAD=str(so), SIGPROF_OUT=str(out))
        p = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                           preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        if p.returncode != 0:
            raise ProfileError(f"run {i + 1} of {cmd[0]} exited "
                               f"{p.returncode}")
        base, end, pcs = read_samples(out)
        offsets += [pc - base if base <= pc < end else None for pc in pcs]
    return offsets


def resolve(binary, offsets):
    """Inline chain per offset: (function, file:line) frames, innermost
    first, the containing function last."""
    # -a prints each address before its frames, which separates the
    # variable-length chains of a batch.
    p = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
                       input="\n".join(hex(o) for o in offsets),
                       capture_output=True, text=True)
    if p.returncode != 0:
        raise ProfileError(f"addr2line failed: {p.stderr.strip()}")
    chains = {}
    frames = None
    lines = p.stdout.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            frames = chains.setdefault(int(lines[i], 16), [])
            i += 1
        else:
            location = lines[i + 1] if i + 1 < len(lines) else "??:0"
            frames.append((lines[i], location))
            i += 2
    return chains


def disassemble(binary):
    """Sorted instruction offsets and their text, from objdump."""
    p = subprocess.run(["objdump", "-d", "-C", "-w", "--no-show-raw-insn",
                        binary], capture_output=True, text=True)
    if p.returncode != 0:
        raise ProfileError(f"objdump failed: {p.stderr.strip()}")
    text = {}
    for line in p.stdout.splitlines():
        m = re.match(r"\s*([0-9a-f]+):\s+(.*\S)", line)
        if m:
            text[int(m.group(1), 16)] = re.sub(r"\s+", " ", m.group(2))
    return sorted(text), text


def short(name, width=78):
    return name if len(name) <= width else name[:width - 3] + "..."


def table(title, counts, total):
    print(f"\n{title}\n  share  samples  function")
    for name, n in counts.most_common(TOP):
        print(f"  {100 * n / total:5.1f}%  {n:7d}  {short(name)}")


def chain_text(frames):
    # The innermost frame first, each caller after it, without arguments.
    return " <- ".join(re.sub(r"\(.*", "", f) for f, _ in frames)


def profile(cmd, runs, cpu, match):
    binary = shutil.which(cmd[0])
    if binary is None:
        raise ProfileError(f"no such command: {cmd[0]}")
    with tempfile.TemporaryDirectory(prefix="sigprof-") as tmp:
        so = build_sampler(Path(tmp))
        offsets = sample(so, cmd, runs, cpu, Path(tmp))
    if not offsets:
        raise ProfileError("no samples: the command ran for no CPU time")
    inside = collections.Counter(o for o in offsets if o is not None)
    chains = resolve(binary, sorted(inside))
    total = len(offsets)
    leaf = collections.Counter()
    container = collections.Counter()
    for offset, n in inside.items():
        frames = chains.get(offset) or [("??", "??:0")]
        leaf[frames[0][0]] += n
        container[frames[-1][0]] += n
    outside = total - sum(inside.values())
    if outside:
        leaf[OUTSIDE] = container[OUTSIDE] = outside
    print(f"sigprof: {runs} run(s) of {' '.join(cmd)} on CPU {cpu}: "
          f"{total} samples, {total - outside} in {binary}")
    table("samples by inline leaf", leaf, total)
    table("samples by containing function", container, total)

    addresses, text = disassemble(binary)
    print("\nhottest PCs (offsets into the binary)")
    for offset, n in inside.most_common(TOP):
        frames = chains.get(offset) or [("??", "??:0")]
        k = bisect.bisect_left(addresses, offset)
        before = text[addresses[k - 1]] if k > 0 else "?"
        at = text.get(offset, "?")
        print(f"  {100 * n / total:5.1f}%  {n:6d}  {offset:#x}  "
              f"{short(chain_text(frames), 120)}\n"
              f"        at {frames[0][1]}\n"
              f"        before: {before}\n"
              f"        this:   {at}")

    if match:
        pattern = re.compile(match)
        hits = {o: n for o, n in inside.items()
                if any(pattern.search(f) for f, _ in chains.get(o, []))}
        share = 100 * sum(hits.values()) / total
        top_pc = max(hits.items(), key=lambda kv: kv[1], default=(0, 0))
        print(f"\nmatch /{match}/: {share:.1f}% of samples in "
              f"{len(hits)} PCs; the hottest, {top_pc[0]:#x}, holds "
              f"{100 * top_pc[1] / total:.2f}%")
    return offsets, chains


def self_check(build):
    cli = Path(build) / "campaign_cli"
    if not cli.is_file():
        sys.stderr.write(f"sigprof: no {cli}; build the repository first\n")
        return 2
    for tool in ("cc", "addr2line", "objdump"):
        if shutil.which(tool) is None:
            sys.stderr.write(f"sigprof: {tool} not found\n")
            return 2
    cpu = max(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory(prefix="sigprof-check-") as tmp:
        cmd = [str(cli.resolve()), "--builtin", "smoke", "--quiet",
               "--threads", "1", "--out", str(Path(tmp) / "smoke.csv")]
        offsets, chains = profile(cmd, RUNS, cpu, None)
    in_sim = sum(1 for o in offsets
                 if o is not None and any(f.startswith("sim::")
                                          for f, _ in chains.get(o, [])))
    share = in_sim / len(offsets)
    print(f"\nself-check: {in_sim} of {len(offsets)} samples "
          f"({100 * share:.1f}%) resolve into sim::")
    if len(offsets) < 20 or share <= 0.5:
        print("self-check FAILED: expected at least 20 samples, most of "
              "them in sim::")
        return 1
    print("self-check passed")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=RUNS)
    parser.add_argument("--match", help="report the share of this regex")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--build", default="build",
                        help="build directory for --self-check")
    parser.add_argument("cmd", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    try:
        if args.self_check:
            return self_check(args.build)
        cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
        if not cmd or args.runs < 1:
            parser.error("give a command after --, and --runs >= 1")
        profile(cmd, args.runs, max(os.sched_getaffinity(0)), args.match)
        return 0
    except ProfileError as e:
        sys.stderr.write(f"sigprof: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
