#!/usr/bin/env python3
"""Build LiteView's benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper-30 --seed 1 --seconds 10 --trace 0

Run it from the root of the repository. It builds perfbench (a Go
module of its own that imports the repository through a replace
directive) into .bench_build/, with the Go build cache there too, runs
the workload in a process of its own and prints what that prints. The
last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
workload runs twice, untraced and then traced, and the metrics are the
per-layer ones plus trace.overhead_ratio, the traced run's extra host
time over the untraced one on the measured phase.

Every run's digest of simulated outcomes is kept in
.bench_build/perfbench/digests.json; a later run of the same source,
workload, seed and length (traced or not) must reproduce it, or the run
fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-30", "fleet-2500", "serve-journal")
RUN_TIMEOUT = 170  # seconds for one workload process


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def go_env(bd):
    """Environment for the go tool: caches and config inside bd, no network."""
    home = os.path.join(bd, "home")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(bd, "gocache"),
        "GOPATH": os.path.join(bd, "gopath"),
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
    })
    return env


def build(bd):
    out = os.path.join(bd, "perfbench", "perfbench")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", out, "."], cwd=HERE, env=go_env(bd),
                          capture_output=True, text=True, timeout=840)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.stderr.write("run.py: building perfbench failed\n")
        sys.exit(2)
    return out


def source_id():
    """The commit, when the checkout is a git repository, and a digest of
    the source files either way."""
    h = hashlib.sha256()
    skip = {".git", ".bench_build"}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in skip)
        for name in sorted(filenames):
            if name.endswith((".go", ".py")) or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return "%s src:%s" % (commit, h.hexdigest()[:16])


def run_workload(binary, args, trace, scratch, commit):
    """Runs one workload process; returns its printed lines, its result
    and its info record. Exits without a result if the process fails."""
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed), "-seconds", str(args.seconds),
           "-trace", str(trace), "-scratch", scratch, "-commit", commit]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: %s did not finish within %d s\n" % (args.workload, RUN_TIMEOUT))
        sys.exit(1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if not lines:
        sys.stderr.write("run.py: %s printed nothing (exit %d)\n" % (args.workload, proc.returncode))
        sys.exit(proc.returncode or 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        sys.stderr.write("run.py: %s printed no result line (exit %d)\n" % (args.workload, proc.returncode))
        sys.exit(proc.returncode or 1)
    info = {}
    for line in lines:
        if line.startswith("# info "):
            info = json.loads(line[len("# info "):])
    return lines[:-1], result, info


def check_digest(scratch, args, info, commit):
    """Compares the run's digest with the one recorded for the same
    source, workload, seed and length, recording it if it is the first."""
    path = os.path.join(scratch, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    key = "%s %s/%d/%d" % (commit, args.workload, args.seed, args.seconds)
    digest = info.get("samples", {}).get("digest")
    want = known.setdefault(key, digest)
    with open(path, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    if digest != want:
        print("CHECK FAILED: digest %s differs from %s recorded for %s" % (digest, want, key))
        return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    bd = build_dir()
    binary = build(bd)
    scratch = os.path.join(bd, "perfbench")
    commit = source_id()

    lines, result, info = run_workload(binary, args, 0, scratch, commit)
    correct = result["correct"] and check_digest(scratch, args, info, commit)
    if args.trace:
        for line in lines:
            print("# untraced: " + line)
        untraced = info["samples"]["phase_host_s"]
        lines, result, info = run_workload(binary, args, 1, scratch, commit)
        correct = result["correct"] and check_digest(scratch, args, info, commit) and correct
        traced = info["samples"]["phase_host_s"]
        result["metrics"]["trace.overhead_ratio"] = {"value": traced / untraced - 1, "unit": "ratio"}
        lines.append("trace.overhead_ratio %.4f (traced %.3f s vs untraced %.3f s on the measured phase)"
                     % (traced / untraced - 1, traced, untraced))
    for line in lines:
        print(line)
    result["correct"] = bool(correct)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
