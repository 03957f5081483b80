#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds the generator and the runner with
dune, writes the workload's seeded input as a trace file (a separate
process, outside any timing), runs it through the program and prints
the runner's report followed, as the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones
from a separate traced run. --workload all runs every workload and
prints a table of the end-to-end metrics.

Exits non-zero, without a result line, when the build or the input
generation fails; exits non-zero after the result line when an output
check or a workload-validity assert fails. Generated inputs, keyed
span dumps and the decision digests of earlier runs (keyed by seed,
runner build and input digest) live in .perfbench/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["stream", "storm", "admit", "pods"]
WORK = ".perfbench"
BUILD = os.path.join("_build", "default", "perfbench")
RUN_TIMEOUT_S = 160


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the repository root (no dune-project or lib/ here)")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/gen.exe", "./perfbench/bench.exe"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        die("build failed")


def md5(path):
    h = hashlib.md5()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def generate(workload, seed):
    """The seeded input file and its manifest, written afresh by this
    build's generator on every run (generation takes well under a
    second)."""
    os.makedirs(WORK, exist_ok=True)
    trace = os.path.join(WORK, "%s-%d.trace" % (workload, seed))
    r = subprocess.run(
        [os.path.join(BUILD, "gen.exe"), "--workload", workload, "--seed", str(seed), "--out", trace],
        capture_output=True,
        text=True,
    )
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        die("input generation failed for %s" % workload)
    m = json.loads(r.stdout.strip().splitlines()[-1])
    if m["md5"] != md5(trace):
        die("generated input does not match its manifest")
    return trace, m


def expected_metrics(trace):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_digest(workload, seed, trace, input_md5, digest):
    """Decisions must repeat across runs of one seed by one build: the
    key holds the runner binary's and the input file's digests, so a
    changed program or generator starts afresh."""
    path = os.path.join(WORK, "digests.json")
    seen = {}
    if os.path.isfile(path):
        with open(path) as f:
            seen = json.load(f)
    key = "%s/%d/%s/%s/%s" % (
        workload,
        seed,
        "traced" if trace else "timed",
        md5(os.path.join(BUILD, "bench.exe")),
        input_md5,
    )
    if key in seen and seen[key] != digest:
        return "decision digest %s differs from an earlier run's %s" % (digest, seen[key])
    seen[key] = digest
    with open(path, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    return None


def run_one(workload, seed, seconds, trace):
    path, m = generate(workload, seed)
    print(
        "input %s seed %d: %d Coflows, %d flows, %.6g bytes, arrival span %.6g s, md5 %s"
        % (workload, seed, m["coflows"], m["flows"], m["bytes"], m["arrival_span_s"], m["md5"])
    )
    cmd = [
        os.path.join(BUILD, "bench.exe"),
        "--workload", workload,
        "--trace-file", path,
        "--seconds", str(seconds),
        "--mode", "traced" if trace else "timed",
    ]
    if trace:
        cmd += ["--spans-out", os.path.join(WORK, "spans-%s-%d.tsv" % (workload, seed))]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = r.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr)
        die("runner failed on %s (exit %d)" % (workload, r.returncode))
    res = json.loads(lines[-1])
    problems = []
    want = expected_metrics(trace)
    if want is not None:
        for name in want:
            if name not in res["metrics"]:
                print("absent: metric %s" % name)
        for name in res["metrics"]:
            if name not in want:
                problems.append("metric %s is not declared in BENCHMARK.json" % name)
    if not trace:
        for name, v in res["metrics"].items():
            if v["value"] is None or v["value"] <= 0:
                problems.append("end-to-end metric %s is %s" % (name, v["value"]))
    print("decision digest %s" % res["digest"])
    msg = check_digest(workload, seed, trace, m["md5"], res["digest"])
    if msg:
        problems.append(msg)
    for p in problems:
        print("FAIL " + p)
    return bool(res["correct"]) and not problems, res["attempted"], res["failed"], res["metrics"]


def main():
    ap = argparse.ArgumentParser(description="Sunflow repository benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    build()
    names = WORKLOADS if a.workload == "all" else [a.workload]
    results = {}
    for w in names:
        results[w] = run_one(w, a.seed, a.seconds, a.trace == 1)
    if a.workload == "all":
        metric_names = sorted({k for r in results.values() for k in r[3]})
        print("%-34s %s" % ("metric", " ".join("%16s" % w for w in names)))
        for k in metric_names:
            unit = next(r[3][k]["unit"] for r in results.values() if k in r[3])
            cells = []
            for w in names:
                v = results[w][3].get(k)
                cells.append("%16.6g" % v["value"] if v and v["value"] is not None else "%16s" % "-")
            print("%-34s %s" % ("%s (%s)" % (k, unit), " ".join(cells)))
        correct = all(r[0] for r in results.values())
        attempted = sum(r[1] for r in results.values())
        failed = sum(r[2] for r in results.values())
        metrics = {"%s.%s" % (w, k): v for w, r in results.items() for k, v in r[3].items()}
    else:
        correct, attempted, failed, metrics = results[a.workload]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
