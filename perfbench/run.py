#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload npb-W --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The first run configures and builds the
sacpp libraries from ./src together with the benchmark driver into
.bench_build/ (perfbench/CMakeLists.txt); later runs only re-check the build.
Any SACPP_* or OMP_NUM_THREADS override is cleared before the driver starts
and reported, so every run measures the default configuration.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics
(the traced run also writes its spans to .bench_build/out/).  The exit status
is nonzero on a wrong answer, a build failure or a missing metric.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
TMP = os.path.join(ROOT, ".bench_build", "tmp")
BINARY = os.path.join(BUILD, "perfbench")
MODULES = ["sac", "mg", "msg", "net", "serve", "obs", "check", "machine",
           "nasrand", "common"]
RUN_TIMEOUT_S = 175


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def clean_env():
    """The environment without configuration overrides, and what was cleared."""
    env = dict(os.environ)
    cleared = sorted(k for k in env if k.startswith("SACPP_") or k == "OMP_NUM_THREADS")
    for k in cleared:
        del env[k]
    # The JIT engine's compile workspace follows TMPDIR; keep it in the checkout.
    env["TMPDIR"] = TMP
    return env, cleared


def build(env):
    os.makedirs(TMP, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            return False
    return os.path.exists(BINARY)


def loc_metrics():
    """Non-blank line counts of each src/<module>."""
    out = {}
    for mod in MODULES:
        count = 0
        for base, _, files in os.walk(os.path.join(ROOT, "src", mod)):
            for name in files:
                with open(os.path.join(base, name), "rb") as fh:
                    count += sum(1 for line in fh if line.strip())
        out["loc." + mod] = {"value": count, "unit": "lines"}
    return out


def source_id():
    """The git commit when the checkout is a git work tree, and a digest of
    every file under src/ either way."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            commit = res.stdout.strip()
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return commit, digest.hexdigest()[:16]


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def select(metrics, trace):
    """Exactly the declared metrics of this mode; every one must be present
    with its declared unit."""
    out = {}
    for m in declared(trace):
        got = metrics.get(m["name"])
        if got is None or got["value"] is None:
            raise SystemExit("perfbench: metric %s was not measured" % m["name"])
        if got["unit"] != m["unit"]:
            raise SystemExit("perfbench: metric %s has unit %s, declared %s"
                             % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = got
    return out


def run(workload, seed, seconds, trace, extra=()):
    """Build if needed, run the driver once; returns (exit code, result or
    None, path of the run record)."""
    env, cleared = clean_env()
    if cleared:
        log("cleared overrides: " + ", ".join(cleared))
    if not build(env):
        log("build failed")
        return 1, None, None
    os.makedirs(OUT, exist_ok=True)
    record = os.path.join(OUT, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", record]
    cmd += list(extra)
    try:
        res = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver exceeded %d s" % RUN_TIMEOUT_S)
        return 1, None, None
    lines = res.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("driver printed no result (exit %d)" % res.returncode)
        return res.returncode or 1, None, None
    commit, digest = source_id()
    print("perfbench record " + json.dumps({
        "git_commit": commit, "src_digest": digest,
        "cleared_overrides": cleared}))
    if trace:
        result["metrics"].update(loc_metrics())
    return res.returncode, result, record


def report(code, result, trace):
    if result is None:
        return code or 1
    result["metrics"] = select(result["metrics"], trace)
    print(json.dumps(result))
    return code


def spans_form_tree(record):
    """Independent re-check of the traced run's span tree: closed spans,
    existing parents that enclose their children, one root per key, and
    every solve and request rooted."""
    with open(record) as fh:
        spans = json.load(fh)["trace"]["spans"]
    by_id = {s["id"]: s for s in spans}
    roots = {}
    for s in spans:
        if s["end_ns"] < s["start_ns"]:
            return "span %d ends before it starts" % s["id"]
        if s["parent"] == 0:
            if s["key"] in roots:
                return "two roots for " + s["key"]
            roots[s["key"]] = s
            continue
        p = by_id.get(s["parent"])
        if p is None:
            return "span %d has no parent" % s["id"]
        if s["start_ns"] < p["start_ns"] or s["end_ns"] > p["end_ns"]:
            return "span %d lies outside its parent" % s["id"]
        if s["key"] != p["key"]:
            return "span %d changes root key" % s["id"]
    kinds = {k.split(":")[0] for k in roots}
    for needed in ("solve", "request", "sweep"):
        if needed not in kinds:
            return "no %s roots" % needed
    return ""


def selftest():
    """Short runs of every workload in both modes, plus an injected wrong
    answer.  Exit 0 when the benchmark reports everything and catches it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    problems = []
    for w in workloads:
        for trace in (0, 1):
            code, result, record = run(w, 1, 2, trace)
            if code != 0 or result is None:
                problems.append("%s trace=%d exited %d" % (w, trace, code))
                continue
            try:
                select(result["metrics"], trace)
            except SystemExit as e:
                problems.append("%s trace=%d: %s" % (w, trace, e))
            if result["failed"] != 0 or not result["correct"]:
                problems.append("%s trace=%d: %d failed" % (w, trace, result["failed"]))
            if trace:
                err = spans_form_tree(record)
                if err:
                    problems.append("%s spans: %s" % (w, err))
    code, result, _ = run(workloads[0], 1, 2, 0, ["--inject-wrong-norm"])
    if code == 0 or result is None or result["correct"] or result["failed"] < 1:
        problems.append("an injected wrong norm was not caught")
    for p in problems:
        log("SELFTEST FAILED: " + p)
    log("selftest %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    code, result, _ = run(args.workload, args.seed, args.seconds, args.trace)
    return report(code, result, args.trace)


if __name__ == "__main__":
    sys.exit(main())
