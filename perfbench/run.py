#!/usr/bin/env python3
"""The replay benchmark: build, run, compare, and describe it.

Run from the root of a checkout:

  python3 perfbench/run.py --workload {central|churn_durable} --seed N
                           --seconds S --trace 0|1
      Builds perfbench/ (Release) into .bench_build/ if needed, runs one
      measurement, stamps it with the host fingerprint, saves it under
      .bench_build/results/, and prints as its last line
      {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
  python3 perfbench/run.py manifest
      Rewrites BENCHMARK.json from the workloads and metrics the benchmark
      binary defines.
  python3 perfbench/run.py compare BASE HEAD
      Compares saved results (files or directories of them) metric by
      metric against the bounds in BENCHMARK.json. Refuses when the two
      sides were measured on different hosts or toolchains.

The benchmark is a closed-loop batch replay: each replay starts when the
previous one finished, so the headline is readings replayed per second at
the stated input size, over eight inputs drawn from the seed. It is scaled
to a nominal host memory latency measured between replays, because on a
shared host that latency drifts and the replay's speed follows it.
Everything runs in one process with at most four executor threads.
"""

import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RESULTS_DIR = os.path.join(BUILD_ROOT, "results")
SCRATCH_DIR = os.path.join(BUILD_ROOT, "tmp")

RUN_SECONDS = 35
# A measurement must end well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170
# Host fields two results must share before they may be compared.
HOST_KEYS = ("cpu_model", "nproc", "compiler", "build_type")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(BUILD_ROOT, "tmp_build"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=env, timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (see %s)" % log_path)
    if not os.path.exists(BINARY):
        fail("build produced no binary")
    return BINARY


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    files = []
    for top in ("src", os.path.relpath(HERE)):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files += [os.path.join(dirpath, f) for f in filenames
                      if not f.endswith(".pyc")]
    for path in sorted(files):
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git(*args):
    try:
        out = subprocess.run(["git"] + list(args), capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_fingerprint(build_info):
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = dirty = None
    if os.path.isdir(".git"):
        commit = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "cpu_model": cpu or "unknown",
        "nproc": os.cpu_count(),
        "compiler": build_info.get("compiler", "unknown"),
        "build_type": build_info.get("build_type", "unknown"),
        "commit": commit,
        "dirty": dirty,
        "source_digest": source_digest(),
    }


def tagged_json(lines, tag):
    for line in lines:
        if line.startswith(tag + ": "):
            return json.loads(line[len(tag) + 2:])
    return None


def measure(argv):
    import argparse
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    a = p.parse_args(argv)
    if a.seed < 0 or a.seconds < 0:
        fail("--seed and --seconds must be non-negative", 2)

    binary = build()
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", a.trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("measurement exceeded %d s" % CHILD_TIMEOUT_S)
    finally:
        # Durable replays remove their own directories; this catches the
        # ones a crashed process left behind.
        shutil.rmtree(SCRATCH_DIR, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines) + "\n")
        fail("benchmark exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no result")
    if set(result) != RESULT_KEYS:
        fail("malformed result line")

    host = host_fingerprint(tagged_json(lines, "build") or {})
    for line in lines[:-1]:
        print(line)
    print("host: " + json.dumps(host, sort_keys=True))
    record = {
        "host": host,
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": int(a.trace),
        "config": tagged_json(lines, "config"),
        "input": tagged_json(lines, "input"),
        "outputs": tagged_json(lines, "outputs"),
        "fingerprint": next((l.split(": ", 1)[1] for l in lines
                             if l.startswith("fingerprint: ")), None),
        "result": result,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "%s_seed%d_trace%s.json"
                        % (a.workload, a.seed, a.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    print("saved: " + path)
    print(json.dumps(result))
    return 0


def manifest():
    binary = build()
    out = subprocess.run([binary, "--manifest"], capture_output=True,
                         text=True, timeout=60, check=True).stdout
    spec = json.loads(out)
    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": spec["workloads"],
        "end_to_end": spec["end_to_end"],
        "per_layer": spec["per_layer"],
    }
    with open("BENCHMARK.json", "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print("wrote BENCHMARK.json")
    return 0


def load_results(where):
    paths = (sorted(glob.glob(os.path.join(where, "*.json")))
             if os.path.isdir(where) else [where])
    out = []
    for path in paths:
        with open(path) as f:
            rec = json.load(f)
        if "host" in rec and "result" in rec:
            out.append(rec)
    if not out:
        fail("no results in " + where, 2)
    return out


def compare(base_where, head_where):
    base, head = load_results(base_where), load_results(head_where)
    hosts = {json.dumps({k: r["host"].get(k) for k in HOST_KEYS},
                        sort_keys=True) for r in base + head}
    if len(hosts) != 1:
        print("refusing to compare results from different hosts:")
        for h in sorted(hosts):
            print("  " + h)
        return 3
    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}

    def medians(records, workload):
        vals = {}
        for r in records:
            if r["workload"] == workload and r["trace"] == 0:
                for name, m in r["result"]["metrics"].items():
                    vals.setdefault(name, []).append(m["value"])
        return {k: statistics.median(v) for k, v in vals.items()}

    worse_any = False
    workloads = sorted({r["workload"] for r in base + head})
    for w in workloads:
        b, h = medians(base, w), medians(head, w)
        for name in sorted(set(b) & set(h)):
            spec = bounds.get(name)
            if spec is None or b[name] == 0:
                continue
            change = (h[name] - b[name]) / abs(b[name])
            worse = -change if spec["better"] == "higher" else change
            verdict = "ok"
            if worse > spec["bound"]:
                verdict = "WORSE than bound %.2f" % spec["bound"]
                worse_any = True
            print("%-14s %-24s base %16.6g head %16.6g %+7.2f%%  %s"
                  % (w, name, b[name], h[name], 100 * change, verdict))
        # Same seed, same workload: bytes, accuracy and alerts are exact,
        # so any difference is a behaviour change, not noise.
        by_seed = {r["seed"]: r for r in base if r["workload"] == w}
        for r in head:
            old = by_seed.get(r["seed"])
            if r["workload"] != w or old is None:
                continue
            if old["fingerprint"] != r["fingerprint"]:
                print("%-14s seed %d: output fingerprint changed"
                      % (w, r["seed"]))
            for name, value in sorted((r.get("outputs") or {}).items()):
                was = (old.get("outputs") or {}).get(name)
                if was is not None and was != value:
                    print("%-14s seed %d: %s %.6g -> %.6g"
                          % (w, r["seed"], name, was, value))
    return 1 if worse_any else 0


def main(argv):
    if argv[:1] == ["manifest"]:
        return manifest()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            fail("usage: run.py compare BASE HEAD", 2)
        return compare(argv[1], argv[2])
    return measure(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
