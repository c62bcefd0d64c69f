#!/usr/bin/env python3
"""Repository benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (the simulator sources
from src/ plus the fcbench program) into $CARGO_TARGET_DIR or
.bench_build/, runs fcbench for the workload in a child process and
prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. A child that aborts (e.g. an fcos_fatal)
or hangs is reported as a failed run: every request it had not finished
counts as failed. Simulated statistics and result digests are compared
exactly with every earlier run of the same source tree and seed (stored
under <build>/determinism/); any difference fails the run. Full results
with provenance go to <build>/results/, span traces to <build>/traces/.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_LIMIT_S = 170.0


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_hash():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "fcbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd), 3)
    return os.path.join(build_dir, "fcbench")


def run_child(cmd, timeout_s):
    """Run fcbench, collecting its JSON lines. Returns (lines, exit code
    or None on timeout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        code = None
    lines = []
    for line in out.splitlines():
        try:
            lines.append(json.loads(line))
        except ValueError:
            pass
    return lines, code


def check_determinism(build_dir, workload, seed, src_hash, result):
    """Exact comparison with earlier runs of this source tree and seed."""
    rec_dir = os.path.join(build_dir, "determinism")
    os.makedirs(rec_dir, exist_ok=True)
    path = os.path.join(rec_dir, "%s-seed%d.json" % (workload, seed))
    mine = {"source": src_hash, "digest": result["digest"], "sim": result["sim"]}
    ok = True
    if os.path.exists(path):
        with open(path) as f:
            prev = json.load(f)
        if prev["source"] == src_hash and prev != mine:
            print("perfbench: %s seed %d differs from an earlier run:\n"
                  "  now  %s\n  then %s" % (workload, seed, json.dumps(mine),
                                            json.dumps(prev)),
                  file=sys.stderr)
            ok = False
    with open(path, "w") as f:
        json.dump(mine, f, sort_keys=True)
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/", 2)
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found at the repository root", 2)
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload, 2)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    exe = build(build_dir)
    src_hash = source_hash()

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(build_dir, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(build_dir, "traces", tag + ".json")]
    t0 = time.monotonic()
    lines, code = run_child(cmd, min(CHILD_LIMIT_S, 3 * args.seconds + 60))
    wall = time.monotonic() - t0

    provenance = next((l["provenance"] for l in lines if "provenance" in l), {})
    provenance.update({
        "host_cores": os.cpu_count(),
        "commit": "source-sha256:" + src_hash[:16],
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": wall,
    })
    result = next((l["result"] for l in lines if "result" in l), None)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    if result is None:
        # Aborted, crashed or hung: finished reps count as reported, the
        # rep in progress counts every planned request as failed.
        ends = [l for l in lines if "rep_end" in l]
        begun = [l for l in lines if "rep_begin" in l]
        attempted = sum(l["attempted"] for l in ends)
        ok = sum(l["ok"] for l in ends)
        if len(begun) > len(ends):
            attempted += begun[-1]["planned"]
        attempted = max(attempted, 1)
        why = "timed out" if code is None else "exited with code %s" % code
        print("perfbench: fcbench %s without a result" % why, file=sys.stderr)
        metrics = {}
        if not args.trace:
            metrics["ok_frac"] = {"value": ok / attempted, "unit": "frac"}
        row = {"correct": False, "attempted": attempted,
               "failed": attempted - ok, "metrics": metrics}
        print(json.dumps({"provenance": provenance}))
        print(json.dumps(row))
        sys.exit(1)

    deterministic = check_determinism(build_dir, args.workload, args.seed,
                                      src_hash, result)
    correct = bool(result["correct"]) and deterministic and code == 0
    got = result["metrics"]
    metrics = {m["name"]: {"value": got.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    missing = [m["name"] for m in wanted if m["name"] not in got]
    if missing:
        print("perfbench: not measured on %s (reported as 0): %s"
              % (args.workload, ", ".join(missing)), file=sys.stderr)
    if args.trace:
        shares = sorted((k[len("share."):], v) for k, v in got.items()
                        if k.startswith("share."))
        print("perfbench: self-time shares of the timed section (%s):"
              % args.workload, file=sys.stderr)
        for k, v in shares:
            print("  %-22s %6.2f%%" % (k, 100 * v), file=sys.stderr)
        print("  %-22s %6.2f%%" % ("total", 100 * sum(v for _, v in shares)),
              file=sys.stderr)

    os.makedirs(os.path.join(build_dir, "results"), exist_ok=True)
    with open(os.path.join(build_dir, "results", tag + ".json"), "w") as f:
        json.dump({"provenance": provenance, "result": result,
                   "deterministic_across_runs": deterministic}, f, indent=1,
                  sort_keys=True)
    row = {"correct": correct, "attempted": result["attempted"],
           "failed": result["failed"], "metrics": metrics}
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(row))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
