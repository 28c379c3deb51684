#!/usr/bin/env python3
"""Host-cost benchmark of the paper suite (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload kv_read --seed 1 --seconds 25 --trace 0

The script builds perfbench/main.exe with dune into .bench_build/, then
starts it once per measurement: every experiment pass runs in a fresh
process, as `aquila_cli run ID` does.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

--trace 0  end-to-end host cost: untraced passes of the workload's
           experiment until --seconds is used up, medians over the passes,
           plus the median start-up time of repeated set-up launches.
--trace 1  per-layer metrics: one untraced pass, two traced passes whose
           layer counts must agree exactly, and the seeded layer probes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

BUILD_DIR = ".bench_build"
PROFILE = "release"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
WORKLOADS = ("kv_read", "kv_write", "mmio_scale", "graph_bfs")
SETUP_LAUNCHES = 21
# Set once the build is done: a run ends within 180 s of its start, a
# first build aside, so every child gets what is left of 170 s.
deadline = 0.0

E2E = ("wall_s", "cpu_s", "alloc_mwords", "major_mwords", "peak_heap_mb")


def units(section):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open("BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def log(msg):
    print(msg, flush=True)


def die(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(2)


def dune_cmd():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die("dune not found")


def build():
    """Build main.exe from this checkout's sources; nothing leaves it."""
    if not os.path.isfile("dune-project"):
        die("run from the repository root (no dune-project here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune_cmd() + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                        "--profile", PROFILE, "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=800)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if r.returncode != 0 or not os.path.isfile(EXE):
        die("build failed")


def child(args):
    """Run main.exe ARGS.  Returns the seconds until it printed "ready",
    the seconds until it exited, its last output line parsed as JSON, and
    the lines before that one."""
    t0 = time.perf_counter()
    # Unbuffered, so that communicate() sees every byte after "ready".
    p = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, bufsize=0)
    try:
        first = b""
        while not first.endswith(b"\n"):
            c = os.read(p.stdout.fileno(), 1)
            if not c:
                break
            first += c
        t_ready = time.perf_counter() - t0
        rest, _ = p.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        die("main.exe %s ran out of time" % " ".join(args))
    t_exit = time.perf_counter() - t0
    lines = rest.decode().strip().splitlines()
    if first.strip() != b"ready" or p.returncode != 0 or not lines:
        die("main.exe %s failed (exit %s)" % (" ".join(args), p.returncode))
    return t_ready, t_exit, json.loads(lines[-1]), lines[:-1]


def host_facts(workload, a_pass):
    """Printed beside every result, so a recorded result explains itself."""
    commit = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(".git", "HEAD")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    log("host " + json.dumps({"workload": workload, "nproc": os.cpu_count(),
                              "ocaml": a_pass["ocaml"], "dune_profile": PROFILE,
                              "commit": commit}, sort_keys=True))


def check_selfcheck(p):
    # The digest check must reject a one-byte change of the output.
    if not p["selfcheck"]:
        die("digest self-check: a perturbed output was not counted as failed")


def run_e2e(workload, seconds):
    setups = [child(["setup", workload])[0] for _ in range(SETUP_LAUNCHES)]
    passes = []
    start = time.perf_counter()
    while True:
        _, took, p, _ = child(["e2e", workload])
        check_selfcheck(p)
        passes.append(p)
        log("pass %d: %s, wall %.3f s, cpu %.3f s, alloc %.1f Mwords"
            % (len(passes), p["detail"], p["wall_s"], p["cpu_s"], p["alloc_mwords"]))
        if time.perf_counter() - start + took > seconds:
            break
    failed = sum(not p["ok"] for p in passes)
    values = {name: median([p[name] for p in passes]) for name in E2E}
    values["setup_s"] = median(setups)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units("end_to_end").items()}
    log("failed_ratio %d/%d, setup %d launches" % (failed, len(passes), len(setups)))
    return len(passes), failed, metrics, passes[0]


def ratio(a, b):
    return a / b if b else 0.0


def run_traced(workload, seed):
    _, _, untraced, _ = child(["e2e", workload])
    traced = [child(["traced", workload])[2] for _ in range(2)]
    _, _, probes, spans = child(["probes", str(seed)])
    for p in [untraced] + traced:
        check_selfcheck(p)
    for s in spans:
        log(s)
    attempted = 1 + len(traced) + len(probes["checks"])
    failed = sum(not p["ok"] for p in [untraced] + traced)
    for c in probes["checks"]:
        if not c["ok"]:
            failed += 1
            log("probe %s failed: %s" % (c["probe"], c["detail"]))

    c, c2 = traced[0]["counts"], traced[1]["counts"]
    # every count of a traced pass must repeat exactly
    differ = [k for k in c if c[k] != c2[k]]
    attempted += 1
    if differ:
        failed += 1
        for k in differ:
            log("nondeterminism: %s is %s in one traced pass and %s in the other"
                % (k, c[k], c2[k]))

    derived = {
        "sim.fast_share": ratio(c["sim.events_fast"], c["sim.events"]),
        "sim.host_ns_per_event": ratio(untraced["wall_s"] * 1e9, c["sim.events"]),
        "hw.tlb_hit_ratio": ratio(c["hw.tlb_hits"], c["hw.tlb_hits"] + c["hw.tlb_misses"]),
        "mcache.hit_ratio": ratio(c["mcache.hits"], c["mcache.hits"] + c["mcache.misses"]),
        "mcache.pages_per_wb_io": ratio(c["mcache.wb_pages"], c["mcache.wb_ios"]),
        "gc.promoted_mwords": c["gc.promoted_words"] / 1e6,
        "trace.overhead": ratio(median([t["wall_s"] for t in traced]),
                                untraced["wall_s"]) - 1.0,
    }
    values = dict(c)
    values.update(derived)
    values.update(probes["metrics"])
    declared = units("per_layer")
    missing = [name for name in declared if name not in values]
    if missing:
        # a probe that raised reports nothing; keep the result line whole
        failed += 1
        log("missing metrics: " + ", ".join(missing))
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in declared.items()}
    return attempted, failed, metrics, untraced


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build()
    global deadline
    deadline = time.monotonic() + 170
    if a.trace:
        attempted, failed, metrics, a_pass = run_traced(a.workload, a.seed)
    else:
        attempted, failed, metrics, a_pass = run_e2e(a.workload, a.seconds)
    host_facts(a.workload, a_pass)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
