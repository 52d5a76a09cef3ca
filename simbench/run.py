#!/usr/bin/env python3
"""Benchmark of the amsc simulator.

    python3 simbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds the simulator from
src/ into .bench_build/ (never timed), writes the workload's scenario
for the seed, runs it through simbench_driver and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 makes the traced
run and reports the per-layer metrics (see README.md).
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

sys.path.insert(0, HERE)
import gprof_fold  # noqa: E402

# Per workload: scenario template, points re-run under the other cycle
# driver, and whether every serving request must complete. Under tick
# one serving_idle point costs as much as its whole event-driven grid,
# so that workload samples a single point.
WORKLOADS = {
    "fig11": {"scn": "fig11.scn", "cross": 2, "all_requests": False},
    "serving": {"scn": "serving.scn", "cross": 2, "all_requests": False},
    "serving_idle": {"scn": "serving_idle.scn", "cross": 1,
                     "all_requests": True},
    "memory": {"scn": "memory.scn", "cross": 2, "all_requests": False},
}


def fail(msg):
    print("simbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(name, gprof):
    """Configure and build one copy of the simulator; return the driver."""
    out = os.path.join(BUILD, name)
    log = os.path.join(BUILD, name + ".log")
    os.makedirs(BUILD, exist_ok=True)
    cmds = [["cmake", "--build", out, "-j", str(os.cpu_count() or 1)]]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmds.insert(0, ["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release",
                        "-DSIMBENCH_GPROF=" + ("ON" if gprof else "OFF")])
    with open(log, "w") as f:
        for cmd in cmds:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                fail("build failed, see " + log)
    return os.path.join(out, "simbench_driver")


def scenario(workload, seed):
    """Write the workload's scenario for the seed; return its path."""
    with open(os.path.join(HERE, "inputs", WORKLOADS[workload]["scn"])) as f:
        text = f.read()
    # @SEED@ is the seed itself; @SEED.k@ a seed of its own for part k.
    text = re.sub(r"@SEED(?:\.(\d+))?@",
                  lambda m: str(seed if m.group(1) is None
                                else seed * 16 + int(m.group(1))), text)
    path = os.path.join(BUILD, "inputs", "%s-%d.scn" % (workload, seed))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(text)
    return path


def drive(driver, scn, args, cwd=None):
    """Run the driver; return its JSON report. The spawn time is passed
    along so that set-up time starts with the driver process."""
    t0 = time.monotonic_ns()
    proc = subprocess.run([driver, "run", scn, "--t0-ns=%d" % t0] + args,
                          cwd=cwd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail("driver exited with %d on %s" % (proc.returncode, scn))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def csv_ok(path, points):
    """The emitted CSV has a header and one row per point."""
    with open(path) as f:
        rows = f.read().splitlines()
    return len(rows) == points + 1 and "error" not in rows[0].split(",")


def metric(value, unit):
    return {"value": value, "unit": unit}


def fastest(rounds, key):
    """Per point, its shortest time over the rounds."""
    return [min(times) for times in zip(*(r[key] for r in rounds))]


def timed(args, driver, scn, out):
    wl = WORKLOADS[args.workload]
    csv = out + ".csv"
    flags = ["--seconds=%d" % args.seconds, "--min-rounds=2", "--csv=" + csv,
             "--cross=%d" % wl["cross"], "--seed=%d" % args.seed]
    if wl["all_requests"]:
        flags.append("--all-requests")
    # fig11_gap is a property of the code at this seed: the fig11 grid
    # computes it from its own points, every other workload evaluates
    # the same grid after its timed rounds on all hardware threads,
    # which gives bit-identical results.
    flags.append("--fig11=" + ("self" if args.workload == "fig11"
                               else scenario("fig11", args.seed)))
    rep = drive(driver, scn, flags)
    # Host noise on a shared machine only ever adds time, so each part
    # of the grid is taken at its fastest over the run's rounds.
    rounds = rep["rounds"]
    wall_s = (min(r["load_s"] for r in rounds) +
              sum(fastest(rounds, "point_total_s")) +
              min(r["emit_s"] for r in rounds))
    run_s = sum(fastest(rounds, "point_run_s"))
    metrics = {
        "wall_s": metric(wall_s, "s"),
        "sim_cycles_per_s": metric(rep["counts"]["sim.cycles"] / run_s,
                                   "cycles/s"),
        "setup_s": metric(rep["setup_s"], "s"),
        "peak_rss_mb": metric(rep["peak_rss_mb"], "MB"),
        "fig11_gap": metric(rep["fig11"]["gap"], "ratio"),
    }
    return rep, csv_ok(csv, rep["points"]), metrics


def traced(driver, gprof_driver, scn, out):
    """Untimed reference run, then the -pg copy on the same scenario."""
    ref = drive(driver, scn, ["--csv=%s.ref.csv" % out,
                              "--digests=%s.ref.dig" % out])
    tdir = out + ".gprof"
    os.makedirs(tdir, exist_ok=True)
    gmon = os.path.join(tdir, "gmon.out")
    if os.path.exists(gmon):
        os.remove(gmon)
    prof = drive(gprof_driver, scn, ["--csv=%s.prof.csv" % out,
                                     "--digests=%s.prof.dig" % out],
                 cwd=tdir)
    mismatch = gprof_fold.digest_mismatches(out + ".ref.dig",
                                            out + ".prof.dig")
    prof_failed = set(prof["failed_index"]) | set(mismatch)
    if mismatch:
        print("simbench: profiled copy differs on points %s" % mismatch,
              file=sys.stderr)

    modules = gprof_fold.profile(gprof_driver, gmon, ROOT)
    ok = csv_ok(out + ".ref.csv", ref["points"])
    rep = {"attempted": ref["attempted"] + prof["attempted"],
           "failed": ref["failed"] + len(prof_failed)}
    return rep, ok, layer_metrics(ref, prof, modules)


def layer_metrics(ref, prof, m):
    c = ref["counts"]
    rd = ref["rounds"][0]
    # gprof counts 10 ms samples of the slower -pg copy. A module's
    # self time is its share of the samples applied to the untraced
    # run's wall time.
    scale = rd["wall_s"] / m["total_s"] if m["total_s"] else 0.0
    self_s = {mod: s * scale for mod, s in m["self_s"].items()}
    calls = m["calls"]

    def per(num_s, den):
        return num_s / den * 1e9 if den else 0.0

    ticked = c["sim.cycles"] - c["sim.jumped_cycles"]
    cache_llc = self_s.get("cache", 0.0) + self_s.get("llc", 0.0)
    out = {
        "sim.run_s": metric(rd["run_s"], "s"),
        "sim.build_s": metric(rd["build_s"], "s"),
        "sim.ns_per_ticked_cycle": metric(per(rd["run_s"], ticked), "ns"),
        "sim.next_event_self_s": metric(m["next_event_self_s"] * scale,
                                        "s"),
        "sim.next_event_calls": metric(calls["next_event"], "count"),
        "noc.router_tick_calls": metric(calls["router_tick"], "count"),
        "noc.ns_per_flit": metric(
            per(self_s.get("noc", 0.0), c["noc.flit_traversals"]), "ns"),
        "mem.sched_pick_calls": metric(calls["sched_pick"], "count"),
        "mem.ns_per_dram_access": metric(
            per(self_s.get("mem", 0.0), c["mem.dram_accesses"]), "ns"),
        "cache.tag_probe_calls": metric(calls["tag_probe"], "count"),
        "cache.ns_per_llc_access": metric(
            per(cache_llc, c["llc.accesses"]), "ns"),
        "gpu.ns_per_instr": metric(
            per(self_s.get("gpu", 0.0), c["gpu.warp_instrs"]), "ns"),
        "scenario.load_s": metric(rd["load_s"], "s"),
        "scenario.emit_s": metric(rd["emit_s"], "s"),
        "trace.overhead_ratio": metric(
            prof["rounds"][0]["wall_s"] / rd["wall_s"], "ratio"),
    }
    for name, value in c.items():
        out[name] = metric(value, "cycles" if name.endswith("cycles")
                           else "count")
    for mod in gprof_fold.MODULES:
        out[mod + ".self_s"] = metric(self_s.get(mod, 0.0), "s")
    return dict(sorted(out.items()))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no simulator sources: run from the root of a checkout")
    # Both copies are built on the first run of a checkout, so a later
    # traced run stays within a normal run's time.
    driver = build("release", gprof=False)
    gprof_driver = build("gprof", gprof=True)

    scn = scenario(args.workload, args.seed)
    out = os.path.join(BUILD, "out", "%s-%d" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(out), exist_ok=True)
    if args.trace:
        rep, ok, metrics = traced(driver, gprof_driver, scn, out)
    else:
        rep, ok, metrics = timed(args, driver, scn, out)
    print(json.dumps({"correct": ok, "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
