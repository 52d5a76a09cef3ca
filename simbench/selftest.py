#!/usr/bin/env python3
"""Shows that each of the benchmark's checks fails on a doctored result.

    python3 simbench/selftest.py

Run from the root of a source checkout. The C++ checks (per-point
properties, grid checks, the other-cycle-driver comparison and the
RunResult digest) are exercised by `simbench_driver selftest` on two
small scenarios; the Python side checks the digest comparison of the
traced run and the folding of library time into calling modules.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import gprof_fold  # noqa: E402
import run  # noqa: E402

failures = 0


def expect(ok, what):
    global failures
    print("%s %s" % ("ok  " if ok else "FAIL", what))
    failures += not ok


def test_driver_checks():
    driver = run.build("release", gprof=False)
    inputs = os.path.join(HERE, "inputs")
    proc = subprocess.run([driver, "selftest",
                           os.path.join(inputs, "selftest_static.scn"),
                           os.path.join(inputs, "selftest_serving.scn")])
    expect(proc.returncode == 0, "driver checks fire on doctored results")


def test_digest_compare():
    os.makedirs(run.BUILD, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.BUILD) as d:
        ref, other = os.path.join(d, "ref"), os.path.join(d, "other")
        lines = ["0 00000000deadbeef a\n", "1 0123456789abcdef b\n"]
        with open(ref, "w") as f:
            f.writelines(lines)
        with open(other, "w") as f:
            f.writelines(lines)
        expect(gprof_fold.digest_mismatches(ref, other) == [],
               "identical digests compare equal")
        with open(other, "w") as f:
            f.writelines([lines[0], "1 0123456789abcdee b\n"])
        expect(gprof_fold.digest_mismatches(ref, other) == [1],
               "doctored digest is caught")
        with open(other, "w") as f:
            f.writelines(lines[:1])
        expect(gprof_fold.digest_mismatches(ref, other) == [1],
               "missing point is caught")


def test_fold():
    flat = {"noc_fn": (1.0, 10), "cache_fn": (2.0, 5),
            "std_find": (3.0, 40), "std_inner": (1.0, 4)}
    parents = {"std_find": [("noc_fn", 10), ("cache_fn", 30)],
               "std_inner": [("std_find", 4)]}
    mods = {"noc_fn": "noc", "cache_fn": "cache"}
    got = gprof_fold.fold(flat, parents, mods)
    expect(abs(got["noc"] - 2.0) < 1e-9 and abs(got["cache"] - 5.0) < 1e-9,
           "library self time is charged to callers by call share")


def test_parse():
    flat = gprof_fold.parse_flat(
        "  %   cumulative   self              self     total\n"
        " time   seconds   seconds    calls   s/call   s/call  name\n"
        " 60.00      0.60     0.60     1000     0.00     0.00  _Zf\n"
        " 40.00      1.00     0.40                             _Zg\n")
    expect(flat == {"_Zf": (0.6, 1000), "_Zg": (0.4, 0)},
           "flat profile rows parse with and without call counts")
    graph = gprof_fold.parse_parents(
        "                0.10    0.00       3/5           _Za [2]\n"
        "                0.20    0.00       2/5           _Zb <cycle 1> [3]\n"
        "[4]     30.0    0.30    0.00       5         _Zf [4]\n"
        "-----------------------------------------------\n")
    expect(graph == {"_Zf": [("_Za", 3), ("_Zb", 2)]},
           "call-graph parents parse with call counts")


def test_metric_names():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        declared = {m["name"] for m in json.load(f)["per_layer"]}
    counts = dict.fromkeys(
        ["sim.cycles", "sim.jumped_cycles", "sim.event_jumps",
         "noc.flit_traversals", "noc.router_active_cycles",
         "mem.dram_accesses", "mem.queue_rejects", "llc.accesses",
         "llc.transitions", "llc.reconfig_stall_cycles",
         "gpu.warp_instrs", "workloads.requests_completed"], 1)
    rd = {"wall_s": 1.0, "run_s": 1.0, "build_s": 1.0, "load_s": 1.0,
          "emit_s": 1.0}
    ref = {"counts": counts, "rounds": [rd]}
    prof = {"rounds": [rd]}
    m = {"self_s": {}, "calls": dict.fromkeys(gprof_fold.CALLS, 0),
         "next_event_self_s": 0.0, "total_s": 1.0}
    got = set(run.layer_metrics(ref, prof, m))
    expect(got == declared, "traced run reports exactly the declared "
           "per-layer metrics (missing %s, extra %s)"
           % (sorted(declared - got), sorted(got - declared)))


if __name__ == "__main__":
    test_metric_names()
    test_parse()
    test_fold()
    test_digest_compare()
    test_driver_checks()
    print("selftest %s" % ("FAILED" if failures else "passed"))
    sys.exit(1 if failures else 0)
