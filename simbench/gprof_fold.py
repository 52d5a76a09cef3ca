"""Fold a gprof profile of simbench_driver into per-module host time.

Each function's self time is charged to the module of the source
file it is defined in, src/<module>/..., read from the debug info
with `nm -l`. A function defined outside src/ (a standard-library
template such as the MSHR's std::_Hashtable lookups) is charged to
its callers in proportion to the calls each made, following the
call graph until a caller inside src/ is found. Time gprof cannot
place lands in "other". gprof samples only the executable itself, so
time spent inside shared libraries (libc, libstdc++) is not counted.
"""

import collections
import re
import subprocess

# Modules under src/ reported as <module>.self_s: those the workloads
# spend measurable time in.
MODULES = ("sim", "noc", "mem", "cache", "llc", "gpu", "workloads")

# Named call counts: counter -> demangled-name pattern.
CALLS = {
    "next_event": re.compile(r"::(nextEventCycle|eventNextCycle)\("),
    "router_tick": re.compile(r"^amsc::Router::tick\("),
    "sched_pick": re.compile(r"^amsc::\w+Sched::pick\("),
    "tag_probe": re.compile(r"^amsc::TagArray::probe\("),
}

_INDEX = re.compile(r"\s*\[\d+\]$")
_CYCLE = re.compile(r"\s*<cycle \d+>")


def _run(cmd):
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          check=True).stdout


def _name(line):
    """Function name of a call-graph line: its last field, without
    the trailing [index] and any <cycle N> tag."""
    return _CYCLE.sub("", _INDEX.sub("", line)).split()[-1]


def parse_flat(text):
    """gprof -p output -> {name: (self seconds, calls)}."""
    flat = {}
    for line in text.splitlines():
        parts = line.split()
        try:
            self_s = float(parts[2])
            float(parts[0])
        except (IndexError, ValueError):
            continue
        calls = int(parts[3]) if len(parts) >= 7 else 0
        flat[parts[-1]] = (self_s, calls)
    return flat


def parse_parents(text):
    """gprof -q output -> {callee: [(caller, calls), ...]}."""
    parents = collections.defaultdict(list)
    block = []
    for line in text.splitlines() + ["---"]:
        if not line.startswith("---"):
            block.append(line)
            continue
        primary = next((i for i, l in enumerate(block)
                        if l.startswith("[")), None)
        if primary is not None:
            callee = _name(block[primary])
            for l in block[:primary]:
                parts = l.split()
                if len(parts) >= 4 and "/" in parts[2]:
                    count = int(parts[2].split("/")[0].split("+")[0])
                    parents[callee].append((_name(l), count))
        block = []
    return parents


def module_map(binary, root):
    """Mangled symbol -> module under root/src (or 'bench')."""
    src = root.rstrip("/") + "/src/"
    mods = {}
    for line in _run(["nm", "-l", "--defined-only", binary]).splitlines():
        parts = line.split()
        if len(parts) < 4:
            continue
        path = parts[3].rsplit(":", 1)[0]
        if path.startswith(src):
            mods[parts[2]] = path[len(src):].split("/", 1)[0]
        elif "/simbench/" in path:
            mods[parts[2]] = "bench"
    return mods


def demangle(names):
    out = subprocess.run(["c++filt"], input="\n".join(names),
                         stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    return dict(zip(names, out.splitlines()))


def fold(flat, parents, mods):
    """Self seconds per module, library time charged to callers."""
    acc = collections.defaultdict(float)

    def charge(name, amount, depth, seen):
        mod = mods.get(name)
        if mod:
            acc[mod] += amount
            return
        callers = [(p, c) for p, c in parents.get(name, ())
                   if p not in seen and c > 0]
        total = sum(c for _, c in callers)
        if depth > 32 or total == 0:
            acc["other"] += amount
            return
        for p, c in callers:
            charge(p, amount * c / total, depth + 1, seen | {name})

    for name, (self_s, _) in flat.items():
        if self_s > 0:
            charge(name, self_s, 0, frozenset())
    return dict(acc)


def profile(binary, gmon, root):
    """Per-module self time, next-event self time and named calls, in
    profiled seconds, plus the total of all sampled self time."""
    flat = parse_flat(_run(["gprof", "-b", "--no-demangle", "-p",
                            binary, gmon]))
    parents = parse_parents(_run(["gprof", "-b", "--no-demangle", "-q",
                                  binary, gmon]))
    self_s = fold(flat, parents, module_map(binary, root))
    names = demangle(sorted(flat))
    calls = dict.fromkeys(CALLS, 0)
    next_event_s = 0.0
    for mangled, (s, n) in flat.items():
        for key, pat in CALLS.items():
            if pat.search(names.get(mangled, "")):
                calls[key] += n
                if key == "next_event":
                    next_event_s += s
    return {"self_s": self_s, "calls": calls,
            "next_event_self_s": next_event_s,
            "total_s": sum(s for s, _ in flat.values())}


def read_digests(path):
    with open(path) as f:
        return [line.split()[1] for line in f if line.strip()]


def digest_mismatches(ref_path, other_path):
    """Point indices whose RunResult digests differ between two runs."""
    a, b = read_digests(ref_path), read_digests(other_path)
    bad = [i for i in range(min(len(a), len(b))) if a[i] != b[i]]
    return bad + list(range(min(len(a), len(b)), max(len(a), len(b))))
