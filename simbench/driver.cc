/**
 * @file
 * Benchmark driver: runs one generated scenario the way `amsc sweep`
 * does -- Scenario::load + expand, SweepRunner::runPoint per point on
 * the calling thread, emitCsv -- and brackets those public calls with
 * host timers. Work counts are read after each point from RunResult
 * and GpuSystem's public accessors. Every point is checked against
 * properties the model must have; a point fails when it throws or
 * fails a check.
 *
 *   simbench_driver run <scn> [--seconds=S] [--min-rounds=R]
 *       [--t0-ns=N] [--csv=FILE] [--digests=FILE] [--cross=K]
 *       [--seed=N] [--fig11=<scn>|self] [--all-requests]
 *   simbench_driver selftest <static.scn> <serving.scn>
 *
 * `run` repeats whole rounds of the grid -- at least R, and another
 * only while it is expected to end within S seconds -- and prints one
 * JSON object on stdout. After the timed rounds it re-runs K sampled
 * points under the other cycle driver (tick <-> event) and, with
 * --fig11, evaluates the Fig 11 grid (its own with `self`) for the
 * fidelity gap. `selftest` shows that every check fires on a doctored
 * result.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include "common/ckpt.hh"
#include "common/strutil.hh"
#include "scenario/emit.hh"
#include "scenario/scenario.hh"
#include "sim/journal.hh"
#include "sim/sweep.hh"
#include "workloads/suite.hh"

using namespace amsc;
using scenario::ExpandedPoint;
using scenario::Scenario;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** CLOCK_MONOTONIC now, ns: the clock Python's time.monotonic_ns reads. */
std::int64_t
monotonicNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 +
        ts.tv_nsec;
}

/** FNV-1a over the journal encoding of a whole RunResult. */
std::uint64_t
resultDigest(const RunResult &r)
{
    CkptWriter w;
    saveRunResult(w, r);
    std::uint64_t h = 1469598103934665603ull;
    for (const std::uint8_t b : w.buffer()) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

// ---- output checks -------------------------------------------------

/**
 * Properties every point must have; with @p all_requests a serving
 * point must also finish every request. Returns one message per
 * violated property (empty = the point passes).
 */
std::vector<std::string>
checkPoint(const SimConfig &cfg, const RunResult &r, bool all_requests)
{
    std::vector<std::string> bad;
    const LlcSystemStats &c = r.llcCtrl;
    if (c.cyclesPrivate + c.cyclesShared != r.cycles)
        bad.push_back("llc mode cycles " +
                      std::to_string(c.cyclesPrivate) + "+" +
                      std::to_string(c.cyclesShared) +
                      " != cycles " + std::to_string(r.cycles));
    const std::uint64_t transitions =
        c.transitionsToPrivate + c.transitionsToShared;
    if (cfg.llcPolicy == LlcPolicy::ForceShared &&
        (transitions != 0 || c.cyclesPrivate != 0))
        bad.push_back("forced shared point left shared mode");
    if (cfg.llcPolicy == LlcPolicy::ForcePrivate &&
        (transitions != 0 || c.cyclesShared != 0))
        bad.push_back("forced private point left private mode");

    for (std::size_t i = 0; i < r.nocActivity.routers.size(); ++i) {
        const RouterActivity &a = r.nocActivity.routers[i];
        const std::uint64_t cap =
            static_cast<std::uint64_t>(a.numInPorts) * a.numVcs *
            a.vcDepthFlits;
        if (a.bufferWrites < a.bufferReads ||
            a.bufferWrites - a.bufferReads > cap)
            bad.push_back("router " + std::to_string(i) +
                          " buffer occupancy out of [0, " +
                          std::to_string(cap) + "]");
    }

    const std::uint32_t trefi = cfg.dramTimings.tREFI;
    const std::uint64_t max_refreshes =
        trefi == 0 ? 0 : cfg.numMcs * (r.cycles / trefi);
    if (r.dramRefreshes > max_refreshes)
        bad.push_back("dram refreshes " +
                      std::to_string(r.dramRefreshes) + " > " +
                      std::to_string(max_refreshes));

    if (r.servingActive) {
        if (r.requestsCompleted > cfg.servingRequests)
            bad.push_back("more requests completed than admitted");
        if (all_requests && r.requestsCompleted < cfg.servingRequests)
            bad.push_back("request left unfinished");
        if (r.reqLatencyP50 > r.reqLatencyP99)
            bad.push_back("request latency p50 > p99");
        if (r.batchOccupancy < 1.0 ||
            r.batchOccupancy > static_cast<double>(cfg.servingBatch))
            bad.push_back("batch occupancy out of [1, serving_batch]");
    }
    return bad;
}

// ---- one timed round ----------------------------------------------

/** Host time and clock-jump counts of one point. */
struct PointTimes
{
    Clock::time_point built;
    Clock::time_point ran;
    double buildS = 0.0; ///< construction + workload installation
    double runS = 0.0;   ///< GpuSystem::run
    double totalS = 0.0; ///< the whole runPoint call
    std::uint64_t jumps = 0;
    Cycle jumped = 0;
};

struct Round
{
    std::vector<ExpandedPoint> points;
    std::vector<RunResult> results;
    std::vector<PointTimes> times;
    std::vector<std::string> errors; ///< non-empty = the point threw
    Clock::time_point expanded;
    double loadS = 0.0;  ///< Scenario::load + expand
    double buildS = 0.0; ///< sum of construction + installation
    double runS = 0.0;   ///< sum of GpuSystem::run
    double emitS = 0.0;  ///< emitCsv + writeOut
    double wallS = 0.0;  ///< load until the CSV is written
};

Round
runRound(const std::string &scn_path, const std::string &csv_path)
{
    Round rd;
    const Clock::time_point t0 = Clock::now();
    const Scenario scn = Scenario::load(scn_path);
    rd.points = scn.expand();
    rd.expanded = Clock::now();
    rd.loadS = secondsSince(t0);

    const std::size_t n = rd.points.size();
    rd.results.resize(n);
    rd.times.resize(n);
    rd.errors.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        SweepPoint point = rd.points[i].point;
        PointTimes &pt = rd.times[i];
        point.onBuilt = [&pt](GpuSystem &) { pt.built = Clock::now(); };
        point.post = [&pt](GpuSystem &gpu, RunResult &) {
            pt.ran = Clock::now();
            pt.jumps = gpu.eventJumps();
            pt.jumped = gpu.jumpedCycles();
        };
        const Clock::time_point start = Clock::now();
        try {
            rd.results[i] = SweepRunner::runPoint(point);
            pt.buildS =
                std::chrono::duration<double>(pt.built - start).count();
            pt.runS =
                std::chrono::duration<double>(pt.ran - pt.built).count();
            pt.totalS = secondsSince(start);
            rd.buildS += pt.buildS;
            rd.runS += pt.runS;
        } catch (const std::exception &e) {
            rd.results[i] = RunResult{};
            rd.errors[i] = e.what();
        }
    }

    const Clock::time_point e0 = Clock::now();
    std::vector<std::string> errors = rd.errors;
    for (std::string &e : errors) {
        if (!e.empty())
            e = "error";
    }
    scenario::writeOut(scenario::emitCsv(scenario::emitPoints(rd.points),
                                         rd.results, errors),
                       csv_path);
    rd.emitS = secondsSince(e0);
    rd.wallS = secondsSince(t0);
    return rd;
}

// ---- Fig 11 fidelity -----------------------------------------------

double
harmonicMean(const std::vector<double> &v)
{
    double s = 0.0;
    for (const double x : v)
        s += 1.0 / x;
    return v.empty() ? 0.0 : static_cast<double>(v.size()) / s;
}

/** Paper values of the three class means (ROADMAP item 1). */
constexpr double kPaperAdaptivePf = 1.281;
constexpr double kPaperPrivateSf = 0.82;
constexpr double kPaperPrivateNeutral = 1.00;

struct Fig11
{
    double adaptivePf = 0.0; ///< HM adaptive/shared, private-friendly
    double privateSf = 0.0;  ///< HM private/shared, shared-friendly
    double privateN = 0.0;   ///< HM private/shared, neutral
    double gap = 0.0;
};

/** Class harmonic means of a workload x llc_policy grid. */
Fig11
fig11Gap(const std::vector<ExpandedPoint> &pts,
         const std::vector<RunResult> &res)
{
    // workload -> policy -> IPC
    std::map<std::string, std::map<std::string, double>> ipc;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        std::string wl, pol;
        for (const auto &[k, v] : pts[i].coords) {
            if (k == "workload")
                wl = v;
            else if (k == "llc_policy")
                pol = v;
        }
        ipc[wl][pol] = res[i].ipc;
    }
    std::vector<double> pf, sf, nn;
    for (const auto &[wl, by] : ipc) {
        const double s = by.at("shared");
        switch (WorkloadSuite::byName(wl).klass) {
        case WorkloadClass::PrivateFriendly:
            pf.push_back(by.at("adaptive") / s);
            break;
        case WorkloadClass::SharedFriendly:
            sf.push_back(by.at("private") / s);
            break;
        case WorkloadClass::Neutral:
            nn.push_back(by.at("private") / s);
            break;
        }
    }
    Fig11 f;
    f.adaptivePf = harmonicMean(pf);
    f.privateSf = harmonicMean(sf);
    f.privateN = harmonicMean(nn);
    f.gap = (std::fabs(f.adaptivePf - kPaperAdaptivePf) +
             std::fabs(f.privateSf - kPaperPrivateSf) +
             std::fabs(f.privateN - kPaperPrivateNeutral)) /
        3.0;
    return f;
}

// ---- argument helpers ---------------------------------------------

std::string
flag(int argc, char **argv, const std::string &name,
     const std::string &dflt = "")
{
    const std::string prefix = "--" + name + "=";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--" + name)
            return "1";
        if (a.rfind(prefix, 0) == 0)
            return a.substr(prefix.size());
    }
    return dflt;
}

void
printFailures(std::FILE *out,
              const std::vector<std::string> &failures)
{
    std::fprintf(out, "\"failures\": [");
    const std::size_t shown = std::min<std::size_t>(failures.size(), 20);
    for (std::size_t i = 0; i < shown; ++i) {
        std::string esc;
        for (const char ch : failures[i]) {
            if (ch == '"' || ch == '\\')
                esc.push_back('\\');
            esc.push_back(ch == '\n' ? ' ' : ch);
        }
        std::fprintf(out, "%s\"%s\"", i ? ", " : "", esc.c_str());
    }
    std::fprintf(out, "]");
}

int
cmdRun(int argc, char **argv)
{
    const std::string scn_path = argv[2];
    const double seconds =
        std::atof(flag(argc, argv, "seconds", "0").c_str());
    const std::size_t min_rounds = std::max<std::size_t>(
        1, std::strtoul(flag(argc, argv, "min-rounds", "1").c_str(),
                        nullptr, 10));
    const std::int64_t t0_ns =
        std::atoll(flag(argc, argv, "t0-ns", "0").c_str());
    const std::string csv_path = flag(argc, argv, "csv", "-");
    const std::string digest_path = flag(argc, argv, "digests");
    const std::size_t cross =
        std::strtoul(flag(argc, argv, "cross", "0").c_str(), nullptr, 10);
    const std::uint64_t seed =
        std::strtoull(flag(argc, argv, "seed", "0").c_str(), nullptr, 10);
    const std::string fig11_path = flag(argc, argv, "fig11");
    const bool all_requests = flag(argc, argv, "all-requests") == "1";

    // ---- timed rounds ----------------------------------------------
    // At least min-rounds rounds; another one only while it is
    // expected to end within S seconds.
    const Clock::time_point start = Clock::now();
    std::vector<Round> rounds;
    while (rounds.size() < min_rounds ||
           secondsSince(start) * (rounds.size() + 1) / rounds.size() <=
               seconds)
        rounds.push_back(runRound(scn_path, csv_path));
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    // Cold set-up: process start to the expanded grid, plus every
    // point's construction and workload installation.
    const Round &first = rounds.front();
    const double since_spawn = t0_ns > 0
        ? static_cast<double>(monotonicNs() - t0_ns) * 1e-9 -
            secondsSince(first.expanded)
        : first.loadS;
    const double setup_s = since_spawn + first.buildS;

    // ---- checks (untimed) ------------------------------------------
    const std::size_t n = first.points.size();
    std::vector<std::uint64_t> digests(n);
    for (std::size_t i = 0; i < n; ++i)
        digests[i] = resultDigest(first.results[i]);

    // Untimed work on all hardware threads: a seed-chosen sample of
    // points under the other cycle driver, which must give identical
    // results, and the Fig 11 grid when another workload is timed.
    std::vector<std::size_t> sample;
    for (std::size_t j = 0; j < std::min(cross, n); ++j)
        sample.push_back((seed + j * n / cross) % n);
    std::vector<SweepPoint> extra;
    for (const std::size_t i : sample) {
        extra.push_back(first.points[i].point);
        SimConfig &cfg = extra.back().cfg;
        cfg.simMode =
            cfg.simMode == SimMode::Tick ? SimMode::Event : SimMode::Tick;
    }
    std::vector<ExpandedPoint> fig11_points;
    if (!fig11_path.empty() && fig11_path != "self")
        fig11_points = Scenario::load(fig11_path).expand();
    for (const ExpandedPoint &ep : fig11_points)
        extra.push_back(ep.point);
    std::vector<RunResult> extra_res(extra.size());
    std::vector<std::string> extra_err(extra.size());
    SweepRunner(0).parallelFor(extra.size(), [&](std::size_t k) {
        try {
            extra_res[k] = SweepRunner::runPoint(extra[k]);
        } catch (const std::exception &e) {
            extra_err[k] = e.what();
        }
    });

    // The verdict holds for every round: rounds are checked to repeat
    // round 1 exactly.
    std::vector<std::string> cross_bad(n);
    for (std::size_t j = 0; j < sample.size(); ++j) {
        if (!extra_err[j].empty())
            cross_bad[sample[j]] = "other driver threw: " + extra_err[j];
        else if (!identicalResults(extra_res[j], first.results[sample[j]]))
            cross_bad[sample[j]] = "other cycle driver differs";
    }

    std::vector<std::string> failures;
    std::vector<std::size_t> failed_index; ///< round-1 failing points
    std::size_t failed = 0;
    for (const Round &rd : rounds) {
        std::vector<std::string> why(n);
        for (std::size_t i = 0; i < n; ++i) {
            if (!rd.errors[i].empty()) {
                why[i] = "threw: " + rd.errors[i];
                continue;
            }
            for (const std::string &m : checkPoint(
                     rd.points[i].point.cfg, rd.results[i], all_requests))
                why[i] += (why[i].empty() ? "" : "; ") + m;
            if (resultDigest(rd.results[i]) != digests[i])
                why[i] += "; result differs from round 1";
        }

        for (std::size_t i = 0; i < n; ++i) {
            if (!cross_bad[i].empty())
                why[i] += (why[i].empty() ? "" : "; ") + cross_bad[i];
            if (!why[i].empty()) {
                ++failed;
                if (&rd == &rounds.front())
                    failed_index.push_back(i);
                failures.push_back(rd.points[i].point.label + ": " +
                                   why[i]);
            }
        }
    }

    if (!digest_path.empty()) {
        std::string text;
        for (std::size_t i = 0; i < n; ++i)
            text += strfmt("%zu %016llx %s\n", i,
                           static_cast<unsigned long long>(digests[i]),
                           first.points[i].point.label.c_str());
        scenario::writeOut(text, digest_path);
    }

    bool have_fig11 = true;
    Fig11 fig;
    if (fig11_path == "self") {
        fig = fig11Gap(first.points, first.results);
    } else if (!fig11_points.empty()) {
        for (std::size_t k = sample.size(); k < extra.size(); ++k) {
            if (!extra_err[k].empty())
                throw SimError("fig11 point " + extra[k].label +
                               " threw: " + extra_err[k]);
        }
        fig = fig11Gap(fig11_points,
                       std::vector<RunResult>(extra_res.begin() +
                                                  sample.size(),
                                              extra_res.end()));
    } else {
        have_fig11 = false;
    }

    // ---- report ----------------------------------------------------
    std::uint64_t cycles = 0, jumped = 0, jumps = 0, instrs = 0,
                  flits = 0, router_active = 0, dram = 0, rejects = 0,
                  llc = 0, transitions = 0, stall = 0, requests = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const RunResult &r = first.results[i];
        const PointTimes &t = first.times[i];
        cycles += r.cycles;
        jumped += t.jumped;
        jumps += t.jumps;
        instrs += r.instructions;
        for (const LinkActivity &l : r.nocActivity.links)
            flits += l.flitTraversals;
        for (const RouterActivity &a : r.nocActivity.routers)
            router_active += a.activeCycles;
        dram += r.dramAccesses;
        rejects += r.dramQueueRejects;
        llc += r.llcAccesses;
        transitions +=
            r.llcCtrl.transitionsToPrivate + r.llcCtrl.transitionsToShared;
        stall += r.llcCtrl.reconfigStallCycles;
        requests += r.requestsCompleted;
    }

    std::FILE *out = stdout;
    std::fprintf(out, "{\"points\": %zu, \"attempted\": %zu, "
                      "\"failed\": %zu, ",
                 n, n * rounds.size(), failed);
    printFailures(out, failures);
    std::fprintf(out, ", \"failed_index\": [");
    for (std::size_t k = 0; k < failed_index.size(); ++k)
        std::fprintf(out, "%s%zu", k ? ", " : "", failed_index[k]);
    std::fprintf(out, "]");
    std::fprintf(out, ", \"rounds\": [");
    for (std::size_t k = 0; k < rounds.size(); ++k) {
        const Round &rd = rounds[k];
        std::fprintf(out,
                     "%s{\"wall_s\": %.9g, \"load_s\": %.9g, "
                     "\"build_s\": %.9g, \"run_s\": %.9g, "
                     "\"emit_s\": %.9g, \"point_total_s\": [",
                     k ? ", " : "", rd.wallS, rd.loadS, rd.buildS,
                     rd.runS, rd.emitS);
        for (std::size_t i = 0; i < n; ++i)
            std::fprintf(out, "%s%.9g", i ? ", " : "",
                         rd.times[i].totalS);
        std::fprintf(out, "], \"point_run_s\": [");
        for (std::size_t i = 0; i < n; ++i)
            std::fprintf(out, "%s%.9g", i ? ", " : "", rd.times[i].runS);
        std::fprintf(out, "]}");
    }
    std::fprintf(out,
                 "], \"setup_s\": %.9g, \"peak_rss_mb\": %.9g, "
                 "\"cross_checked\": %zu, ",
                 setup_s, peak_rss_mb, std::min(cross, n));
    std::fprintf(
        out,
        "\"counts\": {\"sim.cycles\": %llu, \"sim.jumped_cycles\": %llu, "
        "\"sim.event_jumps\": %llu, \"noc.flit_traversals\": %llu, "
        "\"noc.router_active_cycles\": %llu, "
        "\"mem.dram_accesses\": %llu, \"mem.queue_rejects\": %llu, "
        "\"llc.accesses\": %llu, \"llc.transitions\": %llu, "
        "\"llc.reconfig_stall_cycles\": %llu, "
        "\"gpu.warp_instrs\": %llu, "
        "\"workloads.requests_completed\": %llu}",
        (unsigned long long)cycles, (unsigned long long)jumped,
        (unsigned long long)jumps, (unsigned long long)flits,
        (unsigned long long)router_active, (unsigned long long)dram,
        (unsigned long long)rejects, (unsigned long long)llc,
        (unsigned long long)transitions, (unsigned long long)stall,
        (unsigned long long)instrs, (unsigned long long)requests);
    if (have_fig11)
        std::fprintf(out,
                     ", \"fig11\": {\"adaptive_pf\": %.17g, "
                     "\"private_sf\": %.17g, \"private_neutral\": %.17g, "
                     "\"gap\": %.17g}",
                     fig.adaptivePf, fig.privateSf, fig.privateN, fig.gap);
    std::fprintf(out, "}\n");
    return 0;
}

// ---- selftest: every check fires on a doctored result --------------

int selftestFailures = 0;

void
expect(bool ok, const char *what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok)
        ++selftestFailures;
}

bool
pointFails(const SimConfig &cfg, const RunResult &r,
           bool all_requests = false)
{
    return !checkPoint(cfg, r, all_requests).empty();
}

int
cmdSelftest(char **argv)
{
    // A static grid with one point per llc_policy.
    const std::vector<ExpandedPoint> st = Scenario::load(argv[2]).expand();
    std::vector<RunResult> sr;
    for (const ExpandedPoint &ep : st)
        sr.push_back(SweepRunner::runPoint(ep.point));
    for (std::size_t i = 0; i < st.size(); ++i)
        expect(!pointFails(st[i].point.cfg, sr[i]),
               ("genuine result passes: " + st[i].point.label).c_str());

    for (std::size_t i = 0; i < st.size(); ++i) {
        const SimConfig &cfg = st[i].point.cfg;
        RunResult d = sr[i];
        d.llcCtrl.cyclesShared += 1;
        expect(pointFails(cfg, d), "llc mode cycles not conserved");
        if (cfg.llcPolicy == LlcPolicy::ForceShared) {
            d = sr[i];
            d.llcCtrl.transitionsToPrivate = 1;
            expect(pointFails(cfg, d), "forced shared transitions");
            d = sr[i];
            d.llcCtrl.cyclesPrivate += 1;
            d.llcCtrl.cyclesShared -= 1;
            expect(pointFails(cfg, d), "forced shared private cycles");
        }
        if (cfg.llcPolicy == LlcPolicy::ForcePrivate) {
            d = sr[i];
            d.llcCtrl.transitionsToShared = 1;
            expect(pointFails(cfg, d), "forced private transitions");
            d = sr[i];
            d.llcCtrl.cyclesShared += 1;
            d.llcCtrl.cyclesPrivate -= 1;
            expect(pointFails(cfg, d), "forced private shared cycles");
        }
        if (!sr[i].nocActivity.routers.empty()) {
            d = sr[i];
            RouterActivity &a = d.nocActivity.routers[0];
            a.bufferReads = a.bufferWrites + 1;
            expect(pointFails(cfg, d), "router reads exceed writes");
            d = sr[i];
            RouterActivity &b = d.nocActivity.routers[0];
            b.bufferWrites = b.bufferReads +
                static_cast<std::uint64_t>(b.numInPorts) * b.numVcs *
                    b.vcDepthFlits +
                1;
            expect(pointFails(cfg, d), "router buffer overflow");
        }
        d = sr[i];
        d.dramRefreshes =
            cfg.numMcs * (d.cycles / cfg.dramTimings.tREFI) + 1;
        expect(pointFails(cfg, d), "too many dram refreshes");

        SweepPoint other = st[i].point;
        other.cfg.simMode = other.cfg.simMode == SimMode::Tick
            ? SimMode::Event
            : SimMode::Tick;
        const RunResult o = SweepRunner::runPoint(other);
        expect(identicalResults(o, sr[i]), "other driver agrees");
        d = sr[i];
        d.dramWriteDrains += 1;
        expect(!identicalResults(o, d),
               "other driver disagrees with a doctored result");
        expect(resultDigest(d) != resultDigest(sr[i]),
               "digest changes with a doctored result");
    }

    // A serving grid on which every request completes.
    const std::vector<ExpandedPoint> sv = Scenario::load(argv[3]).expand();
    for (const ExpandedPoint &ep : sv) {
        const SimConfig &cfg = ep.point.cfg;
        const RunResult r = SweepRunner::runPoint(ep.point);
        expect(!pointFails(cfg, r, true), "genuine serving point passes");
        RunResult d = r;
        d.requestsCompleted = cfg.servingRequests + 1;
        expect(pointFails(cfg, d), "more requests than admitted");
        d = r;
        d.requestsCompleted -= 1;
        expect(pointFails(cfg, d, true), "unfinished request");
        d = r;
        d.reqLatencyP50 = d.reqLatencyP99 + 1.0;
        expect(pointFails(cfg, d), "p50 > p99");
        d = r;
        d.batchOccupancy = 0.5;
        expect(pointFails(cfg, d), "batch occupancy below 1");
        d = r;
        d.batchOccupancy = cfg.servingBatch + 1.0;
        expect(pointFails(cfg, d), "batch occupancy above batch");
    }

    std::printf("%s\n", selftestFailures ? "selftest FAILED"
                                         : "selftest passed");
    return selftestFailures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string cmd = argc > 1 ? argv[1] : "";
    try {
        if (cmd == "run" && argc >= 3)
            return cmdRun(argc, argv);
        if (cmd == "selftest" && argc >= 4)
            return cmdSelftest(argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "simbench_driver: %s\n", e.what());
        return 2;
    }
    std::fprintf(stderr,
                 "usage: simbench_driver run <scn> [--seconds=S] "
                 "[--min-rounds=R] [--t0-ns=N] [--csv=FILE] "
                 "[--digests=FILE] [--cross=K] "
                 "[--seed=N] [--fig11=<scn>|self] [--all-requests]\n"
                 "       simbench_driver selftest <static.scn> "
                 "<serving.scn>\n");
    return 2;
}
