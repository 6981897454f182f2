/**
 * @file
 * The repository benchmark: one process runs one named workload for a
 * fixed wall-clock budget, checks the simulator's outputs and prints its
 * metrics as one JSON line. See perfbench/README.md for the workloads,
 * the metrics and which layer each metric belongs to.
 *
 *   perfbench --workload suite_sweep|wide_sharded|observed --seed N
 *             --seconds S --trace 0|1 --workdir DIR --expected FILE
 *
 * With --trace 0 it reports the end-to-end metrics; with --trace 1 it
 * runs the same timed phase with benchmark-side spans (perfbench/spans.hh)
 * around the calls into each layer and reports the per-layer metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/version.hh"
#include "exp/checkpoint.hh"
#include "exp/job_key.hh"
#include "exp/report.hh"
#include "exp/sweep_request.hh"
#include "isa/kernel_builder.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "power/energy_accountant.hh"
#include "regfile/factory.hh"
#include "regfile/register_file.hh"
#include "sim/gpu.hh"
#include "svc/sweep_service.hh"
#include "workloads/workloads.hh"

#include "spans.hh"

using namespace pilotrf;
using perfbench::Clock;
using perfbench::Scope;
using perfbench::secondsBetween;
using perfbench::Spans;

namespace
{

namespace fs = std::filesystem;

/** The seed the expected digests in expected.json were recorded at. */
constexpr std::uint64_t kDefaultSeed = 0;

/** Paper headline RF energy savings, percent (Fig. 11 and Sec. 6). */
constexpr double kPaperDynSaving = 54.1;
constexpr double kPaperLeakSaving = 39.1;

/**
 * Runner threads of the in-process sweep service. Two, not one per CPU:
 * on the 4-vCPU VM the benchmark was tuned on, a fixed loop on 4 threads
 * at once ran at times 4x slower per thread than on 1, while on 2 threads
 * it kept full speed, and the guest counted the lost time as CPU time.
 * With 4 runner threads, cold requests of one run drifted from 2.8 s to
 * 5.0 s of wall time and from 11 to 20 CPU seconds.
 */
constexpr unsigned kServiceThreads = 2;

/**
 * Engine workers of the wide_sharded / observed GPUs. Two, not one per
 * CPU: on a 4-vCPU VM whose host was oversubscribed, 4 workers raised the
 * VM's steal time to 15-20% and single runs to 2-3x the quiet-host time,
 * because every epoch barrier waits for the slowest vCPU. Two workers
 * still run the sharded engine's barriers, L2 replay and dynamic shard
 * scheduling, with half the exposure.
 */
constexpr unsigned kEngineWorkers = 2;

/** Set-up repetitions whose median is setup_s. */
constexpr unsigned kSetupSamples = 15;

/** Minimum warm requests of suite_sweep: p90 needs ten beyond it. */
constexpr unsigned kMinWarmRequests = 100;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir = ".bench_build/perfbench-work";
    std::string expected = "perfbench/expected.json";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload suite_sweep|wide_sharded|"
                 "observed --seed N --seconds S --trace 0|1 "
                 "[--workdir DIR] [--expected FILE]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + k);
        const std::string v = argv[++i];
        try {
            if (k == "--workload")
                a.workload = v;
            else if (k == "--seed")
                a.seed = std::stoull(v);
            else if (k == "--seconds")
                a.seconds = std::stod(v);
            else if (k == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (k == "--workdir")
                a.workdir = v;
            else if (k == "--expected")
                a.expected = v;
            else
                usage("unknown option " + k);
        } catch (const std::logic_error &) {
            usage("bad value for " + k + ": " + v);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

// ---------------------------------------------------------------------
// Small statistics and output helpers.

/** Linear-interpolated quantile of unsorted samples (q in [0, 1]). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** "label: v1 v2 ..." with 3 significant digits, for the notes. */
std::string
listing(const std::string &label, const std::vector<double> &v)
{
    std::ostringstream os;
    os << label << ":" << std::setprecision(3);
    for (const double x : v)
        os << " " << x;
    return os.str();
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** FNV-1a over bytes, as 16 hex digits: the output digests. */
std::string
digest(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)h);
    return buf;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

/**
 * User plus system CPU seconds of every thread of this process, the base
 * of norm_cpu_s and setup_s. On a VM whose host is oversubscribed, a
 * descheduled vCPU stretches wall time but not the CPU time the guest
 * accounts to the process; with two engine workers meeting at epoch
 * barriers, observed's wall time per repetition spread 0.33 over six
 * seeds where its CPU time spread 0.055. Wall time is still reported:
 * wall.run_s, wall.setup_s and the notes.
 */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &t) {
        return double(t.tv_sec) + 1e-6 * double(t.tv_usec);
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/** About the CPU seconds of referenceCpuSeconds() on the 4-vCPU VM the
 *  benchmark was tuned on: the speed CPU times are scaled to. */
constexpr double kReferenceS = 0.085;

/**
 * CPU seconds of a fixed integer loop that shares no code with the
 * simulator: 800 FNV passes over a 256 KiB buffer. The host's speed per
 * CPU second drifts: over a few minutes the same cold request took 11 and
 * 20 CPU seconds, and this loop moved with it. Each timed repetition and
 * set-up sample runs the loop first and is scaled by kReferenceS / its
 * CPU time, so norm_cpu_s and setup_s read as CPU seconds at one fixed
 * host speed. Over ten observed runs that cut the spread of the median
 * from 0.080 to 0.036. A change to the simulator cannot move the loop.
 */
double
referenceCpuSeconds()
{
    static std::vector<std::uint32_t> buf(1 << 16, 1);
    const double c0 = cpuSeconds();
    std::uint64_t h = 1469598103934665603ull;
    for (int pass = 0; pass < 800; ++pass)
        for (std::size_t i = 0; i < buf.size(); ++i) {
            h = (h ^ (buf[i] + i)) * 1099511628211ull;
            buf[i] = std::uint32_t(h >> 17);
        }
    return cpuSeconds() - c0;
}

/** The factor that scales CPU seconds measured now to kReferenceS
 *  speed; the loop's own CPU time goes to *refS. */
double
hostScale(std::vector<double> &refS)
{
    refS.push_back(referenceCpuSeconds());
    return kReferenceS / refS.back();
}

/** Metrics, output checks and the final JSON line. */
class Result
{
  public:
    void metric(const std::string &name, double value, const char *unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Count one output check; a failure is reported on stderr. */
    void check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
        }
    }

    /** Count n attempted operations (cells, requests, runs), nFailed of
     *  which failed. */
    void attempts(std::uint64_t n, std::uint64_t nFailed)
    {
        attempted += n;
        failed += nFailed;
    }

    void note(const std::string &line) { notes.push_back(line); }

    void print() const
    {
        for (const auto &n : notes)
            std::cout << "# " << n << "\n";
        std::cout << "# error_rate " << std::setprecision(6)
                  << ratio(double(failed), double(attempted)) << " ("
                  << failed << " of " << attempted
                  << " operations and checks failed)\n";
        for (const auto &m : metrics)
            std::cout << "# " << std::left << std::setw(34) << m.name << " "
                      << std::setprecision(6) << m.value << " " << m.unit
                      << "\n";
        std::ostringstream js;
        js << "{\"correct\": " << (failed == 0 ? "true" : "false")
           << ", \"attempted\": " << attempted << ", \"failed\": " << failed
           << ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            const auto &m = metrics[i];
            char num[64];
            std::snprintf(num, sizeof num, "%.17g",
                          std::isfinite(m.value) ? m.value : 0.0);
            js << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
               << num << ", \"unit\": \"" << m.unit << "\"}";
        }
        js << "}}";
        std::cout << js.str() << std::endl;
    }

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;
    std::vector<std::string> notes;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Expected default-seed digests and values kept with the benchmark. */
class Expected
{
  public:
    explicit Expected(const std::string &path)
    {
        const std::string text = readFile(path);
        std::string err;
        if (text.empty() || !jsonParse(text, doc, &err) || !doc.isObject())
            throw std::runtime_error("cannot read expected values from '" +
                                     path + "' " + err);
    }

    std::string str(const std::string &workload, const std::string &key) const
    {
        const JsonValue *w = doc.find(workload);
        return w ? w->stringOr(key, "") : "";
    }

    double num(const std::string &workload, const std::string &key) const
    {
        const JsonValue *w = doc.find(workload);
        return w ? w->numberOr(key, std::nan("")) : std::nan("");
    }

  private:
    JsonValue doc;
};

/** Same value to within floating-point reassociation noise. */
bool
sameValue(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

/** Canonical stat dump of a run: merged rf.* and sim.* plus cycles. */
std::string
statText(const sim::RunResult &r)
{
    StatSet s;
    s.merge(r.rfStats.withPrefix("rf."));
    s.merge(r.simStats.withPrefix("sim."));
    std::ostringstream os;
    os << r.label << " cycles=" << r.totalCycles
       << " insts=" << r.totalInstructions << "\n";
    s.toJson(os);
    return os.str();
}

/** Simulated active SM-cycles times warps per SM. */
double
warpCycles(const StatSet &simStats, const sim::SimConfig &cfg)
{
    return simStats.get("cycles.active") * double(cfg.warpsPerSm);
}

class Layers;

/** SM-frontend and memory counts of merged sim.* stats. */
struct SimCounts
{
    double issued = 0, issueSlots = 0, readGrants = 0, readConflicts = 0;
    double l1Hits = 0, l1Misses = 0, l2Hits = 0, l2Misses = 0;
    double transactions = 0, rfReads = 0, rfWrites = 0, frf = 0;
    double byMode = 0; ///< accesses counted per array (FRF/SRF/MRF)

    void add(const StatSet &sim, const StatSet &rf)
    {
        issued += sim.get("instructions.issued");
        issueSlots += sim.get("issueSlots.total");
        readGrants += sim.get("banks.readGrants");
        readConflicts += sim.get("banks.readConflicts");
        l1Hits += sim.get("l1.hits");
        l1Misses += sim.get("l1.misses");
        l2Hits += sim.get("l2.hits");
        l2Misses += sim.get("l2.misses");
        transactions += sim.get("mem.transactions");
        rfReads += rf.get("access.reads");
        rfWrites += rf.get("access.writes");
        frf += rf.get("access.FRF_high") + rf.get("access.FRF_low");
        byMode += rf.get("access.FRF_high") + rf.get("access.FRF_low") +
                  rf.get("access.SRF") + rf.get("access.MRF@STV") +
                  rf.get("access.MRF@NTV");
    }

    void report(Layers &out) const;
};

/** The per-layer metrics, in output order. Every workload reports the
 *  whole list; a layer the workload does not exercise reads 0. */
const std::vector<std::pair<std::string, const char *>> &
perLayerNames()
{
    static const std::vector<std::pair<std::string, const char *>> names = {
        {"workloads.build_ms", "ms"},
        {"sim.gpu_ctor_ms", "ms"},
        {"svc.open_ms", "ms"},
        {"sim.sm.host_ns_per_inst", "ns"},
        {"sim.sm.stepped_sm_cycles", "count"},
        {"sim.sm.useful_step_ratio", "ratio"},
        {"sim.sm.issue_util", "ratio"},
        {"sim.sm.bank_conflict_ratio", "ratio"},
        {"regfile.access_ns.mrf_stv", "ns"},
        {"regfile.access_ns.partitioned", "ns"},
        {"regfile.access_ns.part_adaptive", "ns"},
        {"regfile.access_ns.mrf_ntv", "ns"},
        {"regfile.accesses", "count"},
        {"regfile.frf_share", "ratio"},
        {"sim.engine.busy_s", "s"},
        {"sim.engine.idle_s", "s"},
        {"sim.engine.steal_s", "s"},
        {"sim.engine.serial_s", "s"},
        {"sim.engine.straggler_mean", "ratio"},
        {"sim.engine.straggler_max", "ratio"},
        {"sim.engine.epochs", "count"},
        {"sim.engine.ff_frac", "ratio"},
        {"sim.engine.global_skip_frac", "ratio"},
        {"sim.mem.l1_miss_ratio", "ratio"},
        {"sim.mem.l2_hit_ratio", "ratio"},
        {"sim.mem.transactions", "count"},
        {"power.account_us", "us"},
        {"exp.cell_s_p50", "s"},
        {"exp.cell_s_p85", "s"},
        {"exp.report_ms", "ms"},
        {"exp.runner_overhead_s", "s"},
        {"svc.store_get_us", "us"},
        {"svc.store_put_us", "us"},
        {"svc.store_bytes", "bytes"},
        {"svc.cache_hits", "count"},
        {"svc.simulated", "count"},
        {"svc.hit_ratio", "ratio"},
        {"svc.warm_request_ms_p50", "ms"},
        {"svc.warm_request_ms_p90", "ms"},
        {"accuracy.dyn_saving_err_pp", "pp"},
        {"accuracy.leak_saving_err_pp", "pp"},
        {"accuracy.heldout_dyn_saving_err_pp", "pp"},
        {"accuracy.heldout_leak_saving_err_pp", "pp"},
        {"obs.samples", "count"},
        {"obs.dropped_samples", "count"},
        {"obs.ts_bytes", "bytes"},
        {"obs.trace_bytes", "bytes"},
        {"obs.write_ts_s", "s"},
        {"obs.run_overhead_x", "ratio"},
        {"host.ref_loop_ms", "ms"},
        {"wall.setup_s", "s"},
        {"wall.run_s", "s"},
        {"trace.overhead_x", "ratio"},
        {"trace.run_s", "s"},
        {"trace.unattributed_s", "s"},
        {"span.svc.run.self_s", "s"},
        {"span.exp.cell.self_s", "s"},
        {"span.exp.toJsonString.self_s", "s"},
        {"span.sim.gpu_run.self_s", "s"},
        {"span.obs.trace_sink.self_s", "s"},
        {"span.obs.write_ts.self_s", "s"},
        {"span.obs.trace_close.self_s", "s"},
    };
    return names;
}

/** Collects a workload's per-layer values by name and emits the whole
 *  fixed list, 0 for layers the workload does not exercise. */
class Layers
{
  public:
    void set(const std::string &name, double v) { values[name] = v; }

    void emit(Result &out) const
    {
        for (const auto &[name, unit] : perLayerNames()) {
            const auto it = values.find(name);
            out.metric(name, it == values.end() ? 0.0 : it->second, unit);
        }
    }

    /** Span self times (per timed repetition) and the remainder of the
     *  traced run_s they do not cover. */
    void spanTimes(const Spans &spans, double tracedRunTotal, unsigned reps,
                   const std::vector<std::string> &timedNames)
    {
        const auto self = spans.selfSeconds();
        double covered = 0.0;
        for (const auto &name : timedNames) {
            const auto it = self.find(name);
            const double v = it == self.end() ? 0.0 : it->second / reps;
            set("span." + name + ".self_s", v);
            covered += v;
        }
        set("trace.run_s", tracedRunTotal / reps);
        set("trace.unattributed_s", tracedRunTotal / reps - covered);
    }

  private:
    std::map<std::string, double> values;
};

void
SimCounts::report(Layers &out) const
{
    out.set("sim.sm.issue_util", ratio(issued, issueSlots));
    out.set("sim.sm.bank_conflict_ratio",
            ratio(readConflicts, readGrants + readConflicts));
    out.set("regfile.accesses", rfReads + rfWrites);
    out.set("regfile.frf_share", ratio(frf, byMode));
    out.set("sim.mem.l1_miss_ratio", ratio(l1Misses, l1Hits + l1Misses));
    out.set("sim.mem.l2_hit_ratio", ratio(l2Hits, l2Hits + l2Misses));
    out.set("sim.mem.transactions", transactions);
}

/** Write the recorded spans next to the workdir for inspection. */
void
dumpSpans(const Spans &spans, const Args &args)
{
    std::ofstream os(fs::path(args.workdir) /
                     ("spans." + args.workload + ".json"));
    spans.writeChromeTrace(os);
}

// ---------------------------------------------------------------------
// suite_sweep: the fig11 request through an in-process SweepService.

exp::SweepRequest
fig11Request(std::uint64_t seed, std::vector<std::string> workloads = {})
{
    exp::SweepRequest r;
    r.sweep = "fig11";
    r.workloads = std::move(workloads);
    r.baseSeed = seed;
    r.includeTiming = false; // reports are byte-comparable
    return r;
}

/** Fig. 11 savings, percent, from a fig11 sweep (configs in order
 *  mrf_stv, partitioned, part_adaptive, mrf_ntv) at one seed index. */
std::pair<double, double>
savings(const exp::SweepResult &res, std::size_t seedIdx)
{
    double sum = 0.0;
    for (std::size_t w = 0; w < res.workloadCount; ++w)
        sum += res.at(w, 2, seedIdx).energy.dynamicPj /
               res.at(w, 0, seedIdx).energy.dynamicPj;
    const double dyn = 100.0 * (1.0 - sum / double(res.workloadCount));
    const double leak =
        100.0 * (1.0 - res.at(0, 2, seedIdx).energy.leakagePowerMw /
                           res.at(0, 0, seedIdx).energy.leakagePowerMw);
    return {dyn, leak};
}

/** Replay the operand stream of every fig11 kernel's static code through
 *  a fresh RF backend per config; ns per access() call. */
std::map<std::string, double>
regfileProbe(const exp::Sweep &sweep)
{
    std::map<std::string, double> out;
    for (const auto &cv : sweep.configs) {
        std::uint64_t calls = 0;
        double secs = 0.0;
        for (const auto &w : workloads::allWorkloads()) {
            for (const auto &k : w.kernels) {
                auto rf = regfile::makeRegisterFile(cv.cfg);
                rf->kernelLaunch(k);
                const unsigned warps =
                    std::min(cv.cfg.warpsPerSm, 2 * k.warpsPerCta());
                for (WarpId wid = 0; wid < warps; ++wid)
                    rf->warpStarted(wid, 0);
                const auto t0 = Clock::now();
                for (const auto &ins : k.code())
                    for (WarpId wid = 0; wid < warps; ++wid) {
                        for (unsigned s = 0; s < ins.numSrcs; ++s)
                            rf->access(wid, ins.srcs[s], false);
                        for (unsigned d = 0; d < ins.numDsts; ++d)
                            rf->access(wid, ins.dsts[d], true);
                        calls += ins.numSrcs + ins.numDsts;
                    }
                secs += secondsBetween(t0, Clock::now());
            }
        }
        out[cv.label] = ratio(secs * 1e9, double(calls));
    }
    return out;
}

void
runSuiteSweep(const Args &args, const Expected &expected, Result &out)
{
    Spans spans(args.trace);
    Spans untraced(false);
    Layers layers;
    const fs::path dir(args.workdir);

    // Set-up: the Table-I workload registry is built once per process;
    // the service open and the warm-up request are repeated.
    std::vector<double> refS;
    const double buildScale = hostScale(refS);
    const auto tb = Clock::now();
    const double cb = cpuSeconds();
    const std::size_t nWorkloads = workloads::allWorkloads().size();
    const double buildCpuS = (cpuSeconds() - cb) * buildScale;
    const double buildS = secondsBetween(tb, Clock::now());
    layers.set("workloads.build_ms", buildS * 1e3);

    const exp::SweepRequest request = fig11Request(args.seed);
    const exp::SweepRequest warmup =
        fig11Request(args.seed, {"WP", "LIB", "CP"});
    const auto storePath = [&](unsigned i) {
        return (dir / ("store." + std::to_string(i) + ".jsonl")).string();
    };
    const auto openService = [&](unsigned i) {
        fs::remove(storePath(i));
        svc::ServiceOptions o;
        o.storePath = storePath(i);
        o.threads = kServiceThreads;
        return std::make_unique<svc::SweepService>(std::move(o));
    };

    std::vector<double> setupSamples, setupCpu, openMs;
    for (unsigned i = 0; i < kSetupSamples; ++i) {
        const double scale = hostScale(refS);
        const auto t0 = Clock::now();
        const double c0 = cpuSeconds();
        auto service = openService(100 + i);
        openMs.push_back(secondsBetween(t0, Clock::now()) * 1e3);
        svc::RequestStats st;
        service->report(warmup, {}, &st);
        out.attempts(st.jobs, st.failed + st.timeout);
        setupSamples.push_back(secondsBetween(t0, Clock::now()));
        setupCpu.push_back((cpuSeconds() - c0) * scale);
        service.reset();
        fs::remove(storePath(100 + i));
    }
    layers.set("svc.open_ms", median(openMs));

    // Per-cell spans of a traced request: the job hook marks a cell's
    // start on its runner thread, the status line its end (after the
    // store put).
    std::mutex cellMu;
    std::map<std::string, Clock::time_point> cellStart;
    std::vector<std::pair<Clock::time_point, Clock::time_point>> cells;
    const auto cellName = [](const std::string &w, const std::string &c) {
        return w + "|" + c;
    };
    const exp::JobHook markStart = [&](const exp::Job &job, unsigned,
                                       const std::atomic<bool> &) {
        const auto now = Clock::now();
        std::lock_guard<std::mutex> lock(cellMu);
        cellStart[cellName(job.workload, job.configLabel)] = now;
    };
    const svc::SweepService::StatusFn status = [&](const std::string &line) {
        const auto now = Clock::now();
        JsonValue v;
        if (!jsonParse(line, v) || v.stringOr("type", "") != "job" ||
            v.stringOr("source", "") != "run")
            return;
        std::lock_guard<std::mutex> lock(cellMu);
        const auto it = cellStart.find(
            cellName(v.stringOr("workload", ""), v.stringOr("config", "")));
        if (it != cellStart.end())
            cells.push_back({it->second, now});
    };

    // Timed phase 1: cold requests, each on a fresh service and store.
    // In a traced run, reps alternate untraced / traced so the tracing
    // overhead is measured in-process.
    std::vector<double> coldUntraced, coldTraced, coldCpu, coldNorm,
        reportMs, overheadS;
    std::vector<double> cellSeconds;
    std::string coldReport;
    exp::SweepResult coldResult;
    std::unique_ptr<svc::SweepService> service;
    std::uintmax_t storeBytes = 0;
    const double coldBudget = 0.85 * args.seconds;
    double timed = 0.0;
    for (unsigned rep = 0;
         timed < coldBudget || (args.trace && coldTraced.empty()); ++rep) {
        const bool traced = args.trace && (rep % 2 == 1);
        service = openService(rep % 2);
        cells.clear();
        cellStart.clear();
        const double scale = hostScale(refS);
        const auto t0 = Clock::now();
        const double c0 = cpuSeconds();
        int root = -1;
        exp::SweepResult res;
        svc::RequestStats st;
        Spans &sp = traced ? spans : untraced;
        if (traced)
            exp::setJobHook(markStart);
        {
            Scope s(sp, "svc.run", -1, kServiceThreads);
            root = s.get();
            res = service->run(request, traced ? status : nullptr, &st);
        }
        exp::clearJobHook();
        const auto tr = Clock::now();
        std::string report;
        {
            Scope s(sp, "exp.toJsonString");
            report = exp::toJsonString(res, request.reportOptions());
        }
        const auto t1 = Clock::now();
        const double cpu = cpuSeconds() - c0;
        const double wall = secondsBetween(t0, t1);
        timed += wall;
        (traced ? coldTraced : coldUntraced).push_back(wall);
        if (!traced) {
            coldCpu.push_back(cpu);
            coldNorm.push_back(cpu * scale);
        }
        out.attempts(st.jobs, st.failed + st.timeout);
        out.check(st.simulated == st.jobs,
                  "every cold cell is simulated, none served from cache");
        if (coldReport.empty()) {
            coldReport = report;
            coldResult = std::move(res);
        } else {
            out.check(report == coldReport,
                      "cold reports are identical across repetitions");
        }
        if (traced) {
            reportMs.push_back(secondsBetween(tr, t1) * 1e3);
            double cellSum = 0.0;
            for (const auto &[a, b] : cells) {
                spans.add("exp.cell", root, a, b);
                cellSeconds.push_back(secondsBetween(a, b));
                cellSum += secondsBetween(a, b);
            }
            overheadS.push_back(secondsBetween(t0, tr) -
                                cellSum / kServiceThreads);
        }
        if (traced)
            storeBytes = fs::file_size(storePath(rep % 2));
    }

    const std::size_t jobs = coldResult.jobs.size();
    out.check(jobs == nWorkloads * 4, "fig11 is 17 workloads x 4 configs");
    double wc = 0.0;
    SimCounts counts;
    for (const auto &j : coldResult.jobs) {
        wc += warpCycles(j.run.simStats, j.job.cfg);
        counts.add(j.run.simStats, j.run.rfStats);
    }

    // Output checks on the cold result: the report digest at the
    // default seed; at every seed, the stats digest (seed axis 0 runs
    // the kernels' baked-in seeds, so the stats do not depend on the
    // request's base seed) and the headline savings.
    std::ostringstream statsOs;
    coldResult.mergedStats().toJson(statsOs);
    const std::string statsDigest = digest(statsOs.str());
    const std::string reportDigest = digest(coldReport);
    out.note("suite_sweep report digest " + reportDigest +
             ", stats digest " + statsDigest);
    if (args.seed == kDefaultSeed)
        out.check(reportDigest == expected.str("suite_sweep", "report"),
                  "suite_sweep report digest matches expected.json");
    out.check(statsDigest == expected.str("suite_sweep", "stats"),
              "suite_sweep stats digest matches expected.json");
    const auto [dyn, leak] = savings(coldResult, 0);
    {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "simulated savings: dynamic %.17g%%, leakage %.17g%% "
                      "(paper %.1f / %.1f)",
                      dyn, leak, kPaperDynSaving, kPaperLeakSaving);
        out.note(buf);
    }
    out.check(sameValue(dyn, expected.num("suite_sweep", "dyn_saving_pct")),
              "dynamic RF energy saving matches expected.json");
    out.check(sameValue(leak, expected.num("suite_sweep", "leak_saving_pct")),
              "leakage saving matches expected.json");
    layers.set("accuracy.dyn_saving_err_pp",
               std::fabs(dyn - kPaperDynSaving));
    layers.set("accuracy.leak_saving_err_pp",
               std::fabs(leak - kPaperLeakSaving));

    // Timed phase 2: one closed-loop client sends identical warm
    // requests to the service of the last cold rep (every cell cached).
    std::vector<double> warmMs;
    svc::RequestStats warmStats;
    const auto tw = Clock::now();
    while (warmMs.size() < kMinWarmRequests ||
           timed + secondsBetween(tw, Clock::now()) < args.seconds) {
        const auto t0 = Clock::now();
        svc::RequestStats st;
        const std::string report = service->report(request, {}, &st);
        warmMs.push_back(secondsBetween(t0, Clock::now()) * 1e3);
        out.attempts(st.jobs, st.failed + st.timeout);
        out.check(report == coldReport && st.cacheHits == st.jobs,
                  "warm response is byte-identical to the cold report");
        warmStats.cacheHits += st.cacheHits;
        warmStats.jobs += st.jobs;
    }
    layers.set("svc.warm_request_ms_p50", quantile(warmMs, 0.5));
    layers.set("svc.warm_request_ms_p90", quantile(warmMs, 0.9));

    if (!args.trace) {
        const double cpuS = median(coldNorm);
        out.metric("setup_s", buildCpuS + median(setupCpu), "s");
        out.metric("norm_cpu_s", cpuS, "s");
        out.metric("warp_cycles_per_norm_cpu_s", wc / cpuS, "1/s");
        out.metric("peak_rss_mb", peakRssMb(), "MB");
        out.note(listing("CPU s of each cold request", coldCpu));
        out.note(listing("reference loop CPU s", refS));
        out.note(listing("wall s of each cold request", coldUntraced));
        out.note(listing("wall set-up s", setupSamples));
        out.note("warm requests " + std::to_string(warmMs.size()));
        // User-facing numbers of this workload alone; BENCHMARK.json
        // carries them as per-layer metrics (see README.md).
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "warm_request_ms_p50 %.6g ms, warm_request_ms_p90 "
                      "%.6g ms, dyn_saving_err_pp %.6g pp, "
                      "leak_saving_err_pp %.6g pp",
                      quantile(warmMs, 0.5), quantile(warmMs, 0.9),
                      std::fabs(dyn - kPaperDynSaving),
                      std::fabs(leak - kPaperLeakSaving));
        out.note(buf);
        return;
    }

    // Traced-only layers. The warm request decomposed into the calls
    // the service makes, each timed: store get, rebuild (energy
    // recomputation included), render. Its output must equal the
    // service's own warm response.
    const exp::Sweep sweep = request.toSweep();
    const std::vector<exp::Job> expanded = exp::ExperimentRunner::expand(sweep);
    power::EnergyAccountant accountant;
    std::vector<double> getUs, accountUs;
    exp::SweepResult manual;
    manual.sweep = sweep.name;
    manual.threads = kServiceThreads;
    manual.workloadCount = sweep.workloads.size();
    manual.configCount = sweep.configs.size();
    manual.seedCount = sweep.seeds.size();
    for (const auto &job : expanded) {
        const std::string key = exp::checkpointKey(job);
        const auto t0 = Clock::now();
        auto entry = service->store().get(key);
        getUs.push_back(secondsBetween(t0, Clock::now()) * 1e6);
        if (!entry) {
            out.check(false, "warm store holds every cold cell");
            continue;
        }
        manual.jobs.push_back(exp::rebuildJobResult(*entry, job, accountant));
        const auto &r = manual.jobs.back();
        const auto ta = Clock::now();
        accountant.account(job.cfg, r.run.rfStats, r.run.totalCycles);
        accountUs.push_back(secondsBetween(ta, Clock::now()) * 1e6);
    }
    out.check(exp::toJsonString(manual, request.reportOptions()) ==
                  coldReport,
              "store get + rebuild + render reproduces the cold report");
    layers.set("svc.store_get_us", median(getUs));
    layers.set("power.account_us", median(accountUs));

    // Store put: the cold results into a scratch file-backed store.
    {
        const std::string path = storePath(7);
        fs::remove(path);
        svc::ResultStore store(path, versionString());
        std::vector<double> putUs;
        for (const auto &j : coldResult.jobs) {
            const auto t0 = Clock::now();
            store.put(exp::checkpointKey(j.job), j);
            putUs.push_back(secondsBetween(t0, Clock::now()) * 1e6);
        }
        layers.set("svc.store_put_us", median(putUs));
        fs::remove(path);
    }
    layers.set("svc.store_bytes", double(storeBytes));
    layers.set("svc.cache_hits", double(warmStats.cacheHits));
    layers.set("svc.simulated", double(jobs));
    layers.set("svc.hit_ratio",
               ratio(double(warmStats.cacheHits), double(warmStats.jobs)));
    layers.set("exp.cell_s_p50", quantile(cellSeconds, 0.5));
    layers.set("exp.cell_s_p85", quantile(cellSeconds, 0.85));
    layers.set("exp.report_ms", median(reportMs));
    layers.set("exp.runner_overhead_s", median(overheadS));

    // Held-out seed: the fig11 cells at seed-axis value 1 under this base
    // seed (the inputs a seeds=2 request's second replicate runs, never
    // used to tune the synthetic kernels), driven directly on sim::Gpu
    // so the cell also splits into constructor / run / energy account.
    std::vector<double> ctorMs;
    std::string heldError;
    double heldRunS = 0.0, heldIssued = 0.0;
    double heldSmCycles = 0.0, heldFf = 0.0, heldSkipped = 0.0,
           heldCycles = 0.0;
    exp::SweepResult held;
    held.workloadCount = sweep.workloads.size();
    held.configCount = sweep.configs.size();
    held.seedCount = 1;
    held.jobs.resize(expanded.size());
    std::mutex mu;
    const auto runCell = [&](std::size_t n) {
        const exp::Job &job = expanded[n];
        const auto &w = workloads::workload(job.workload);
        const std::uint64_t jobSeed =
            exp::deriveJobSeed(args.seed, job.workload, job.configLabel, 1);
        std::vector<isa::Kernel> kernels;
        for (const auto &k : w.kernels)
            kernels.emplace_back(k.name(), k.regsPerThread(),
                                 k.threadsPerCta(), k.numCtas(), k.code(),
                                 hashCombine(k.seed(), jobSeed));
        const auto t0 = Clock::now();
        sim::Gpu gpu(job.cfg);
        const auto t1 = Clock::now();
        exp::JobResult jr;
        jr.job = job;
        jr.run = gpu.run({w.name, kernels});
        const auto t2 = Clock::now();
        jr.energy =
            accountant.account(job.cfg, jr.run.rfStats, jr.run.totalCycles);
        std::lock_guard<std::mutex> lock(mu);
        ctorMs.push_back(secondsBetween(t0, t1) * 1e3);
        heldRunS += secondsBetween(t1, t2);
        heldIssued += jr.run.simStats.get("instructions.issued");
        heldSmCycles += double(jr.run.totalCycles) * gpu.numSms();
        heldFf += double(gpu.fastForwardedCycles());
        heldSkipped += double(gpu.skippedCycles());
        heldCycles += double(jr.run.totalCycles);
        held.jobs[n] = std::move(jr);
    };
    {
        std::atomic<std::size_t> next{0};
        std::vector<std::jthread> pool;
        for (unsigned t = 0; t < kServiceThreads; ++t)
            pool.emplace_back([&] {
                try {
                    for (std::size_t n; (n = next++) < expanded.size();)
                        runCell(n);
                } catch (const std::exception &e) {
                    std::lock_guard<std::mutex> lock(mu);
                    heldError = e.what();
                }
            });
    }
    out.check(heldError.empty(), "held-out cells run: " + heldError);
    const double heldStepped = heldSmCycles - heldFf;
    const auto [hdyn, hleak] = savings(held, 0);
    {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "held-out seed (base %llu, replicate 1): dynamic "
                      "%.4f%%, leakage %.4f%%",
                      (unsigned long long)args.seed, hdyn, hleak);
        out.note(buf);
    }
    layers.set("accuracy.heldout_dyn_saving_err_pp",
               std::fabs(hdyn - kPaperDynSaving));
    layers.set("accuracy.heldout_leak_saving_err_pp",
               std::fabs(hleak - kPaperLeakSaving));
    layers.set("sim.gpu_ctor_ms", median(ctorMs));
    layers.set("sim.sm.host_ns_per_inst", ratio(heldRunS * 1e9, heldIssued));
    layers.set("sim.sm.stepped_sm_cycles", heldStepped);
    layers.set("sim.sm.useful_step_ratio", ratio(heldIssued, heldStepped));
    layers.set("sim.engine.ff_frac", ratio(heldFf, heldSmCycles));
    layers.set("sim.engine.global_skip_frac",
               ratio(heldSkipped, heldCycles));
    for (const auto &[label, ns] : regfileProbe(sweep))
        layers.set("regfile.access_ns." + label, ns);

    layers.set("host.ref_loop_ms", median(refS) * 1e3);
    layers.set("wall.setup_s", buildS + median(setupSamples));
    layers.set("wall.run_s", median(coldUntraced));
    layers.set("trace.overhead_x",
               ratio(median(coldTraced), median(coldUntraced)));
    double tracedTotal = 0.0;
    for (const double s : coldTraced)
        tracedTotal += s;
    layers.spanTimes(spans, tracedTotal, unsigned(coldTraced.size()),
                     {"svc.run", "exp.cell", "exp.toJsonString"});
    counts.report(layers);
    layers.emit(out);
    dumpSpans(spans, args);
}

// ---------------------------------------------------------------------
// wide_sharded / observed: one 60-SM GPU on the sharded engine.

/** One Gpu::run of the workload: a config and its kernels. */
struct Phase
{
    std::string name;
    sim::SimConfig cfg;
    std::vector<isa::Kernel> kernels;
};

/**
 * The latency-bound, dephased kernels of bench/bench_hotpath.cc. Phase 1:
 * twelve memskew_l2 kernels (8-line load bursts through a 1 KB L1 into
 * the shared L2 and DRAM) at two CTAs per SM. Phase 2: memskew_hetero at
 * one CTA per SM (six kernels in which a hash-picked ~13% of CTAs run a
 * long loop, plus an eight-wave short kernel).
 *
 * The memskew_l2 kernels and hetero_short are seeded from the workload
 * seed. The six hetero_long kernels keep bench_hotpath's seeds 0..5: their
 * seed picks how many CTAs go heavy and how long they run, which moves
 * the phase's simulated work by up to 2x from seed to seed and would
 * swamp any change in host time.
 *
 * wide_sharded runs both phases; observed runs phase 1 alone. With
 * 100-cycle sampling, phase 2's 13M cycles wrap every SM's 16K-sample
 * ring, and writing those rings out walks ~200 MB column by column: one
 * call on the same GPU took 1.2 to 2.1 s back to back on a shared host,
 * too unsteady to time. Phase 1's series fit their rings and write in
 * about 0.4 s, steady to within 10%.
 */
std::vector<Phase>
widePhases(std::uint64_t seed)
{
    using isa::MemSpace;
    using isa::Opcode;
    sim::SimConfig base;
    base.numSms = 60;

    Phase l2{"memskew_l2", base, {}};
    l2.cfg.maxCtasPerSm = 2;
    l2.cfg.l1Enable = true;
    l2.cfg.l1SizeKb = 1;
    l2.cfg.l2Enable = true;
    l2.cfg.dramEnable = true;
    for (unsigned c = 0; c < 12; ++c) {
        isa::KernelBuilder b("memskew_l2", 8, 32, 120,
                             hashCoords(seed, 1, c));
        b.beginLoop(48, 96);
        b.load(1, 1, MemSpace::Global, 8);
        b.op(Opcode::IAdd, 2, {1});
        b.beginIfUniform(0.5);
        b.load(3, 3, MemSpace::Global, 8);
        b.op(Opcode::IAdd, 4, {3});
        b.endIf();
        b.endLoop();
        l2.kernels.push_back(b.build());
    }

    Phase het{"memskew_hetero", base, {}};
    het.cfg.maxCtasPerSm = 1;
    for (unsigned k = 0; k < 6; ++k) {
        isa::KernelBuilder b("hetero_long" + std::to_string(k), 8, 32, 60,
                             /*seed=*/k);
        b.beginIfUniform(0.13);
        b.beginLoop(1000, 6000);
        b.load(1, 1, MemSpace::Global, 1);
        b.op(Opcode::IAdd, 2, {1});
        b.beginIfUniform(0.5);
        b.load(3, 3, MemSpace::Global, 1);
        b.op(Opcode::IAdd, 4, {3});
        b.endIf();
        b.endLoop();
        b.endIf();
        b.load(1, 1, MemSpace::Global, 1);
        b.op(Opcode::IAdd, 2, {1});
        het.kernels.push_back(b.build());
    }
    {
        isa::KernelBuilder b("hetero_short", 8, 32, 480,
                             hashCoords(seed, 3));
        b.beginLoop(2, 6, /*divergent=*/true);
        b.load(1, 1, MemSpace::Global, 1);
        b.op(Opcode::IAdd, 2, {1});
        b.endLoop();
        het.kernels.push_back(b.build());
    }
    return {std::move(l2), std::move(het)};
}

/** Forwards to a trace sink and times its event() calls: the span of
 *  the trace-sink layer inside Gpu::run. */
class TimedSink : public obs::TraceSink
{
  public:
    TimedSink(std::unique_ptr<obs::TraceSink> sink, bool timed)
        : inner(std::move(sink)), timing(timed)
    {
    }

    void event(const obs::TraceEvent &ev) override
    {
        if (!timing) {
            inner->event(ev);
            return;
        }
        const auto t0 = Clock::now();
        inner->event(ev);
        busy += Clock::now() - t0;
    }
    bool wantsText() const override { return inner->wantsText(); }
    bool handlesStructured() const override
    {
        return inner->handlesStructured();
    }
    void flush() override { inner->flush(); }

    Clock::duration busyTime() const { return busy; }

  private:
    std::unique_ptr<obs::TraceSink> inner;
    bool timing;
    Clock::duration busy{};
};

/**
 * An output buffer that keeps only a byte count. The timed repetitions
 * format the time series and the trace in full but do not store them, so
 * they measure the simulator's formatting, not this host's allocator
 * growing a 16 MB string; the checked repetition keeps both outputs.
 */
class CountingBuf : public std::streambuf
{
  public:
    CountingBuf() { setp(buf, buf + sizeof buf); }

    std::uint64_t bytes() const
    {
        return flushed + std::uint64_t(pptr() - pbase());
    }

  protected:
    int_type overflow(int_type c) override
    {
        flushed += std::uint64_t(pptr() - pbase());
        setp(buf, buf + sizeof buf);
        if (!traits_type::eq_int_type(c, traits_type::eof())) {
            *pptr() = traits_type::to_char_type(c);
            pbump(1);
        }
        return traits_type::not_eof(c);
    }

  private:
    char buf[1 << 16];
    std::uint64_t flushed = 0;
};

/** The sharded engine, plus 100-cycle sampling on every SM and the
 *  trace hub when observed. */
sim::GpuOptions
gpuOptions(bool observed)
{
    sim::GpuOptions opts;
    opts.numWorkers = kEngineWorkers;
    if (observed) {
        opts.timeSeriesPeriod = 100;
        opts.enableTraceHub = true;
    }
    return opts;
}

/** What one repetition of the sim workload measured and produced. */
struct SimRep
{
    std::vector<double> phaseRunS;   ///< Gpu::run per phase
    std::vector<double> phaseCycles; ///< simulated cycles per phase
    double ctorS = 0.0;   ///< Gpu constructors (set-up, not timed)
    double runS = 0.0;    ///< Gpu::run plus output writing
    double gpuRunS = 0.0; ///< Gpu::run alone
    std::string stats;    ///< statText of every phase
    double warpCycles = 0.0, smCycles = 0.0, ff = 0.0, skipped = 0.0,
           cycles = 0.0;
    SimCounts counts;
    double busyS = 0.0, idleS = 0.0, stealS = 0.0, serialS = 0.0;
    double stragglerSum = 0.0, stragglerMax = 0.0, epochs = 0.0;
    double samples = 0.0, dropped = 0.0, tsBytes = 0.0, traceBytes = 0.0,
           writeTsS = 0.0;
    std::string tsDigest, traceDigest;
};

/** How a repetition runs: observability on or off, outputs kept for
 *  the checks, spans recorded or not. */
struct RepMode
{
    bool observed = false;
    bool check = false; ///< run the output checks on this rep
    Spans *spans = nullptr;
};

SimRep
runSimRep(const std::vector<Phase> &phases, const RepMode &mode,
          Result &out)
{
    SimRep rep;
    Spans &sp = *mode.spans;
    for (const Phase &ph : phases) {
        // The outputs are serialized into memory (the checked repetition)
        // or only counted (the others): the cost measured is the
        // simulator's formatting, not this host's disk. They outlive the
        // Gpu, whose sink may still write on destruction.
        std::ostringstream tsKept, traceKept;
        CountingBuf tsCount, traceCount;
        std::ostream tsCounted(&tsCount), traceCounted(&traceCount);
        std::ostream &tsOut = mode.check ? tsKept : tsCounted;
        std::ostream &traceOut = mode.check ? traceKept : traceCounted;

        const auto tc = Clock::now();
        sim::Gpu gpu(ph.cfg, gpuOptions(mode.observed));
        TimedSink *sink = nullptr;
        if (mode.observed) {
            sink = static_cast<TimedSink *>(&gpu.traceHub().addSink(
                std::make_unique<TimedSink>(
                    std::make_unique<obs::ChromeTraceSink>(traceOut),
                    sp.enabled())));
        }
        const auto t0 = Clock::now();
        rep.ctorS += secondsBetween(tc, t0);

        sim::RunResult run;
        {
            Scope s(sp, "sim.gpu_run");
            run = gpu.run({ph.name, ph.kernels});
            if (sink)
                sp.add("obs.trace_sink", s.get(), t0,
                       t0 + sink->busyTime());
        }
        const auto t1 = Clock::now();
        if (mode.observed) {
            {
                Scope s(sp, "obs.write_ts");
                gpu.writeTimeSeries(tsOut);
            }
            const auto tw = Clock::now();
            rep.writeTsS += secondsBetween(t1, tw);
            Scope s(sp, "obs.trace_close");
            gpu.traceHub().flush();
        }
        const auto t2 = Clock::now();
        rep.gpuRunS += secondsBetween(t0, t1);
        rep.phaseRunS.push_back(secondsBetween(t0, t1));
        rep.runS += secondsBetween(t0, t2);

        rep.stats += statText(run);
        rep.warpCycles += warpCycles(run.simStats, ph.cfg);
        rep.counts.add(run.simStats, run.rfStats);
        rep.cycles += double(run.totalCycles);
        rep.phaseCycles.push_back(double(run.totalCycles));
        rep.smCycles += double(run.totalCycles) * gpu.numSms();
        rep.ff += double(gpu.fastForwardedCycles()); // summed over every SM
        rep.skipped += double(gpu.skippedCycles());

        const sim::SchedTelemetry &st = gpu.schedTelemetry();
        double busy = 0.0, idle = 0.0, steal = 0.0;
        for (const auto &w : st.workers) {
            busy += double(w.busyNs) * 1e-9;
            idle += double(w.idleNs) * 1e-9;
            steal += double(w.stealNs) * 1e-9;
        }
        const double nw = double(std::max<std::size_t>(1, st.workers.size()));
        rep.busyS += busy;
        rep.idleS += idle;
        rep.stealS += steal;
        rep.serialS += secondsBetween(t0, t1) - (busy + idle) / nw;
        rep.stragglerSum += st.stragglerRatioSum;
        rep.stragglerMax = std::max(rep.stragglerMax, st.maxStragglerRatio);
        rep.epochs += double(st.epochs);

        if (!mode.observed)
            continue;
        for (unsigned i = 0; i < gpu.numSms(); ++i) {
            const obs::TimeSeriesSampler *ts = gpu.smStats(i).timeSeries();
            rep.samples += double(ts->sampleCount());
            rep.dropped += double(ts->droppedSamples());
        }
        if (!mode.check) {
            rep.tsBytes += double(tsCount.bytes());
            rep.traceBytes += double(traceCount.bytes());
            continue;
        }
        const std::string_view ts = tsKept.view(), trace = traceKept.view();
        rep.tsBytes += double(ts.size());
        rep.traceBytes += double(trace.size());
        {
            // Delta conservation: on every SM whose ring dropped nothing,
            // each counter column sums to the counter's final value.
            unsigned whole = 0;
            bool conserved = true;
            for (unsigned i = 0; i < gpu.numSms(); ++i) {
                const sim::Sm &sm = gpu.smStats(i);
                const obs::TimeSeriesSampler *ts = sm.timeSeries();
                if (ts->droppedSamples() != 0)
                    continue;
                ++whole;
                const auto conserve = [&](const std::string &prefix,
                                          const CounterBlock &c) {
                    for (std::size_t h = 0; h < c.size(); ++h)
                        conserved &=
                            ts->columnSum(prefix + c.name(h)) == c.value(h);
                };
                conserve("sim.", sm.counters());
                conserve("rf.", sm.rf().counters());
            }
            out.note(ph.name + ": " + std::to_string(whole) + " of " +
                     std::to_string(gpu.numSms()) +
                     " SM series kept every sample");
            out.check(conserved, ph.name + ": time-series column sums equal "
                                           "the final counters");
            JsonValue doc;
            std::string err;
            out.check(jsonParse(trace, doc, &err) &&
                          doc.find("traceEvents") != nullptr,
                      ph.name + ": Chrome trace parses " + err);
            rep.tsDigest += digest(ts);
            rep.traceDigest += digest(trace);
        }
    }
    return rep;
}

void
runWide(const Args &args, const Expected &expected, Result &out)
{
    const bool observed = args.workload == "observed";
    Spans spans(args.trace);
    Spans untraced(false);
    Layers layers;

    // Set-up, repeated: generate the kernels, warm up with observability
    // off (pool spin-up and first touch) and construct the first phase's
    // GPU. Every epoch barrier waits for the host to schedule a vCPU, so
    // the warm-up is a short run: wide_sharded's memskew_hetero phase,
    // which has far fewer barriers than memskew_l2, and observed's first
    // memskew_l2 kernel. A warm-up with observability on made
    // peak_rss_mb vary from 251 to 312 MB between runs.
    std::vector<double> setupSamples, setupCpu, buildMs, refS;
    std::vector<Phase> phases;
    for (unsigned i = 0; i < kSetupSamples; ++i) {
        const double scale = hostScale(refS);
        const auto t0 = Clock::now();
        const double c0 = cpuSeconds();
        phases = widePhases(args.seed);
        if (observed)
            phases.resize(1); // memskew_l2 only; see widePhases
        buildMs.push_back(secondsBetween(t0, Clock::now()) * 1e3);
        RepMode warm{false, false, &untraced};
        if (observed) {
            Phase first = phases.front();
            first.kernels.resize(1);
            runSimRep({first}, warm, out);
        } else {
            runSimRep({phases.back()}, warm, out);
        }
        sim::Gpu gpu(phases.front().cfg, gpuOptions(observed));
        setupSamples.push_back(secondsBetween(t0, Clock::now()));
        setupCpu.push_back((cpuSeconds() - c0) * scale);
    }

    // Timed phase: repetitions on fresh GPUs; a traced run alternates
    // untraced and traced repetitions.
    std::vector<double> runUntraced, runTraced, gpuRunTraced, ctorMs,
        writeTs, cpuUntraced, normUntraced;
    std::vector<std::vector<double>> phaseRun(phases.size());
    std::vector<SimRep> tracedReps;
    std::string stats;
    SimRep first;
    double timed = 0.0;
    for (unsigned rep = 0;
         timed < args.seconds || (args.trace && runTraced.empty()); ++rep) {
        const bool traced = args.trace && (rep % 2 == 1);
        RepMode mode{observed, rep == 0, traced ? &spans : &untraced};
        const double scale = hostScale(refS);
        const double cpu0 = cpuSeconds();
        SimRep r = runSimRep(phases, mode, out);
        const double cpuS = cpuSeconds() - cpu0;
        timed += r.runS;
        ctorMs.push_back(r.ctorS * 1e3 / double(phases.size()));
        out.attempts(1, 0);
        if (rep == 0) {
            stats = r.stats;
            first = r;
        } else {
            out.check(r.stats == stats,
                      "stats are identical across repetitions");
            out.check(r.tsBytes == first.tsBytes &&
                          r.traceBytes == first.traceBytes,
                      "time-series and trace sizes are identical across "
                      "repetitions");
        }
        if (traced) {
            runTraced.push_back(r.runS);
            gpuRunTraced.push_back(r.gpuRunS);
            tracedReps.push_back(std::move(r));
        } else {
            runUntraced.push_back(r.runS);
            cpuUntraced.push_back(cpuS);
            normUntraced.push_back(cpuS * scale);
            writeTs.push_back(r.writeTsS);
            for (std::size_t i = 0; i < phases.size(); ++i)
                phaseRun[i].push_back(r.phaseRunS[i]);
        }
    }

    // Output checks: stats digest at the default seed; observed runs also
    // match an obs-off run of the same inputs, and the default-seed
    // time-series and trace bytes.
    const std::string statsDigest = digest(stats);
    out.note(args.workload + " stats digest " + statsDigest);
    if (args.seed == kDefaultSeed)
        out.check(statsDigest == expected.str(args.workload, "stats"),
                  "stats digest matches expected.json");
    double refGpuRunS = 0.0;
    if (observed) {
        out.note("time-series digest " + first.tsDigest + ", trace digest " +
                 first.traceDigest);
        RepMode ref{false, false, &untraced};
        const SimRep r = runSimRep(phases, ref, out);
        refGpuRunS = r.gpuRunS;
        out.check(r.stats == stats,
                  "observed rf.*/sim.* stats equal the obs-off run's");
        if (args.seed == kDefaultSeed) {
            out.check(first.tsDigest == expected.str("observed", "timeseries"),
                      "time-series digest matches expected.json");
            out.check(first.traceDigest == expected.str("observed", "trace"),
                      "Chrome trace digest matches expected.json");
        }
    }

    if (!args.trace) {
        const double cpuS = median(normUntraced);
        out.metric("setup_s", median(setupCpu), "s");
        out.metric("norm_cpu_s", cpuS, "s");
        out.metric("warp_cycles_per_norm_cpu_s", first.warpCycles / cpuS,
                   "1/s");
        out.metric("peak_rss_mb", peakRssMb(), "MB");
        out.note(listing("CPU s of each repetition", cpuUntraced));
        out.note(listing("reference loop CPU s", refS));
        out.note(listing("wall s of each repetition", runUntraced));
        out.note(listing("wall set-up s", setupSamples));
        for (std::size_t i = 0; i < phases.size(); ++i)
            out.note(listing(phases[i].name + " Gpu::run of each repetition",
                             phaseRun[i]));
        if (observed)
            out.note(listing("writeTimeSeries of each repetition", writeTs));
        std::ostringstream os;
        os << "first repetition per phase, Gpu::run s / simulated cycles:";
        for (std::size_t i = 0; i < phases.size(); ++i)
            os << " " << phases[i].name << " " << first.phaseRunS[i] << " / "
               << first.phaseCycles[i];
        out.note(os.str());
        return;
    }

    // Per-layer: means over the traced repetitions.
    const auto avg = [&](double SimRep::*f) {
        double s = 0.0;
        for (const auto &r : tracedReps)
            s += r.*f;
        return s / double(tracedReps.size());
    };
    const double gpuRun = avg(&SimRep::gpuRunS);
    layers.set("workloads.build_ms", median(buildMs));
    layers.set("sim.gpu_ctor_ms", median(ctorMs));
    layers.set("sim.sm.host_ns_per_inst",
               ratio(gpuRun * 1e9, first.counts.issued));
    layers.set("sim.sm.stepped_sm_cycles", first.smCycles - first.ff);
    layers.set("sim.sm.useful_step_ratio",
               ratio(first.counts.issued, first.smCycles - first.ff));
    first.counts.report(layers);
    layers.set("sim.engine.busy_s", avg(&SimRep::busyS));
    layers.set("sim.engine.idle_s", avg(&SimRep::idleS));
    layers.set("sim.engine.steal_s", avg(&SimRep::stealS));
    layers.set("sim.engine.serial_s", avg(&SimRep::serialS));
    layers.set("sim.engine.straggler_mean",
               ratio(avg(&SimRep::stragglerSum), avg(&SimRep::epochs)));
    layers.set("sim.engine.straggler_max", avg(&SimRep::stragglerMax));
    layers.set("sim.engine.epochs", first.epochs);
    layers.set("sim.engine.ff_frac", ratio(first.ff, first.smCycles));
    layers.set("sim.engine.global_skip_frac",
               ratio(first.skipped, first.cycles));
    if (observed) {
        layers.set("obs.samples", first.samples);
        layers.set("obs.dropped_samples", first.dropped);
        layers.set("obs.ts_bytes", first.tsBytes);
        layers.set("obs.trace_bytes", first.traceBytes);
        layers.set("obs.write_ts_s", avg(&SimRep::writeTsS));
        layers.set("obs.run_overhead_x", ratio(gpuRun, refGpuRunS));
    }
    layers.set("host.ref_loop_ms", median(refS) * 1e3);
    layers.set("wall.setup_s", median(setupSamples));
    layers.set("wall.run_s", median(runUntraced));
    layers.set("trace.overhead_x",
               ratio(median(runTraced), median(runUntraced)));
    double tracedTotal = 0.0;
    for (const double s : runTraced)
        tracedTotal += s;
    layers.spanTimes(spans, tracedTotal, unsigned(runTraced.size()),
                     {"sim.gpu_run", "obs.trace_sink", "obs.write_ts",
                      "obs.trace_close"});
    layers.emit(out);
    dumpSpans(spans, args);
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const Args args = parseArgs(argc, argv);
    try {
        const Expected expected(args.expected);
        std::filesystem::create_directories(args.workdir);
        Result out;
        if (args.workload == "suite_sweep")
            runSuiteSweep(args, expected, out);
        else if (args.workload == "wide_sharded" ||
                 args.workload == "observed")
            runWide(args, expected, out);
        else
            usage("unknown workload " + args.workload);
        out.print();
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
