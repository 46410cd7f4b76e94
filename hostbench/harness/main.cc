/**
 * @file
 * Host-performance benchmark of the simulator library.
 *
 *   hostbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--refs FILE] [--trace-out FILE] [--short]
 *
 * Runs one named workload in this process (one process per workload,
 * so peak RSS is the workload's own): an untimed warm-up pass at the
 * workload's own thread count, then timed passes for about S seconds,
 * reporting medians over passes. With --trace 1 each round is an
 * untraced pass plus two traced passes (see layers.hh), and the
 * per-layer metrics are reported instead. Every job's simulated
 * statistics are digested and checked: against FILE for seed 7 at
 * standard length, otherwise against the job's first run in this
 * process. --short cuts every job to 0.8 M + 2 M cycles for the
 * self-test. The last line of stdout is one JSON object; the exit code
 * is 0 only when every job ran and matched.
 *
 * ../README.md explains the workloads and metrics.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hh"
#include "core/experiment.hh"
#include "harness/alloc_count.hh"
#include "harness/digest.hh"
#include "harness/layers.hh"

using namespace mpos;
using namespace hostbench;

namespace
{

/** Seed whose digests are pinned in the reference file. */
constexpr uint64_t referenceSeed = 7;

struct Job
{
    std::string name;
    core::ExperimentConfig cfg;
};

struct WorkloadDef
{
    std::string name;
    unsigned threads = 1;
    std::vector<Job> jobs;
};

core::ExperimentConfig
jobConfig(workload::WorkloadKind kind, uint64_t seed, bool short_run)
{
    core::ExperimentConfig cfg;
    cfg.kind = kind;
    // bench::standardConfig's lengths, without its environment knobs.
    cfg.warmupCycles = short_run ? 800000 : 8000000;
    cfg.measureCycles = short_run ? 2000000 : 20000000;
    cfg.options.seed = seed;
    return cfg;
}

std::optional<WorkloadDef>
makeWorkload(const std::string &name, uint64_t seed, bool short_run)
{
    using workload::WorkloadKind;
    WorkloadDef w;
    w.name = name;
    if (name == "paper-4cpu") {
        for (WorkloadKind k : bench::allWorkloads)
            w.jobs.push_back({workload::workloadName(k),
                              jobConfig(k, seed, short_run)});
    } else if (name == "wide-oracle-32cpu") {
        auto cfg = jobConfig(WorkloadKind::Oracle, seed, short_run);
        bench::scaleToCpus(cfg, 32);
        w.jobs.push_back({"Oracle-32cpu", cfg});
    } else if (name == "sweep-lockproto-8cpu") {
        // Two machines at once, on threads the benchmark owns:
        // core::ExperimentRunner builds machines inside its workers,
        // which would hide construction time from setup_s.
        w.threads = 2;
        for (uint8_t p = 0; p < sim::numLockPolicies; ++p) {
            auto cfg = jobConfig(WorkloadKind::Multpgm, seed, short_run);
            bench::scaleToCpus(cfg, 8);
            cfg.machine.lockPolicy = sim::LockPolicy(p);
            cfg.collectMisses = false; // lock statistics only
            w.jobs.push_back({std::string("Multpgm-8cpu-") +
                                  sim::lockPolicyName(cfg.machine.lockPolicy),
                              cfg});
        }
    } else {
        return std::nullopt;
    }
    return w;
}

enum class Mode
{
    Plain,  ///< As configured, nothing in front of the library.
    Traced, ///< As configured, TracingExecutor + CountingObserver.
    Bare,   ///< Traced, with no monitor apparatus and no observer.
};

struct JobOutcome
{
    std::string name;
    bool ran = false;
    std::string error;
    uint64_t digest = 0;
    int64_t startNs = 0;
    int64_t endNs = 0;  ///< After the job's last report.
    int64_t doneNs = 0; ///< After the job's machine was destroyed.
    int64_t constructNs = 0;
    int64_t runNs = 0;
    int64_t reportNs = 0;
    double reportSum = 0;
    double cpuMcycles = 0; ///< numCpus x simulated cycles, in millions.
    LayerTally tally;
    uint64_t busTx = 0;
    sim::SyncOpCounts syncOps;
    uint64_t lockAttempts = 0;
    uint64_t lockFailEpisodes = 0;
};

/** The paper's reports, or a sweep job's lock-profile row, folded
 *  into one number so that the work cannot be optimized away. */
double
runReports(core::Experiment &exp)
{
    double s = 0;
    if (exp.config().collectMisses) {
        const core::Table1Row t1 = exp.table1();
        const core::Table9Row t9 = exp.table9();
        const core::BlockOpReport bo = exp.blockOpReport();
        const core::ApDisposReport ap = exp.apDispos();
        const core::SyncStallReport ss = exp.syncStallReport();
        s += t1.osMissStallPct + t9.totalPct + bo.totalPctOfOsD +
             ap.fracOfAppPct + ss.uncachedPct + ss.cachedPct;
    } else {
        const core::LockStats &ls = exp.lockStats();
        for (uint32_t id = 0; id < ls.numLocks(); ++id) {
            const core::LockProfile &p = ls.profile(id);
            s += ls.failsPerMs(id, exp.elapsed()) + p.acquireInterval() +
                 p.failedFraction() + p.meanWait() + p.meanHandoff();
        }
    }
    return s;
}

JobOutcome
runJob(const Job &job, Mode mode, SpanLog *log, int32_t pass_span,
       int32_t idx)
{
    JobOutcome o;
    o.name = job.name;
    core::ExperimentConfig cfg = job.cfg;
    if (mode == Mode::Bare)
        cfg.collectMisses = false;
    const int32_t job_span =
        log ? log->open("job", pass_span, idx, job.name) : -1;
    try {
        o.startNs = nowNs();
        auto exp = std::make_unique<core::Experiment>(cfg);
        const int64_t t1 = nowNs();
        {
            std::optional<TracingExecutor> tracer;
            if (mode != Mode::Plain)
                tracer.emplace(*exp, o.tally, mode == Mode::Traced);
            exp->run();
        }
        const int64_t t2 = nowNs();
        o.reportSum = runReports(*exp);
        const int64_t t3 = nowNs();
        o.endNs = t3;
        o.constructNs = t1 - o.startNs;
        o.runNs = t2 - t1;
        o.reportNs = t3 - t2;
        o.digest = statsDigest(*exp);
        o.cpuMcycles = double(cfg.machine.numCpus) *
                       double(cfg.warmupCycles + cfg.measureCycles) / 1e6;
        o.busTx = exp->machine().monitor().transactions();
        o.syncOps = exp->machine().sync().sumOps(exp->kern().numLocks());
        const core::LockStats &ls = exp->lockStats();
        for (uint32_t id = 0; id < ls.numLocks(); ++id) {
            const core::LockProfile &p = ls.profile(id);
            o.lockAttempts += p.acquires + p.failEpisodes;
            o.lockFailEpisodes += p.failEpisodes;
        }
        o.ran = true;
        if (log) {
            log->add({"construct", o.startNs, t1, job_span, idx, ""});
            log->add({"run", t1, t2, job_span, idx, ""});
            log->add({"reports", t2, t3, job_span, idx, ""});
        }
        exp.reset();
    } catch (const std::exception &e) {
        o.error = e.what();
    }
    o.doneNs = nowNs();
    if (log)
        log->finish(job_span);
    return o;
}

struct PassResult
{
    std::vector<JobOutcome> jobs;
    int64_t wallNs = 0;  ///< First construction to last report.
    int64_t spanNs = 0;  ///< Pass start to the last worker's exit.
};

PassResult
runPass(const WorkloadDef &w, Mode mode, SpanLog *log, const char *kind)
{
    PassResult r;
    const size_t n = w.jobs.size();
    r.jobs.resize(n);
    const int32_t pass_span = log ? log->open("pass", -1, -1, kind) : -1;
    const int64_t t0 = nowNs();
    if (w.threads <= 1) {
        for (size_t i = 0; i < n; ++i)
            r.jobs[i] = runJob(w.jobs[i], mode, log, pass_span, int32_t(i));
    } else {
        std::atomic<size_t> next{0};
        auto worker = [&] {
            for (size_t i; (i = next.fetch_add(1)) < n;)
                r.jobs[i] =
                    runJob(w.jobs[i], mode, log, pass_span, int32_t(i));
        };
        std::vector<std::jthread> pool;
        for (unsigned t = 0; t < w.threads; ++t)
            pool.emplace_back(worker);
    }
    r.spanNs = nowNs() - t0;
    if (log)
        log->finish(pass_span);
    int64_t first = INT64_MAX, last = INT64_MIN;
    for (const JobOutcome &o : r.jobs) {
        if (!o.ran)
            continue;
        first = std::min(first, o.startNs);
        last = std::max(last, o.endNs);
    }
    r.wallNs = last > first ? last - first : 0;
    return r;
}

/**
 * Digest verdicts. A key with a reference digest must match it; any
 * other key must match the first digest it produced in this process.
 */
class Verifier
{
  public:
    bool
    loadReferences(const std::string &path, const std::string &workload)
    {
        std::ifstream in(path);
        if (!in)
            return false;
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream ls(line);
            std::string wl, job, hex;
            if (!(ls >> wl >> job >> hex))
                return false;
            if (wl == workload)
                expected[job] = std::strtoull(hex.c_str(), nullptr, 16);
        }
        pinned = true;
        return true;
    }

    void
    checkPass(const PassResult &p, const char *suffix = "")
    {
        for (const JobOutcome &o : p.jobs)
            check(o, o.name + suffix);
    }

    uint64_t attempted = 0;
    uint64_t failed = 0;

  private:
    /** Record one job outcome; a failure prints a FAIL line. */
    void
    check(const JobOutcome &o, const std::string &key)
    {
        ++attempted;
        std::string why;
        if (!o.ran) {
            why = "error: " + o.error;
        } else {
            auto it = expected.find(key);
            if (it == expected.end()) {
                if (pinned && key == o.name)
                    why = "no reference digest";
                else
                    expected[key] = o.digest;
            } else if (it->second != o.digest) {
                char buf[96];
                std::snprintf(buf, sizeof buf,
                              "digest %016" PRIx64 " != expected %016" PRIx64,
                              o.digest, it->second);
                why = buf;
            }
        }
        if (why.empty())
            return;
        ++failed;
        std::printf("FAIL %s: %s\n", key.c_str(), why.c_str());
    }

    std::map<std::string, uint64_t> expected;
    bool pinned = false;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Medians of per-round values, keyed in first-seen order. */
class Series
{
  public:
    void
    add(const std::string &name, double v, const char *unit)
    {
        for (auto &e : entries) {
            if (e.name == name) {
                e.values.push_back(v);
                return;
            }
        }
        entries.push_back({name, unit, {v}});
    }

    double
    last(const std::string &name) const
    {
        for (const auto &e : entries)
            if (e.name == name)
                return e.values.back();
        return 0;
    }

    std::vector<Metric>
    medians() const
    {
        std::vector<Metric> out;
        for (const auto &e : entries)
            out.push_back({e.name, median(e.values), e.unit});
        return out;
    }

  private:
    struct Entry
    {
        std::string name;
        const char *unit;
        std::vector<double> values;
    };
    std::vector<Entry> entries;
};

double
secs(int64_t ns)
{
    return double(ns) / 1e9;
}

/** One timed, untraced pass's end-to-end figures. */
void
addEndToEnd(Series &s, const PassResult &p)
{
    int64_t construct = 0, run = 0;
    double mcycles = 0;
    for (const JobOutcome &o : p.jobs) {
        construct += o.constructNs;
        run += o.runNs;
        mcycles += o.cpuMcycles;
    }
    s.add("wall_s", secs(p.wallNs), "s");
    s.add("setup_s", secs(construct), "s");
    s.add("sim_mcycles_per_s", run ? mcycles / secs(run) : 0,
          "Mcycles/s");
}

/**
 * Bytes and seconds of each component's construction, each built once
 * more through its public constructor.
 */
void
measureSetup(const WorkloadDef &w, std::vector<Metric> &out)
{
    constexpr double mb = 1024.0 * 1024.0;
    int64_t sim_b = 0, kernel_b = 0, classifier_b = 0, total_b = 0;
    int64_t sim_ns = 0, classifier_ns = 0;
    for (const Job &job : w.jobs) {
        const core::ExperimentConfig cfg =
            core::Experiment::resolvedConfig(job.cfg);
        const uint32_t nlocks =
            kernel::numKernelLocks + cfg.kernelCfg.maxUserLocks;
        {
            allocCountStart();
            int64_t t0 = nowNs();
            auto m = std::make_unique<sim::Machine>(cfg.machine, nlocks);
            sim_ns += nowNs() - t0;
            sim_b += allocCountStop();

            allocCountStart();
            auto k = std::make_unique<kernel::Kernel>(*m, cfg.kernelCfg);
            auto wl = workload::Workload::create(cfg.kind, *k, cfg.options);
            kernel_b += allocCountStop();
        }
        {
            allocCountStart();
            int64_t t0 = nowNs();
            auto c = std::make_unique<core::MissClassifier>(
                cfg.machine.numCpus, cfg.machine.memBytes,
                cfg.machine.lineBytes);
            classifier_ns += nowNs() - t0;
            classifier_b += allocCountStop();
        }
        {
            allocCountStart();
            auto exp = std::make_unique<core::Experiment>(job.cfg);
            total_b += allocCountStop();
        }
    }
    out.push_back({"setup.sim_mb", double(sim_b) / mb, "MB"});
    out.push_back({"setup.kernel_mb", double(kernel_b) / mb, "MB"});
    out.push_back({"setup.classifier_mb", double(classifier_b) / mb, "MB"});
    out.push_back({"setup.other_mb",
                   double(total_b - sim_b - kernel_b - classifier_b) / mb,
                   "MB"});
    out.push_back({"setup.sim_s", secs(sim_ns), "s"});
    out.push_back({"setup.classifier_s", secs(classifier_ns), "s"});
}

struct Reconciliation
{
    double parts = 0; ///< sim.self + kernel.self + workload.self + monitor
    double total = 0; ///< Experiment::run, traced, as configured
};

/**
 * One traced round's per-layer figures. `plain` is the untraced pass,
 * `traced` the workload as configured with tracing, `bare` the same
 * jobs traced with no monitor apparatus. Layer self times come from
 * `traced`, except the simulator's own, which is the part of `bare`'s
 * run time outside the kernel; the monitor's is the difference
 * between the two traced runs. The four are then compared against
 * `traced`'s run total, which they only meet if the kernel and
 * workload cost the same in both traced runs.
 */
Reconciliation
addPerLayer(Series &s, const WorkloadDef &w, const PassResult &plain,
            const PassResult &traced, const PassResult &bare)
{
    int64_t run_t = 0, run_b = 0, sim_b = 0, kernel_t = 0, workload_t = 0;
    int64_t reports_t = 0, job_host_plain = 0;
    LayerTally calls;
    uint64_t bus_tx = 0, attempts = 0, fail_episodes = 0;
    sim::SyncOpCounts sync;
    for (const JobOutcome &o : traced.jobs) {
        run_t += o.runNs;
        kernel_t += o.tally.kernelNs - o.tally.workloadNs;
        workload_t += o.tally.workloadNs;
        reports_t += o.reportNs;
        calls.refill += o.tally.refill;
        calls.marker += o.tally.marker;
        calls.fault += o.tally.fault;
        calls.poll += o.tally.poll;
        calls.nextEvent += o.tally.nextEvent;
        calls.chunks += o.tally.chunks;
        calls.monitorCallbacks += o.tally.monitorCallbacks;
        bus_tx += o.busTx;
        sync.uncachedOps += o.syncOps.uncachedOps;
        sync.cachedOps += o.syncOps.cachedOps;
        attempts += o.lockAttempts;
        fail_episodes += o.lockFailEpisodes;
    }
    for (const JobOutcome &o : bare.jobs) {
        run_b += o.runNs;
        sim_b += o.runNs - o.tally.kernelNs;
    }
    for (const JobOutcome &o : plain.jobs)
        job_host_plain += o.doneNs - o.startNs;

    const double sim_self = secs(sim_b);
    const double monitor = secs(run_t - run_b);
    s.add("sim.self_s", sim_self, "s");
    s.add("sim.bus_tx", double(bus_tx), "count");
    s.add("sim.ns_per_bus_tx", bus_tx ? sim_self * 1e9 / double(bus_tx) : 0,
          "ns");
    s.add("sim.sync_ops_uncached", double(sync.uncachedOps), "count");
    s.add("sim.sync_ops_cached", double(sync.cachedOps), "count");
    s.add("kernel.self_s", secs(kernel_t), "s");
    s.add("kernel.calls.refill", double(calls.refill), "count");
    s.add("kernel.calls.marker", double(calls.marker), "count");
    s.add("kernel.calls.fault", double(calls.fault), "count");
    s.add("kernel.calls.poll", double(calls.poll), "count");
    s.add("kernel.calls.next_event", double(calls.nextEvent), "count");
    s.add("kernel.ns_per_call",
          calls.kernelCalls()
              ? double(kernel_t) / double(calls.kernelCalls())
              : 0,
          "ns");
    s.add("workload.self_s", secs(workload_t), "s");
    s.add("workload.chunk_calls", double(calls.chunks), "count");
    s.add("monitor.s", monitor, "s");
    s.add("monitor.callbacks", double(calls.monitorCallbacks), "count");
    s.add("locks.acquire_fail_frac",
          attempts ? double(fail_episodes) / double(attempts) : 0,
          "fraction");
    s.add("reports.s", secs(reports_t), "s");
    s.add("sweep.idle_frac",
          plain.spanNs ? 1.0 - double(job_host_plain) /
                                   (double(w.threads) * double(plain.spanNs))
                       : 0,
          "fraction");
    s.add("trace.overhead_frac",
          plain.wallNs ? double(traced.wallNs) / double(plain.wallNs) - 1.0
                       : 0,
          "fraction");
    return {sim_self + secs(kernel_t) + secs(workload_t) + monitor,
            secs(run_t)};
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

void
printResult(const Verifier &v, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%-26s %14.6f %s\n", m.name.c_str(), m.value, m.unit);
    std::printf("correctness: %" PRIu64 " of %" PRIu64
                " jobs ran and matched their digests -> %s\n",
                v.attempted - v.failed, v.attempted,
                v.failed ? "FAIL" : "ok");
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                v.failed ? "false" : "true", v.attempted, v.failed);
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    std::printf("}}\n");
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "hostbench: %s\nusage: hostbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--refs FILE] "
                 "[--trace-out FILE] [--short]\n",
                 msg);
    std::exit(2);
}

/**
 * Reconciliation tolerance, as a share of the traced run total. Two
 * passes of the same jobs differ by several percent on a shared host,
 * and the residual is such a difference on the kernel and workload
 * part, about a third of the total; double-counting the nested
 * chunk() time would add 11-14 % on paper-4cpu.
 */
constexpr double reconcileTolerance = 0.10;

/** Traced rounds per run at least: the layer splits are differences
 *  of passes, so a single round is too noisy to report. */
constexpr int minTracedRounds = 3;

} // namespace

int
main(int argc, char **argv)
{
    // A fixed threshold turns off glibc's adaptive one, under which a
    // big table came from fresh pages or from recycled heap depending
    // on what earlier jobs had freed, so the same construction cost
    // either 0.15 s or 0.8 s. Now every table of 1 MiB or more is
    // mapped at construction and returned at destruction: setup_s
    // always includes first-touch page faults, as a fresh process's
    // construction does.
    mallopt(M_MMAP_THRESHOLD, 1 << 20);

    std::string workload_name, refs_path, trace_out;
    uint64_t seed = referenceSeed;
    double seconds = 10;
    bool traced = false, short_run = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            workload_name = value();
        else if (a == "--seed")
            seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            seconds = std::strtod(value().c_str(), nullptr);
        else if (a == "--trace")
            traced = value() != "0";
        else if (a == "--refs")
            refs_path = value();
        else if (a == "--trace-out")
            trace_out = value();
        else if (a == "--short")
            short_run = true;
        else
            usage(("unknown argument " + a).c_str());
    }
    const std::optional<WorkloadDef> wdef =
        makeWorkload(workload_name, seed, short_run);
    if (!wdef)
        usage(("unknown workload '" + workload_name + "'").c_str());
    const WorkloadDef &w = *wdef;

    Verifier verifier;
    if (seed == referenceSeed && !short_run) {
        if (refs_path.empty())
            usage("seed 7 needs --refs");
        if (!verifier.loadReferences(refs_path, w.name))
            usage(("cannot read reference digests " + refs_path).c_str());
    }

    // Untimed warm-up at the workload's own thread count: an idle host
    // runs the first parallel jobs measurably slower.
    const PassResult warm = runPass(w, Mode::Plain, nullptr, "warmup");
    verifier.checkPass(warm);
    for (const JobOutcome &o : warm.jobs)
        std::printf("digest %s %s %016" PRIx64 "\n", w.name.c_str(),
                    o.name.c_str(), o.digest);

    // Passes repeat while the next one, as long as the last, still
    // ends inside the run's time budget.
    Series series;
    std::vector<Metric> metrics;
    const int64_t t_start = nowNs();
    int64_t last_ns = 0;
    auto more = [&](int done, int at_least) {
        const int64_t now = nowNs();
        return done < at_least || now + last_ns - t_start <= seconds * 1e9;
    };
    if (!traced) {
        for (int n = 0; more(n, 3); ++n) {
            const int64_t t0 = nowNs();
            const PassResult p = runPass(w, Mode::Plain, nullptr, "timed");
            last_ns = nowNs() - t0;
            verifier.checkPass(p);
            addEndToEnd(series, p);
            std::printf("pass %d: wall %.4f s setup %.4f s\n", n,
                        secs(p.wallNs), series.last("setup_s"));
        }
        metrics = series.medians();
        metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
        metrics.push_back(
            {"job_ok_frac",
             double(verifier.attempted - verifier.failed) /
                 double(verifier.attempted),
             "fraction"});
    } else {
        SpanLog log;
        std::vector<Metric> setup;
        measureSetup(w, setup);
        std::vector<double> parts, totals, residuals;
        for (int n = 0; more(n, minTracedRounds); ++n) {
            const int64_t t0 = nowNs();
            const PassResult plain =
                runPass(w, Mode::Plain, nullptr, "untraced");
            const PassResult tr = runPass(w, Mode::Traced, &log, "traced");
            const PassResult bare = runPass(w, Mode::Bare, &log, "bare");
            verifier.checkPass(plain);
            verifier.checkPass(tr);
            verifier.checkPass(bare, "/bare");
            const Reconciliation r = addPerLayer(series, w, plain, tr, bare);
            parts.push_back(r.parts);
            totals.push_back(r.total);
            residuals.push_back(r.total > 0 ? r.parts / r.total - 1.0 : 0);
            std::printf("round %d: parts %.4f s vs run %.4f s (%+.2f%%)\n",
                        n, r.parts, r.total, 100.0 * residuals.back());
            last_ns = nowNs() - t0;
        }
        metrics = series.medians();
        metrics.insert(metrics.end(), setup.begin(), setup.end());

        const double off = median(residuals);
        std::printf("reconcile: sim.self_s + kernel.self_s + "
                    "workload.self_s + monitor.s = %.4f s vs "
                    "Experiment::run %.4f s (median residual %+.2f%%, "
                    "tolerance %.0f%%) -> %s\n",
                    median(parts), median(totals), 100.0 * off,
                    100.0 * reconcileTolerance,
                    std::abs(off) <= reconcileTolerance ? "ok"
                                                        : "OUTSIDE");
        if (!trace_out.empty() && !log.write(trace_out))
            std::fprintf(stderr, "hostbench: cannot write %s\n",
                         trace_out.c_str());
    }
    printResult(verifier, metrics);
    return verifier.failed ? 1 : 0;
}
