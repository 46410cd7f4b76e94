/**
 * @file
 * The top-level experiment harness: build machine + kernel + workload,
 * warm up, attach the measurement apparatus (the "hardware monitor"),
 * run, and expose every statistic the paper reports.
 *
 * This is the primary public API of the library: benches, examples
 * and integration tests all drive experiments through it.
 */

#ifndef MPOS_CORE_EXPERIMENT_HH
#define MPOS_CORE_EXPERIMENT_HH

#include <memory>

#include "core/ap_dispos.hh"
#include "core/attribution.hh"
#include "core/blockop_stats.hh"
#include "core/functional_class.hh"
#include "core/invocation_stats.hh"
#include "core/lock_stats.hh"
#include "core/miss_classify.hh"
#include "core/resim.hh"
#include "core/stall.hh"
#include "kernel/kernel.hh"
#include "sim/machine.hh"
#include "workload/workload.hh"

namespace mpos::core
{

class WarmStartCache;

/** Everything needed to run one measured workload. */
struct ExperimentConfig
{
    workload::WorkloadKind kind = workload::WorkloadKind::Pmake;
    sim::MachineConfig machine{};
    kernel::KernelConfig kernelCfg{};
    workload::WorkloadOptions options{};

    sim::Cycle warmupCycles = 8000000;
    sim::Cycle measureCycles = 20000000;

    bool collectMisses = true; ///< Classifier + sinks.
    bool collectResim = false; ///< Record the Figure 6 replay stream.

    /**
     * Host wall-clock budget for run() in seconds; 0 disables. The
     * budget is checked between simulation slices (never inside the
     * deterministic core), and exceeding it raises
     * util::SimError(Timeout) so a batch runner can record the loss
     * and move on.
     */
    double timeoutSeconds = 0;

    /**
     * When true (default), kernelCfg.userPoolPages is replaced by the
     * workload's recommended pool size.
     */
    bool useRecommendedPool = true;

    /**
     * Warm-start cache; null disables (the default, zero overhead).
     * When set, run() asks the cache for a warm image keyed by
     * warmConfigHash(resolved config) and restores it instead of
     * simulating the warmup; on a miss it simulates the warmup and
     * stores the image. Host-side policy only: measured events and
     * statistics are identical either way (the differential fuzzer
     * and the golden corpus assert this).
     */
    WarmStartCache *warmCache = nullptr;
};

/** A configured, runnable experiment. */
class Experiment
{
  public:
    explicit Experiment(const ExperimentConfig &cfg);
    ~Experiment();

    /**
     * The configuration as the constructor would normalize it: kernel
     * layout geometry copied from the machine, the workload's
     * recommended page pool applied. Pure; lets callers compute
     * warmConfigHash() / journal identity without building a machine.
     */
    static ExperimentConfig resolvedConfig(const ExperimentConfig &cfg);

    /** Warm up, then measure. May be called exactly once. */
    void run();

    /// @name Raw components
    /// @{
    sim::Machine &machine() { return *mach; }
    kernel::Kernel &kern() { return *k; }
    workload::Workload &load() { return *wl; }
    /// @}

    /// @name Measured statistics (deltas over the measurement phase)
    /// @{
    const MissCounts &misses() const { return classifier->counts(); }
    const MissClassifier &classifier_() const { return *classifier; }
    const Attribution &attribution() const { return *attr; }
    const FunctionalClass &functional() const { return *func; }
    const InvocationStats &invocations() const { return *inv; }
    const LockStats &lockStats() const { return *locks; }
    ICacheResim &resim() { return *resimRec; }

    sim::CycleAccount account() const;
    sim::Cycle elapsed() const { return measuredCycles; }
    kernel::BlockOpStats blockOps() const;
    /** OS operation invocation counts (Figure 2). */
    uint64_t osOpCount(sim::OsOp op) const;

    Table1Row table1() const;
    Table9Row table9() const;
    BlockOpReport blockOpReport() const;
    ApDisposReport apDispos() const;
    SyncStallReport syncStallReport() const;
    /// @}

    const ExperimentConfig &config() const { return cfg; }

    /// @name Snapshot / warm start
    /// @{
    /** Warm-image cache key of the *resolved* configuration. */
    uint64_t warmKey() const;

    /**
     * Full machine+kernel+workload state as a snapshot container
     * image (may be taken at any point between run slices).
     */
    std::vector<uint8_t> saveSnapshot() const;

    /**
     * Restore a snapshot image into this (not-yet-run) experiment.
     * The image's config hash must equal warmKey(); structural
     * mismatches raise util::SimError(SnapshotCorrupt).
     */
    void restoreSnapshot(const std::vector<uint8_t> &image);
    /// @}

  private:
    ExperimentConfig cfg;
    std::unique_ptr<sim::Machine> mach;
    std::unique_ptr<kernel::Kernel> k;
    std::unique_ptr<workload::Workload> wl;

    std::unique_ptr<MissClassifier> classifier;
    std::unique_ptr<Attribution> attr;
    std::unique_ptr<FunctionalClass> func;
    std::unique_ptr<InvocationStats> inv;
    std::unique_ptr<LockStats> locks;
    std::unique_ptr<ICacheResim> resimRec;

    /** Forwards classified misses to the machine's routine profiler,
     *  keyed by each miss's own context snapshot, so the profiler's
     *  per-routine totals reconcile exactly with core/attribution. */
    struct ProfilerSink : MissSink
    {
        sim::trace::Profiler *pf = nullptr;
        void
        onMiss(const ClassifiedMiss &m) override
        {
            pf->recordMiss(m.rec.ctx, m.rec.cache, uint8_t(m.cls));
        }
    };
    ProfilerSink profSink;

    // Snapshots at measurement start.
    sim::CycleAccount baseAccount;
    kernel::BlockOpStats baseBlockOps;
    uint64_t baseOsOps[sim::numOsOps] = {};
    sim::SyncOpCounts baseKernelSyncOps;

    sim::Cycle measuredCycles = 0;
    bool ran = false;
};

} // namespace mpos::core

#endif // MPOS_CORE_EXPERIMENT_HH
