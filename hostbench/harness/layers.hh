/**
 * @file
 * Tracing used by the benchmark's traced run. Everything here sits in
 * front of the library's public interfaces, so the library itself is
 * not changed and must behave identically with it installed:
 *
 *  - TracingExecutor is installed with sim::Machine::setExecutor and
 *    forwards every call to the kernel, counting and timing it
 *    (the `kernel` layer);
 *  - TimedBehavior wraps a process's kernel::AppBehavior and times
 *    chunk() (the `workload` layer); TracingExecutor installs it the
 *    first time a refill reaches a process whose behaviour is not yet
 *    wrapped, and, as the kernel's KernelClient, takes it off again
 *    before the workload sees the process on fork or exit (the
 *    workload identifies behaviours by their concrete type);
 *  - CountingObserver counts monitor callbacks (`core.monitor`);
 *  - SpanLog keeps coarse spans in memory and writes them at exit.
 *
 * Kernel and workload calls run in the millions per job, so they are
 * summed into a LayerTally per job rather than logged one span each.
 */

#ifndef MPOS_HOSTBENCH_LAYERS_HH
#define MPOS_HOSTBENCH_LAYERS_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace hostbench
{

/** Host nanoseconds on the steady clock. */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Host time and call counts of one job's kernel and workload calls. */
struct LayerTally
{
    int64_t kernelNs = 0;   ///< Inclusive of nested chunk() time.
    int64_t workloadNs = 0; ///< Inside AppBehavior::chunk.
    uint64_t refill = 0;
    uint64_t marker = 0;
    uint64_t fault = 0;
    uint64_t poll = 0;
    uint64_t nextEvent = 0;
    uint64_t chunks = 0;
    uint64_t monitorCallbacks = 0;

    uint64_t
    kernelCalls() const
    {
        return refill + marker + fault + poll + nextEvent;
    }
};

/** Counts every monitor callback it receives. */
class CountingObserver : public mpos::sim::MonitorObserver
{
  public:
    explicit CountingObserver(uint64_t &count) : n(count) {}

    void busTransaction(const mpos::sim::BusRecord &) override { ++n; }
    void
    evict(mpos::sim::CpuId, mpos::sim::CacheKind, mpos::sim::Addr,
          const mpos::sim::MonitorContext &) override
    {
        ++n;
    }
    void
    invalSharing(mpos::sim::CpuId, mpos::sim::CacheKind,
                 mpos::sim::Addr) override
    {
        ++n;
    }
    void invalPageRealloc(mpos::sim::CpuId, mpos::sim::Addr) override
    {
        ++n;
    }
    void
    flushPage(mpos::sim::CpuId, mpos::sim::Addr, uint32_t) override
    {
        ++n;
    }
    void
    osEnter(mpos::sim::Cycle, mpos::sim::CpuId, mpos::sim::OsOp) override
    {
        ++n;
    }
    void
    osExit(mpos::sim::Cycle, mpos::sim::CpuId, mpos::sim::OsOp) override
    {
        ++n;
    }
    void
    contextSwitch(mpos::sim::Cycle, mpos::sim::CpuId, mpos::sim::Pid,
                  mpos::sim::Pid) override
    {
        ++n;
    }

  private:
    uint64_t &n;
};

/**
 * Executor and kernel client in front of an experiment's kernel and
 * workload. Construct after the experiment and before its run();
 * it must outlive the run. When count_monitor is set, a
 * CountingObserver is attached at the first kernel call of the
 * measured phase, beside the experiment's own apparatus.
 */
class TracingExecutor : public mpos::sim::Executor,
                        public mpos::kernel::KernelClient
{
  public:
    TracingExecutor(mpos::core::Experiment &exp, LayerTally &tally,
                    bool count_monitor);
    ~TracingExecutor() override;
    TracingExecutor(const TracingExecutor &) = delete;
    TracingExecutor &operator=(const TracingExecutor &) = delete;

    /// @name sim::Executor
    /// @{
    void refill(mpos::sim::CpuId cpu) override;
    void marker(mpos::sim::CpuId cpu,
                const mpos::sim::ScriptItem &item) override;
    void fault(mpos::sim::CpuId cpu, mpos::sim::Addr vaddr,
               bool is_store, bool is_prot) override;
    void pollEvents(mpos::sim::CpuId cpu, mpos::sim::Cycle now) override;
    mpos::sim::Cycle nextEventAt(mpos::sim::CpuId cpu) const override;
    /// @}

    /// @name kernel::KernelClient
    /// @{
    void onFork(mpos::kernel::Process &parent,
                mpos::kernel::Process &child) override;
    void onProcExit(mpos::kernel::Process &p) override;
    /// @}

  private:
    void maybeAttachObserver();
    void unwrap(mpos::kernel::Process &p);

    mpos::sim::Machine &mach;
    mpos::kernel::Kernel &kern;
    mpos::workload::Workload &load;
    LayerTally &t;
    mpos::sim::Cycle attachAt;
    std::unique_ptr<CountingObserver> observer;
    bool observerAttached = false;
};

/** One coarse span: a pass, a job, or a job's construct/run/reports. */
struct Span
{
    const char *name = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    int32_t parent = -1; ///< Index of the enclosing span, -1 for none.
    int32_t job = -1;    ///< Job index within the workload, -1 for none.
    std::string detail;  ///< Job name, pass kind, or layer tallies.
};

/** Thread-safe in-memory span store, written out once at exit. */
class SpanLog
{
  public:
    /** Record a finished span; returns its index. */
    int32_t add(Span s);
    /** Reserve an index for a span closed later with finish(). */
    int32_t open(const char *name, int32_t parent, int32_t job,
                 std::string detail = {});
    void finish(int32_t id);
    /** Write one JSON object per line; false if the file fails. */
    bool write(const std::string &path) const;

  private:
    mutable std::mutex mu; ///< Guards spans.
    std::vector<Span> spans;
};

} // namespace hostbench

#endif // MPOS_HOSTBENCH_LAYERS_HH
