#include "harness/layers.hh"

#include <cstdio>
#include <utility>

namespace hostbench
{

using namespace mpos;

namespace
{

/** Times chunk() of the behaviour it owns. */
class TimedBehavior : public kernel::AppBehavior
{
  public:
    TimedBehavior(std::unique_ptr<kernel::AppBehavior> behavior,
                  LayerTally &tally)
        : inner(std::move(behavior)), t(tally)
    {
    }

    void
    chunk(kernel::Process &p, kernel::UserScript &s) override
    {
        ++t.chunks;
        const int64_t t0 = nowNs();
        inner->chunk(p, s);
        t.workloadNs += nowNs() - t0;
    }

    std::unique_ptr<kernel::AppBehavior> inner;

  private:
    LayerTally &t;
};

/** Adds the elapsed time of its scope to a counter. */
class Timed
{
  public:
    explicit Timed(int64_t &sink) : acc(sink), t0(nowNs()) {}
    ~Timed() { acc += nowNs() - t0; }
    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

  private:
    int64_t &acc;
    int64_t t0;
};

} // namespace

TracingExecutor::TracingExecutor(core::Experiment &exp, LayerTally &tally,
                                 bool count_monitor)
    : mach(exp.machine()), kern(exp.kern()), load(exp.load()), t(tally),
      attachAt(exp.config().warmupCycles)
{
    if (count_monitor)
        observer = std::make_unique<CountingObserver>(t.monitorCallbacks);
    mach.setExecutor(this);
    kern.setClient(this);
}

TracingExecutor::~TracingExecutor()
{
    if (observerAttached)
        mach.monitor().detach(observer.get());
    for (uint32_t pid = 0; pid < kern.maxProcs(); ++pid)
        unwrap(kern.process(sim::Pid(pid)));
    mach.setExecutor(&kern);
    kern.setClient(&load);
}

void
TracingExecutor::maybeAttachObserver()
{
    if (observer && !observerAttached && mach.now() >= attachAt) {
        mach.monitor().attach(observer.get());
        observerAttached = true;
    }
}

void
TracingExecutor::refill(sim::CpuId cpu)
{
    maybeAttachObserver();
    ++t.refill;
    const sim::Pid pid = kern.runningOn(cpu);
    if (pid != sim::invalidPid) {
        kernel::Process &p = kern.process(pid);
        if (p.behavior && !dynamic_cast<TimedBehavior *>(p.behavior.get()))
            p.behavior =
                std::make_unique<TimedBehavior>(std::move(p.behavior), t);
    }
    Timed timed(t.kernelNs);
    kern.refill(cpu);
}

void
TracingExecutor::marker(sim::CpuId cpu, const sim::ScriptItem &item)
{
    maybeAttachObserver();
    ++t.marker;
    Timed timed(t.kernelNs);
    kern.marker(cpu, item);
}

void
TracingExecutor::fault(sim::CpuId cpu, sim::Addr vaddr, bool is_store,
                       bool is_prot)
{
    ++t.fault;
    Timed timed(t.kernelNs);
    kern.fault(cpu, vaddr, is_store, is_prot);
}

void
TracingExecutor::pollEvents(sim::CpuId cpu, sim::Cycle now)
{
    maybeAttachObserver();
    ++t.poll;
    Timed timed(t.kernelNs);
    kern.pollEvents(cpu, now);
}

sim::Cycle
TracingExecutor::nextEventAt(sim::CpuId cpu) const
{
    ++t.nextEvent;
    Timed timed(t.kernelNs);
    return kern.nextEventAt(cpu);
}

void
TracingExecutor::unwrap(kernel::Process &p)
{
    if (auto *tb = dynamic_cast<TimedBehavior *>(p.behavior.get())) {
        std::unique_ptr<kernel::AppBehavior> inner = std::move(tb->inner);
        p.behavior = std::move(inner);
    }
}

void
TracingExecutor::onFork(kernel::Process &parent, kernel::Process &child)
{
    unwrap(parent);
    load.onFork(parent, child);
}

void
TracingExecutor::onProcExit(kernel::Process &p)
{
    unwrap(p);
    load.onProcExit(p);
}

int32_t
SpanLog::add(Span s)
{
    std::lock_guard<std::mutex> g(mu);
    spans.push_back(std::move(s));
    return int32_t(spans.size() - 1);
}

int32_t
SpanLog::open(const char *name, int32_t parent, int32_t job,
              std::string detail)
{
    Span s;
    s.name = name;
    s.startNs = nowNs();
    s.parent = parent;
    s.job = job;
    s.detail = std::move(detail);
    return add(std::move(s));
}

void
SpanLog::finish(int32_t id)
{
    const int64_t t = nowNs();
    std::lock_guard<std::mutex> g(mu);
    spans[size_t(id)].endNs = t;
}

bool
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> g(mu);
    const int64_t base = spans.empty() ? 0 : spans.front().startNs;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                     "\"end_ns\":%lld,\"parent\":%d,\"job\":%d,"
                     "\"detail\":\"%s\"}\n",
                     i, s.name, static_cast<long long>(s.startNs - base),
                     static_cast<long long>(s.endNs - base), s.parent,
                     s.job, s.detail.c_str());
    }
    return std::fclose(f) == 0;
}

} // namespace hostbench
