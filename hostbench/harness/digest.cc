#include "harness/digest.hh"

namespace hostbench
{

namespace
{

struct Fnv
{
    uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }

    template <size_t N>
    void
    add(const uint64_t (&a)[N])
    {
        for (uint64_t v : a)
            add(v);
    }
};

} // namespace

uint64_t
statsDigest(mpos::core::Experiment &exp)
{
    using namespace mpos;
    Fnv f;

    f.add(exp.elapsed());

    const sim::CycleAccount acct = exp.account();
    f.add(acct.total);
    f.add(acct.stall);

    const core::MissCounts &mc = exp.misses();
    f.add(mc.osI);
    f.add(mc.osD);
    f.add(mc.appI);
    f.add(mc.appD);
    f.add(mc.idleI);
    f.add(mc.idleD);
    f.add(mc.osDispossameI);
    f.add(mc.osDispossameD);

    for (uint32_t op = 0; op < sim::numOsOps; ++op)
        f.add(exp.osOpCount(sim::OsOp(op)));

    const sim::SyncTransport &st = exp.machine().sync();
    const sim::SyncOpCounts kernel_ops =
        st.sumOps(kernel::numKernelLocks);
    f.add(kernel_ops.uncachedOps);
    f.add(kernel_ops.cachedOps);

    const core::LockStats &ls = exp.lockStats();
    for (uint32_t id = 0; id < ls.numLocks(); ++id) {
        const sim::SyncOpCounts &c = st.counts(id);
        f.add(c.uncachedOps);
        f.add(c.cachedOps);

        const core::LockProfile &p = ls.profile(id);
        f.add(p.acquires);
        f.add(p.fails);
        f.add(p.releases);
        f.add(p.firstAcquire);
        f.add(p.lastAcquire);
        f.add(p.sameCpuRuns);
        f.add(p.releasesWithWaiters);
        f.add(p.waitersSum);
        f.add(p.failEpisodes);
        f.add(p.waitCount);
        f.add(p.waitCyclesSum);
        f.add(p.waitMax);
        f.add(p.waitHist);
        f.add(p.handoffCount);
        f.add(p.handoffCyclesSum);
    }

    const sim::Monitor &mon = exp.machine().monitor();
    f.add(mon.transactions());
    f.add(mon.osTransactions());

    const kernel::Kernel &k = exp.kern();
    f.add(k.contextSwitches());
    f.add(k.migrations());
    f.add(k.forks());
    f.add(k.exits());
    f.add(k.utlbFaults());
    f.add(k.pageReclaims());
    f.add(k.codePageRecycles());
    return f.h;
}

} // namespace hostbench
