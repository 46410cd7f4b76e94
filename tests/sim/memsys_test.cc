/** @file Coherence and hierarchy tests for the memory system. */

#include <gtest/gtest.h>

#include "sim/memsys.hh"
#include "util/binio.hh"
#include "util/error.hh"
#include "util/rng.hh"

using namespace mpos;
using namespace mpos::sim;

namespace
{

/** Observer that tallies events for assertions. */
struct Tally : MonitorObserver
{
    uint64_t reads = 0, readex = 0, upgrades = 0, writebacks = 0,
             uncached = 0;
    uint64_t evicts = 0, invalSharings = 0, invalReallocs = 0,
             pageFlushes = 0;
    uint64_t ifetchTx = 0;

    void
    busTransaction(const BusRecord &r) override
    {
        switch (r.op) {
          case BusOp::Read: ++reads; break;
          case BusOp::ReadEx: ++readex; break;
          case BusOp::Upgrade: ++upgrades; break;
          case BusOp::Writeback: ++writebacks; break;
          default: ++uncached; break;
        }
        if (r.cache == CacheKind::Instr)
            ++ifetchTx;
    }
    void evict(CpuId, CacheKind, Addr, const MonitorContext &) override
    {
        ++evicts;
    }
    void invalSharing(CpuId, CacheKind, Addr) override
    {
        ++invalSharings;
    }
    void invalPageRealloc(CpuId, Addr) override { ++invalReallocs; }
    void flushPage(CpuId, Addr, uint32_t) override { ++pageFlushes; }
};

struct Fixture : ::testing::Test
{
    Fixture() : mem(cfg, mon) { mon.attach(&tally); }

    MachineConfig cfg;
    Monitor mon;
    Tally tally;
    MonitorContext ctx;
    MemorySystem mem{cfg, mon};
};

} // namespace

TEST_F(Fixture, ReadMissFillsExclusive)
{
    const auto r = mem.dataAccess(0, 0x1000, false, 0, ctx);
    EXPECT_TRUE(r.busAccess);
    EXPECT_EQ(r.cycles, 1 + cfg.busMissStall);
    EXPECT_EQ(mem.caches(0).getState(0x1000), Coh::Exclusive);
}

TEST_F(Fixture, SecondReaderDowngradesToShared)
{
    mem.dataAccess(0, 0x1000, false, 0, ctx);
    mem.dataAccess(1, 0x1000, false, 1, ctx);
    EXPECT_EQ(mem.caches(0).getState(0x1000), Coh::Shared);
    EXPECT_EQ(mem.caches(1).getState(0x1000), Coh::Shared);
}

TEST_F(Fixture, SilentUpgradeFromExclusive)
{
    mem.dataAccess(0, 0x1000, false, 0, ctx);
    const auto r = mem.dataAccess(0, 0x1000, true, 1, ctx);
    EXPECT_FALSE(r.busAccess); // E -> M needs no bus
    EXPECT_EQ(mem.caches(0).getState(0x1000), Coh::Modified);
}

TEST_F(Fixture, WriteOnSharedIssuesUpgradeAndInvalidates)
{
    mem.dataAccess(0, 0x1000, false, 0, ctx);
    mem.dataAccess(1, 0x1000, false, 1, ctx);
    const auto r = mem.dataAccess(0, 0x1000, true, 2, ctx);
    EXPECT_TRUE(r.busAccess);
    EXPECT_EQ(tally.upgrades, 1u);
    EXPECT_EQ(tally.invalSharings, 1u);
    EXPECT_EQ(mem.caches(1).getState(0x1000), Coh::Invalid);
    EXPECT_FALSE(mem.caches(1).l2d.contains(0x1000));
    EXPECT_FALSE(mem.caches(1).l1d.contains(0x1000));
}

TEST_F(Fixture, WriteMissInvalidatesOtherCopies)
{
    mem.dataAccess(0, 0x1000, false, 0, ctx);
    mem.dataAccess(1, 0x1000, true, 1, ctx);
    EXPECT_EQ(tally.readex, 1u);
    EXPECT_EQ(mem.caches(0).getState(0x1000), Coh::Invalid);
    EXPECT_EQ(mem.caches(1).getState(0x1000), Coh::Modified);
}

TEST_F(Fixture, L1MissL2HitCostsL2Stall)
{
    mem.dataAccess(0, 0x1000, false, 0, ctx);
    // Evict from L1 only, by filling a conflicting L1 set: L1 is
    // 64 KB direct-mapped, so 64 KB away conflicts in L1 but not in
    // the 256 KB L2.
    mem.dataAccess(0, 0x1000 + 64 * 1024, false, 1, ctx);
    const auto r = mem.dataAccess(0, 0x1000, false, 2, ctx);
    EXPECT_FALSE(r.busAccess);
    EXPECT_EQ(r.cycles, 1 + cfg.l2HitStall);
}

TEST_F(Fixture, DirtyL2EvictionWritesBack)
{
    mem.dataAccess(0, 0x1000, true, 0, ctx);
    // Conflict in the 256 KB direct-mapped L2.
    mem.dataAccess(0, 0x1000 + 256 * 1024, false, 1, ctx);
    EXPECT_EQ(tally.writebacks, 1u);
    EXPECT_EQ(tally.evicts, 1u);
}

TEST_F(Fixture, InclusionL2EvictionDropsL1)
{
    mem.dataAccess(0, 0x1000, false, 0, ctx);
    mem.dataAccess(0, 0x1000 + 256 * 1024, false, 1, ctx);
    EXPECT_FALSE(mem.caches(0).l1d.contains(0x1000));
}

TEST_F(Fixture, IFetchMissAndHit)
{
    const auto r1 = mem.ifetchAccess(0, 0x2000, 0, ctx);
    EXPECT_TRUE(r1.busAccess);
    EXPECT_EQ(tally.ifetchTx, 1u);
    const auto r2 = mem.ifetchAccess(0, 0x2000, 1, ctx);
    EXPECT_FALSE(r2.busAccess);
    EXPECT_EQ(r2.cycles,
              Cycle(cfg.instrPerLine) * cfg.cyclesPerInstr);
}

TEST_F(Fixture, ICacheNotInvalidatedByStores)
{
    mem.ifetchAccess(0, 0x2000, 0, ctx);
    mem.dataAccess(1, 0x2000, true, 1, ctx);
    // R3000 I-caches are not snooped on writes.
    EXPECT_TRUE(mem.caches(0).icache.contains(0x2000));
}

TEST_F(Fixture, FlushICachesForPage)
{
    mem.ifetchAccess(0, 0x4000, 0, ctx);
    mem.ifetchAccess(1, 0x4010, 0, ctx);
    mem.flushICachesForPage(0x4000 / cfg.pageBytes);
    EXPECT_FALSE(mem.caches(0).icache.contains(0x4000));
    EXPECT_FALSE(mem.caches(1).icache.contains(0x4010));
    EXPECT_EQ(tally.invalReallocs, 2u);
    EXPECT_EQ(tally.pageFlushes, uint64_t(cfg.numCpus));
}

TEST_F(Fixture, UncachedBypassesCaches)
{
    const auto r = mem.uncachedAccess(0, 0x90000000, false, 0, ctx);
    EXPECT_TRUE(r.busAccess);
    EXPECT_EQ(tally.uncached, 1u);
    EXPECT_FALSE(mem.caches(0).l2d.contains(0x90000000 & ~15ULL));
}

TEST_F(Fixture, BypassAccessDoesNotInstall)
{
    const auto r = mem.bypassAccess(0, 0x1000, false, 0, ctx);
    EXPECT_TRUE(r.busAccess);
    EXPECT_FALSE(mem.caches(0).l2d.contains(0x1000));
    // But it still keeps others coherent.
    mem.dataAccess(1, 0x2000, true, 1, ctx);
    mem.bypassAccess(0, 0x2000, true, 2, ctx);
    EXPECT_EQ(mem.caches(1).getState(0x2000), Coh::Invalid);
}

TEST_F(Fixture, BusOccupancyQueues)
{
    MachineConfig qcfg;
    qcfg.busOccupancy = 20;
    Monitor m2;
    MemorySystem mq(qcfg, m2);
    const auto r1 = mq.dataAccess(0, 0x1000, false, 100, ctx);
    EXPECT_EQ(r1.cycles, 1 + qcfg.busMissStall); // no queueing yet
    const auto r2 = mq.dataAccess(1, 0x2000, false, 105, ctx);
    // Second request waits for the 20-cycle occupancy minus 5 elapsed.
    EXPECT_EQ(r2.cycles, 1 + qcfg.busMissStall + 15);
}

TEST_F(Fixture, SharersMaskTracksReaders)
{
    EXPECT_EQ(mem.sharersMask(0x1000), 0u);
    mem.dataAccess(0, 0x1000, false, 0, ctx);
    EXPECT_EQ(mem.sharersMask(0x1000), 0b0001u);
    mem.dataAccess(2, 0x1000, false, 1, ctx);
    EXPECT_EQ(mem.sharersMask(0x1000), 0b0101u);
    mem.dataAccess(3, 0x1000, false, 2, ctx);
    EXPECT_EQ(mem.sharersMask(0x1000), 0b1101u);
}

TEST_F(Fixture, SharersMaskCollapsesOnWrite)
{
    mem.dataAccess(0, 0x1000, false, 0, ctx);
    mem.dataAccess(1, 0x1000, false, 1, ctx);
    mem.dataAccess(2, 0x1000, false, 2, ctx);
    mem.dataAccess(3, 0x1000, true, 3, ctx); // invalidates 0, 1, 2
    EXPECT_EQ(mem.sharersMask(0x1000), 0b1000u);
    EXPECT_EQ(tally.invalSharings, 3u);
}

TEST_F(Fixture, SharersMaskClearsOnEviction)
{
    mem.dataAccess(0, 0x1000, false, 0, ctx);
    EXPECT_EQ(mem.sharersMask(0x1000), 0b0001u);
    // Conflict in the 256 KB direct-mapped L2 evicts the line.
    mem.dataAccess(0, 0x1000 + 256 * 1024, false, 1, ctx);
    EXPECT_EQ(mem.sharersMask(0x1000), 0u);
    EXPECT_EQ(mem.sharersMask(0x1000 + 256 * 1024), 0b0001u);
}

TEST_F(Fixture, SharersMaskIgnoresBypassAndUncached)
{
    mem.bypassAccess(0, 0x1000, false, 0, ctx);
    mem.uncachedAccess(0, 0x2000, true, 1, ctx);
    // Neither installs a line, so neither may set a sharer bit.
    EXPECT_EQ(mem.sharersMask(0x1000), 0u);
    EXPECT_EQ(mem.sharersMask(0x2000), 0u);
}

/** Property: single-writer invariant under random traffic. */
class CoherenceStress : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CoherenceStress, SingleWriterAndInclusion)
{
    MachineConfig cfg;
    Monitor mon;
    MemorySystem mem(cfg, mon);
    MonitorContext ctx;
    mpos::util::Rng rng(GetParam());

    const uint64_t lines = 512;
    for (int i = 0; i < 30000; ++i) {
        const CpuId cpu = CpuId(rng.below(cfg.numCpus));
        const Addr a = rng.below(lines) * 16;
        mem.dataAccess(cpu, a, rng.chance(0.3), Cycle(i), ctx);

        if (i % 100 == 0) {
            for (uint64_t l = 0; l < lines; ++l) {
                const Addr line = l * 16;
                int modified = 0, present = 0;
                for (CpuId c = 0; c < cfg.numCpus; ++c) {
                    const Coh st = mem.caches(c).getState(line);
                    if (st == Coh::Modified)
                        ++modified;
                    if (st != Coh::Invalid)
                        ++present;
                    // Inclusion: L1 resident implies L2 resident.
                    if (mem.caches(c).l1d.contains(line)) {
                        EXPECT_TRUE(mem.caches(c).l2d.contains(line));
                    }
                    // State Invalid implies not resident in L2.
                    if (st == Coh::Invalid) {
                        EXPECT_FALSE(mem.caches(c).l2d.contains(line));
                    }
                    // Snoop filter: bit c mirrors the coherence state.
                    const bool bit =
                        mem.sharersMask(line) & (uint64_t(1) << c);
                    EXPECT_EQ(bit, st != Coh::Invalid);
                }
                EXPECT_LE(modified, 1);
                if (modified == 1) {
                    EXPECT_EQ(present, 1);
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceStress,
                         ::testing::Values(3, 17, 4242));

TEST(WideMachine, SixtyFourCpuSharerMaskTracksHighCpus)
{
    MachineConfig cfg;
    cfg.numCpus = 64;
    cfg.memBytes = 1024 * 1024; // keep the 64-CPU test allocation small
    Monitor mon;
    Tally tally;
    mon.attach(&tally);
    MonitorContext ctx;
    MemorySystem mem(cfg, mon);

    const Addr line = 0x1000;
    for (CpuId c = 0; c < 64; ++c)
        mem.dataAccess(c, line, false, Cycle(c), ctx);
    EXPECT_EQ(mem.sharersMask(line), ~uint64_t(0));
    for (CpuId c : {CpuId(0), CpuId(31), CpuId(32), CpuId(63)})
        EXPECT_EQ(mem.caches(c).getState(line), Coh::Shared) << c;

    // A store from CPU 63 must invalidate all 63 remote copies.
    mem.dataAccess(63, line, true, 100, ctx);
    EXPECT_EQ(tally.invalSharings, 63u);
    EXPECT_EQ(mem.sharersMask(line), uint64_t(1) << 63);
    EXPECT_EQ(mem.caches(63).getState(line), Coh::Modified);
    EXPECT_EQ(mem.caches(0).getState(line), Coh::Invalid);
}

TEST(PagedState, WideMachineAllocatesNoStatePageBeforeFirstReference)
{
    // 64 CPUs x 64 MB: a dense table would be 4 MB of coherence state
    // per CPU. Until a CPU references memory it must hold no page.
    MachineConfig cfg;
    cfg.numCpus = 64;
    cfg.memBytes = 64ULL * 1024 * 1024;
    Monitor mon;
    MonitorContext ctx;
    MemorySystem mem(cfg, mon);
    for (CpuId c = 0; c < 64; ++c)
        EXPECT_EQ(mem.caches(c).l2state.pagesAllocated(), 0u) << c;

    mem.dataAccess(5, 0x2000, false, 0, ctx);
    EXPECT_EQ(mem.caches(5).l2state.pagesAllocated(), 1u);
    for (CpuId c = 0; c < 64; ++c) {
        if (c != 5) {
            EXPECT_EQ(mem.caches(c).l2state.pagesAllocated(), 0u) << c;
        }
    }
    // A store from another CPU invalidates CPU 5's copy; writing
    // Invalid allocates nothing new anywhere.
    mem.dataAccess(9, 0x2000, true, 1, ctx);
    EXPECT_EQ(mem.caches(5).getState(0x2000), Coh::Invalid);
    EXPECT_EQ(mem.caches(5).l2state.pagesAllocated(), 1u);
    EXPECT_EQ(mem.caches(9).l2state.pagesAllocated(), 1u);
}

TEST(PagedState, LastLineWorksAndOutOfRangeLinePanics)
{
    MachineConfig cfg;
    cfg.memBytes = 1024 * 1024;
    Monitor mon;
    MonitorContext ctx;
    MemorySystem mem(cfg, mon);
    const Addr last = cfg.memBytes - cfg.lineBytes;
    mem.dataAccess(0, last, true, 0, ctx);
    EXPECT_EQ(mem.caches(0).getState(last), Coh::Modified);
    EXPECT_DEATH(mem.caches(0).getState(cfg.memBytes), "outside");
    EXPECT_DEATH(mem.caches(1).setState(cfg.memBytes, Coh::Invalid),
                 "outside");
}

TEST(PagedState, SnapshotRoundTripAllocatesOnlyHeldPages)
{
    MachineConfig cfg;
    cfg.memBytes = 4 * 1024 * 1024;
    Monitor mon;
    MonitorContext ctx;
    MemorySystem a(cfg, mon);
    a.dataAccess(0, 0x1000, false, 0, ctx);
    a.dataAccess(1, 0x1000, false, 1, ctx);
    a.dataAccess(2, 0x300000, true, 2, ctx);
    // CPU 3 holds one line, then loses it to CPU 2's store: its page
    // stays allocated but holds only Invalid states.
    a.dataAccess(3, 0x210000, false, 3, ctx);
    a.dataAccess(2, 0x210000, true, 4, ctx);
    util::ByteWriter w;
    a.saveState(w);

    Monitor mon2;
    MemorySystem b(cfg, mon2);
    util::ByteReader r(w.bytes());
    b.restoreState(r);
    EXPECT_TRUE(r.atEnd());
    for (CpuId c = 0; c < cfg.numCpus; ++c) {
        for (Addr line : {Addr(0x1000), Addr(0x210000), Addr(0x300000)})
            EXPECT_EQ(b.caches(c).getState(line),
                      a.caches(c).getState(line))
                << c << " " << line;
    }
    EXPECT_EQ(b.caches(0).l2state.pagesAllocated(), 1u);
    EXPECT_EQ(b.caches(1).l2state.pagesAllocated(), 1u);
    EXPECT_EQ(b.caches(2).l2state.pagesAllocated(), 2u);
    EXPECT_EQ(b.caches(3).l2state.pagesAllocated(), 0u);
    util::ByteWriter w2;
    b.saveState(w2);
    EXPECT_EQ(w2.bytes(), w.bytes());
}

TEST(PagedState, RestoreRejectsAnL1LineWithoutAnL2State)
{
    MachineConfig cfg;
    cfg.memBytes = 1024 * 1024;
    Monitor mon;
    MonitorContext ctx;
    MemorySystem a(cfg, mon);
    a.dataAccess(0, 0x1000, false, 0, ctx);
    // Break inclusion's state half: the line stays in the L1 but its
    // L2 state reads Invalid, which no run can produce.
    a.caches(0).setState(0x1000, Coh::Invalid);
    util::ByteWriter w;
    a.saveState(w);

    Monitor mon2;
    MemorySystem b(cfg, mon2);
    util::ByteReader r(w.bytes());
    try {
        b.restoreState(r);
        FAIL() << "image accepted";
    } catch (const util::SimError &e) {
        EXPECT_EQ(e.code(), util::ErrCode::SnapshotCorrupt) << e.what();
    }
}
