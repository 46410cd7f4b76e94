/** @file Sweep-journal tests.
 *
 *  The journal is the crash-recovery backbone: every record appended
 *  before a kill must replay intact, a torn tail (the kill landed
 *  mid-append) must be dropped and truncated away rather than poison
 *  the file, and the job-identity hash must be exactly as sensitive
 *  as the measured results are. These tests pin the round-trip of
 *  every record type, the torn-tail contract, poison persistence,
 *  fresh-open semantics and hash stability.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/journal.hh"
#include "util/error.hh"

using namespace mpos;
using namespace mpos::core;

namespace
{

/** Fresh per-test journal directory under the gtest temp root. */
std::string
journalDir(const std::string &leaf)
{
    const std::string dir = testing::TempDir() + "/" + leaf;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

JournalJobRow
sampleRow(const std::string &name, uint64_t hash)
{
    JournalJobRow row;
    row.name = name;
    row.configHash = hash;
    row.status = 2; // JobStatus::Done
    row.attempts = 1;
    row.monitorTransactions = 12345;
    row.invariantChecks = 67;
    row.kind = 1;
    row.cpus = 4;
    row.measureCycles = 300000;
    return row;
}

ExperimentConfig
quickConfig(uint64_t seed = 7)
{
    ExperimentConfig cfg;
    cfg.kind = workload::WorkloadKind::Pmake;
    cfg.warmupCycles = 150000;
    cfg.measureCycles = 300000;
    cfg.options.seed = seed;
    return cfg;
}

} // namespace

TEST(SweepJournal, RoundTripsEveryRecordType)
{
    const std::string dir = journalDir("journal_roundtrip");
    {
        SweepJournal j;
        j.open(dir, false);
        j.appendPlan("std/Pmake", 0x1111);
        j.appendPlan("fig11/cpus4", 0x2222);
        j.appendJobEnd(sampleRow("std/Pmake", 0x1111));
        j.appendAnalysisEnd("fig11_lock_scaling", true, "",
                            "table body\nwith two lines\n");
        j.appendPoison(0xdeadbeef);
    }
    SweepJournal j;
    j.open(dir, true);
    const JournalState &st = j.state();
    ASSERT_EQ(st.plan.size(), 2u);
    EXPECT_EQ(st.plan[0].first, "std/Pmake");
    EXPECT_EQ(st.plan[0].second, 0x1111u);
    EXPECT_EQ(st.plan[1].first, "fig11/cpus4");

    ASSERT_TRUE(st.jobs.count("std/Pmake"));
    const JournalJobRow &row = st.jobs.at("std/Pmake");
    EXPECT_EQ(row.configHash, 0x1111u);
    EXPECT_EQ(row.status, 2u);
    EXPECT_EQ(row.monitorTransactions, 12345u);
    EXPECT_EQ(row.invariantChecks, 67u);
    EXPECT_EQ(row.cpus, 4u);
    EXPECT_EQ(row.measureCycles, 300000u);

    // fig11/cpus4 is planned but never settled: it has no row.
    EXPECT_FALSE(st.jobs.count("fig11/cpus4"));

    ASSERT_TRUE(st.analyses.count("fig11_lock_scaling"));
    EXPECT_TRUE(st.analyses.at("fig11_lock_scaling").ok);
    EXPECT_EQ(st.analyses.at("fig11_lock_scaling").output,
              "table body\nwith two lines\n");

    ASSERT_EQ(st.poisonedKeys.size(), 1u);
    EXPECT_EQ(st.poisonedKeys[0], 0xdeadbeefu);
    EXPECT_FALSE(st.truncatedTail);
}

TEST(SweepJournal, TornTailIsTruncatedNotFatal)
{
    const std::string dir = journalDir("journal_torn");
    {
        SweepJournal j;
        j.open(dir, false);
        j.appendPlan("std/Pmake", 0xabc);
        j.appendJobEnd(sampleRow("std/Pmake", 0xabc));
    }
    const std::string path = dir + "/sweep.mpj";
    const auto intact = std::filesystem::file_size(path);
    {
        // A kill mid-append: a frame length promising more bytes than
        // the file holds.
        FILE *f = std::fopen(path.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        const unsigned char torn[6] = {0x40, 0, 0, 0, 0x03, 0x99};
        std::fwrite(torn, 1, sizeof torn, f);
        std::fclose(f);
    }
    {
        SweepJournal j;
        j.open(dir, true);
        EXPECT_TRUE(j.state().truncatedTail);
        EXPECT_EQ(j.state().records, 2u);
        ASSERT_TRUE(j.state().jobs.count("std/Pmake"));
        // The torn bytes are gone: the file ends at the last intact
        // record again.
        EXPECT_EQ(std::filesystem::file_size(path), intact);
        // And appending after the truncation keeps the file valid.
        j.appendPoison(0x42);
    }
    SweepJournal j;
    j.open(dir, true);
    EXPECT_FALSE(j.state().truncatedTail);
    EXPECT_EQ(j.state().records, 3u);
    ASSERT_EQ(j.state().poisonedKeys.size(), 1u);
    EXPECT_EQ(j.state().poisonedKeys[0], 0x42u);
}

TEST(SweepJournal, FreshOpenDiscardsAnExistingJournal)
{
    const std::string dir = journalDir("journal_fresh");
    {
        SweepJournal j;
        j.open(dir, false);
        j.appendPlan("std/Pmake", 1);
        j.appendJobEnd(sampleRow("std/Pmake", 1));
    }
    {
        SweepJournal j;
        j.open(dir, false); // resume=false: start over
        EXPECT_EQ(j.state().records, 0u);
        EXPECT_TRUE(j.state().plan.empty());
    }
    SweepJournal j;
    j.open(dir, true);
    EXPECT_EQ(j.state().records, 0u);
}

TEST(SweepJournal, LastJobEndWinsAndPlansDedup)
{
    const std::string dir = journalDir("journal_lastwins");
    {
        SweepJournal j;
        j.open(dir, false);
        j.appendPlan("std/Pmake", 5);
        j.appendPlan("std/Pmake", 5); // resubmission: deduped
        JournalJobRow first = sampleRow("std/Pmake", 5);
        first.status = 3; // Failed
        first.error = "watchdog";
        j.appendJobEnd(first);
        JournalJobRow second = sampleRow("std/Pmake", 5);
        second.attempts = 2;
        j.appendJobEnd(second);
    }
    SweepJournal j;
    j.open(dir, true);
    ASSERT_EQ(j.state().plan.size(), 1u);
    const JournalJobRow &row = j.state().jobs.at("std/Pmake");
    EXPECT_EQ(row.status, 2u);
    EXPECT_EQ(row.attempts, 2u);
    EXPECT_TRUE(row.error.empty());
}

TEST(SweepJournal, RejectsAForeignFile)
{
    const std::string dir = journalDir("journal_foreign");
    const std::string path = dir + "/sweep.mpj";
    FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a journal", f);
    std::fclose(f);
    SweepJournal j;
    EXPECT_THROW(j.open(dir, true), util::SimError);

    // A well-formed version 1 header: the right magic, an older
    // version. Refused with a typed error naming both versions.
    f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const unsigned char v1[12] = {'M', 'P', 'O', 'S', 'J', 'R',
                                  'N', '1', 1,   0,   0,   0};
    std::fwrite(v1, 1, sizeof v1, f);
    std::fclose(f);
    SweepJournal old;
    try {
        old.open(dir, true);
        FAIL() << "a version 1 journal was accepted";
    } catch (const util::SimError &e) {
        EXPECT_EQ(e.code(), util::ErrCode::BadConfig);
        const std::string what = e.what();
        EXPECT_NE(what.find("version 1"), std::string::npos) << what;
        EXPECT_NE(what.find("reads 2"), std::string::npos) << what;
    }
}

TEST(SweepJournal, JobConfigHashTracksMeasuredIdentity)
{
    const ExperimentConfig a = quickConfig(7);
    const ExperimentConfig b = quickConfig(7);
    EXPECT_EQ(SweepJournal::jobConfigHash(a),
              SweepJournal::jobConfigHash(b));

    ExperimentConfig seed = quickConfig(8);
    EXPECT_NE(SweepJournal::jobConfigHash(a),
              SweepJournal::jobConfigHash(seed));

    ExperimentConfig longer = quickConfig(7);
    longer.measureCycles = 600000;
    EXPECT_NE(SweepJournal::jobConfigHash(a),
              SweepJournal::jobConfigHash(longer));
}
