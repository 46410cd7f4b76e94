/** @file Unit tests for the first-touch paged table. */

#include <gtest/gtest.h>

#include <cstdint>

#include "util/paged_table.hh"

using mpos::util::PagedTable;

namespace
{

enum class State : uint8_t { Invalid, Shared, Exclusive, Modified };

constexpr uint64_t page = PagedTable<uint32_t>::pageEntries;

} // namespace

TEST(PagedTable, UntouchedEntryReadsZeroAndAllocatesNothing)
{
    PagedTable<uint32_t> t(10 * page + 7);
    EXPECT_EQ(t.size(), 10 * page + 7);
    EXPECT_EQ(t.numPages(), 11u);
    EXPECT_EQ(t.get(0), 0u);
    EXPECT_EQ(t.get(5 * page + 3), 0u);
    EXPECT_EQ(t.get(t.size() - 1), 0u);
    EXPECT_EQ(t.pagesAllocated(), 0u);
    EXPECT_EQ(t.pageData(5), nullptr);

    PagedTable<State> s(page);
    EXPECT_EQ(s.get(17), State::Invalid);
    EXPECT_EQ(s.pagesAllocated(), 0u);
}

TEST(PagedTable, FirstWriteAllocatesOnePageSharedByNeighbours)
{
    PagedTable<uint32_t> t(4 * page);
    t.at(2 * page + 5) = 42;
    EXPECT_EQ(t.pagesAllocated(), 1u);
    EXPECT_NE(t.pageData(2), nullptr);
    EXPECT_EQ(t.get(2 * page + 5), 42u);
    // The rest of the new page is zero and already backed.
    EXPECT_EQ(t.get(2 * page), 0u);
    EXPECT_EQ(t.get(3 * page - 1), 0u);
    t.at(2 * page) = 1;
    t.at(3 * page - 1) = 2;
    EXPECT_EQ(t.pagesAllocated(), 1u);
    EXPECT_EQ(t.resident(2 * page), 1u);
    EXPECT_EQ(t.resident(3 * page - 1), 2u);
    // The next index is on the next page.
    t.at(3 * page) = 3;
    EXPECT_EQ(t.pagesAllocated(), 2u);
}

TEST(PagedTable, StoringZeroIntoAnAbsentPageAllocatesNothing)
{
    PagedTable<State> s(3 * page);
    s.set(page + 1, State::Invalid);
    EXPECT_EQ(s.pagesAllocated(), 0u);
    s.set(page + 1, State::Modified);
    EXPECT_EQ(s.pagesAllocated(), 1u);
    EXPECT_EQ(s.get(page + 1), State::Modified);
    // Once the page exists, Invalid is an ordinary store.
    s.set(page + 1, State::Invalid);
    EXPECT_EQ(s.get(page + 1), State::Invalid);
    EXPECT_EQ(s.pagesAllocated(), 1u);
}

TEST(PagedTable, LastEntryOfAPartialPageWorks)
{
    PagedTable<State> s(2 * page + 3);
    const uint64_t last = s.size() - 1;
    s.set(last, State::Shared);
    EXPECT_EQ(s.get(last), State::Shared);
    EXPECT_EQ(s.pagesAllocated(), 1u);
    EXPECT_NE(s.pageData(2), nullptr);
    EXPECT_EQ(s.pageLength(0), page);
    EXPECT_EQ(s.pageLength(2), 3u);
}

TEST(PagedTable, ClearFreesEveryPage)
{
    PagedTable<uint32_t> t(3 * page);
    t.at(0) = 1;
    t.at(2 * page) = 2;
    EXPECT_EQ(t.pagesAllocated(), 2u);
    t.clear();
    EXPECT_EQ(t.pagesAllocated(), 0u);
    EXPECT_EQ(t.get(0), 0u);
    EXPECT_EQ(t.get(2 * page), 0u);
}
