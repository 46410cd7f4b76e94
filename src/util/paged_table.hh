/**
 * @file
 * A fixed-length array whose storage is allocated a page at a time,
 * on the first write into each page.
 *
 * The simulator keeps some state per (CPU, physical line): the L2
 * coherence state and the miss classifier's history. A dense array
 * costs CPUs x physical memory even though a CPU touches only a small
 * part of memory, so at 32-64 CPUs the dense tables alone exhaust the
 * host. A PagedTable is a vector of page pointers: an entry in a page
 * that was never written reads as T{} (0 / Invalid), and a page is
 * allocated, value-initialized, when something is first stored in
 * it. Indexing stays by position, so layout and iteration order are
 * deterministic.
 *
 * The table does no bounds checking of its own; its users check the
 * index against size() where a bad index is possible.
 */

#ifndef MPOS_UTIL_PAGED_TABLE_HH
#define MPOS_UTIL_PAGED_TABLE_HH

#include <cstdint>
#include <memory>
#include <vector>

namespace mpos::util
{

template <typename T>
class PagedTable
{
  public:
    static constexpr unsigned pageShift = 12;
    /** Entries per page. */
    static constexpr uint64_t pageEntries = uint64_t(1) << pageShift;

    explicit PagedTable(uint64_t entries = 0)
        : n(entries), pages((entries + pageEntries - 1) >> pageShift)
    {
    }

    /** Number of entries (the index bound). */
    uint64_t size() const { return n; }

    /** Entry i; T{} if its page was never written. */
    T
    get(uint64_t i) const
    {
        const T *p = pages[i >> pageShift].get();
        return p ? p[i & pageMask] : T{};
    }

    /** Entry i for writing; allocates its page on first use. */
    T &
    at(uint64_t i)
    {
        return page(i >> pageShift)[i & pageMask];
    }

    /** Store v at i. Storing T{} into an absent page allocates nothing. */
    void
    set(uint64_t i, T v)
    {
        T *p = pages[i >> pageShift].get();
        if (!p) [[unlikely]] {
            if (v == T{})
                return;
            p = alloc(i >> pageShift);
        }
        p[i & pageMask] = v;
    }

    /**
     * Entry i without the null test. Only for an index whose page the
     * caller knows to exist (it holds a value other than T{}).
     */
    T &resident(uint64_t i) { return pages[i >> pageShift][i & pageMask]; }

    /** Number of page slots (allocated or not). */
    uint64_t numPages() const { return pages.size(); }

    /** Entries of page pg that lie below size(): the last may be short. */
    uint64_t
    pageLength(uint64_t pg) const
    {
        const uint64_t first = pg << pageShift;
        return n - first < pageEntries ? n - first : pageEntries;
    }

    /** Page pg's storage, or null if nothing was ever written to it. */
    const T *pageData(uint64_t pg) const { return pages[pg].get(); }

    /** Page pg's storage, allocating it (value-initialized) if absent. */
    T *
    page(uint64_t pg)
    {
        T *p = pages[pg].get();
        return p ? p : alloc(pg);
    }

    /** Pages currently allocated. */
    uint64_t
    pagesAllocated() const
    {
        uint64_t k = 0;
        for (const auto &p : pages)
            k += p != nullptr;
        return k;
    }

    /** Free every page: all entries read T{} again. */
    void
    clear()
    {
        for (auto &p : pages)
            p.reset();
    }

  private:
    static constexpr uint64_t pageMask = pageEntries - 1;

    /** Out of line, so the accessors stay small enough to inline into
     *  the simulator's hit paths. */
    [[gnu::noinline]] T *
    alloc(uint64_t pg)
    {
        pages[pg] = std::make_unique<T[]>(pageEntries);
        return pages[pg].get();
    }

    uint64_t n;
    std::vector<std::unique_ptr<T[]>> pages;
};

} // namespace mpos::util

#endif // MPOS_UTIL_PAGED_TABLE_HH
