/**
 * @file
 * Counting global allocator for the benchmark binary. Counting is off
 * except between allocCountStart() and allocCountStop(), which returns
 * the net bytes (allocated minus freed, by usable block size) the code
 * in between left live. While counting, no other thread may allocate:
 * the benchmark counts only between passes, on its main thread.
 */

#ifndef MPOS_HOSTBENCH_ALLOC_COUNT_HH
#define MPOS_HOSTBENCH_ALLOC_COUNT_HH

#include <cstdint>

namespace hostbench
{

void allocCountStart();
int64_t allocCountStop();

} // namespace hostbench

#endif // MPOS_HOSTBENCH_ALLOC_COUNT_HH
