/**
 * @file
 * Digest of one job's simulated statistics. Two runs of the same job
 * on the same seed must produce the same digest whatever the host
 * does, so host-time fields are left out on purpose.
 */

#ifndef MPOS_HOSTBENCH_DIGEST_HH
#define MPOS_HOSTBENCH_DIGEST_HH

#include <cstdint>

#include "core/experiment.hh"

namespace hostbench
{

/**
 * FNV-1a over the job's MissCounts, CycleAccount, elapsed cycles,
 * OS-operation counts, sync-transport operation counts, lock
 * profiles, monitor transaction counts and kernel event counters.
 */
uint64_t statsDigest(mpos::core::Experiment &exp);

} // namespace hostbench

#endif // MPOS_HOSTBENCH_DIGEST_HH
