// Retry backoff shared by every driver, simulated or threaded.
#pragma once

#include <cstdint>

#include "common/random.h"

namespace bionicdb {

/// Backoff before re-executing a transaction whose `n`-th attempt (0 for
/// the first) died in wait-die: linear in the attempt, plus a jitter drawn
/// uniformly from [0, base), so correlated retry storms of similarly-aged
/// transactions spread out instead of colliding again. Zero base means an
/// immediate retry and draws nothing from `rng` (Uniform(0) is a contract
/// violation), which keeps zero-backoff runs' random streams unchanged.
inline uint64_t RetryBackoffNs(uint64_t base_ns, int n, Rng& rng) {
  if (base_ns == 0) return 0;
  const uint64_t jitter = rng.Uniform(base_ns);
  return base_ns * static_cast<uint64_t>(n + 1) + jitter;
}

}  // namespace bionicdb
