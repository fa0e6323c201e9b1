// Plain uint64_t counters that real threads may bump concurrently.
//
// Stats structs keep plain fields, so their layout and the single-threaded
// simulator's reads stay as they are; the sites that client or agent
// threads of the threaded backend can reach at once bump and read through
// a relaxed std::atomic_ref instead.
#pragma once

#include <atomic>
#include <cstdint>

namespace bionicdb::common {

/// Adds `n` and returns the value before the add.
inline uint64_t RelaxedAdd(uint64_t& counter, uint64_t n = 1) {
  return std::atomic_ref<uint64_t>(counter).fetch_add(
      n, std::memory_order_relaxed);
}

/// Reads a counter that other threads may be bumping with RelaxedAdd.
inline uint64_t RelaxedLoad(const uint64_t& counter) {
  // std::atomic_ref<const T> is not in C++20; the counters read here are
  // never const objects, only reached through const paths.
  return std::atomic_ref<uint64_t>(const_cast<uint64_t&>(counter))
      .load(std::memory_order_relaxed);
}

}  // namespace bionicdb::common
