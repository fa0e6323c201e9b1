// The threaded substrate of the engine: what differs when an op or a
// transaction runs on real threads instead of in the simulator. The ops and
// the transaction lifecycle are written once, in engine.cc; here are only
// the pieces they branch to when `threaded_` is set — attach (which also
// points the XctManager's log seam at the ThreadedWal), the table mutexes,
// and the scratch copy of returned views.
//
// Locking: per-table std::shared_mutex guards the physical structures
// (B+Tree nodes, overlay arena, pages) — point reads take it shared, any
// structural mutation exclusive. Logical row conflicts never reach these
// locks: DORA partition-local locks (or the conventional-mode global
// mutex) serialize same-key access exactly as in the simulator. Table
// locks are never held across a WAL append or another table's lock, so no
// ordering discipline is needed between them. The one cross-table
// structure is the engine-wide SimDisk page map, guarded by disk_mu_
// (see engine.h) and always taken inside the table-lock scope.

#include <array>
#include <string>

#include "engine/engine.h"
#include "exec/threaded.h"

namespace bionicdb::engine {

void Engine::AttachThreadedBackend(exec::ThreadedBackend* backend) {
  threaded_ = backend;
  xm_->AttachThreadedWal(backend != nullptr ? &backend->wal() : nullptr);
  if (backend == nullptr) return;
  // Compact stores are single-simulator-task structures (no latching);
  // the real-thread backend keeps the paged heap.
  BIONICDB_CHECK_MSG(!config_.compact_storage,
                     "compact storage is not supported on the threaded "
                     "backend");
  table_mu_.clear();
  for (size_t i = 0; i < db_->num_tables(); ++i) {
    table_mu_.push_back(std::make_unique<std::shared_mutex>());
  }
}

std::shared_mutex& Engine::TableMutex(const Table* table) {
  BIONICDB_CHECK(table->id() < table_mu_.size());
  return *table_mu_[table->id()];
}

/// Views alias engine-owned memory that other threads may move (B+Tree
/// splits, overlay arena growth on *other* keys), so the bytes are copied
/// out under the table lock into a per-thread rotating scratch ring. A slot
/// lives until the same thread's 8th next view — far beyond the "decode
/// before the next engine call" contract the simulator already imposes.
Slice Engine::ScratchCopy(Slice v) {
  static thread_local std::array<std::string, 8> scratch;
  static thread_local size_t next = 0;
  std::string& slot = scratch[next++ & 7];
  slot.assign(v.data(), v.size());
  return Slice(slot);
}

}  // namespace bionicdb::engine
