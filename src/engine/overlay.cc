#include "engine/overlay.h"

#include <algorithm>

#include "common/relaxed_counter.h"

namespace bionicdb::engine {

Result<std::string> Overlay::Get(Slice key) const {
  int visits = 0;
  return GetTraced(key, &visits);
}

Result<std::string> Overlay::GetTraced(Slice key, int* node_visits) const {
  auto r = GetTracedView(key, node_visits);
  if (!r.ok()) return r.status();
  return r->ToString();
}

Result<Slice> Overlay::GetView(Slice key) const {
  int visits = 0;
  return GetTracedView(key, &visits);
}

Result<Slice> Overlay::GetTracedView(Slice key, int* node_visits) const {
  auto r = index_.GetTracedView(key, node_visits);
  // Probes run under SHARED table ownership on the threaded backend
  // (mutations are exclusive), so hit/miss are the only overlay stats
  // concurrent threads bump, as in BTree's probe counters.
  if (!r.ok()) {
    common::RelaxedAdd(stats_.misses);
    return Status::OutOfMemory("key not resident in overlay");
  }
  common::RelaxedAdd(stats_.hits);
  Slice tagged = *r;
  BIONICDB_DCHECK(!tagged.empty());
  if (tagged[0] == 'D') {
    return Status::NotFound("deleted (overlay tombstone)");
  }
  tagged.RemovePrefix(1);
  return tagged;
}

void Overlay::Put(Slice key, Slice record) {
  BIONICDB_CHECK(index_.Insert(key, Tag('L', record), /*overwrite=*/true).ok());
  dirty_.insert(key.ToString());
}

void Overlay::Delete(Slice key) {
  BIONICDB_CHECK(index_.Insert(key, Tag('D', Slice()), /*overwrite=*/true).ok());
  dirty_.insert(key.ToString());
}

void Overlay::InstallClean(Slice key, Slice record) {
  BIONICDB_CHECK(index_.Insert(key, Tag('L', record), /*overwrite=*/true).ok());
  ++stats_.installs;
  clean_fifo_.push_back(key.ToString());
  EnforceCapacity();
}

void Overlay::EnforceCapacity() {
  if (capacity_ == 0) return;
  while (index_.size() > capacity_ && !clean_fifo_.empty()) {
    const std::string victim = std::move(clean_fifo_.front());
    clean_fifo_.pop_front();
    if (dirty_.count(victim)) continue;        // pinned until merge
    if (index_.Delete(victim).ok()) ++clean_evictions_;
  }
}

Status Overlay::EvictClean(Slice key) {
  if (dirty_.count(key.ToString())) {
    return Status::Busy("entry is dirty; merge before evicting");
  }
  return index_.Delete(key);
}

std::vector<std::pair<std::string, std::optional<std::string>>>
Overlay::TakeDirty() {
  auto out = DirtySnapshot();
  // Tombstones leave the overlay entirely after the merge; live rows stay
  // as clean cached entries (now evictable).
  for (auto& [key, rec] : out) {
    if (!rec.has_value()) {
      BIONICDB_CHECK(index_.Delete(key).ok());
    } else {
      clean_fifo_.push_back(key);
    }
  }
  dirty_.clear();
  EnforceCapacity();
  ++stats_.merges;
  stats_.merged_rows += out.size();
  return out;
}

std::vector<std::pair<std::string, std::optional<std::string>>>
Overlay::DirtySnapshot() const {
  std::vector<std::pair<std::string, std::optional<std::string>>> out;
  out.reserve(dirty_.size());
  for (const std::string& key : dirty_) {
    auto r = index_.Get(key);
    BIONICDB_CHECK(r.ok());  // dirty entries are always present
    const std::string& tagged = *r;
    if (tagged[0] == 'D') {
      out.emplace_back(key, std::nullopt);
    } else {
      out.emplace_back(key, tagged.substr(1));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace bionicdb::engine
