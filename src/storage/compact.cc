#include "storage/compact.h"

#include <algorithm>
#include <cstring>

namespace bionicdb::storage {

namespace {

/// Big-endian first 8 bytes of `key`, zero-padded. Where two of these
/// differ, integer order agrees with the keys' byte order; equal prefixes
/// leave the order open.
uint64_t Prefix8(Slice key) {
  unsigned char b[8] = {};
  std::memcpy(b, key.data(), std::min<size_t>(key.size(), 8));
  uint64_t v = 0;
  for (unsigned char c : b) v = (v << 8) | c;
  return v;
}

size_t CommonPrefix(const char* a, const char* b, size_t n) {
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

}  // namespace

// ---------------------------------------------------------- PackedKeyIndex --

void PackedKeyIndex::Build(std::vector<std::pair<std::string, uint64_t>>&& run) {
  arena_.clear();
  block_off_.clear();
  first_arena_.clear();
  first_off_.clear();
  prefix_.clear();
  values_.clear();
  values_.reserve(run.size());
  const size_t blocks = (run.size() + kBlockEntries - 1) / kBlockEntries;
  block_off_.reserve(blocks);
  first_off_.reserve(blocks + 1);
  prefix_.reserve(blocks);
  first_off_.push_back(0);
  std::string prev;
  for (size_t i = 0; i < run.size(); ++i) {
    const std::string& key = run[i].first;
    BIONICDB_CHECK_MSG(key.size() <= kMaxKeyBytes,
                       "key too long for compact storage");
    if (i > 0) {
      BIONICDB_CHECK_MSG(prev < key, "compact build run not sorted-unique");
    }
    if (i % kBlockEntries == 0) {
      block_off_.push_back(static_cast<uint32_t>(arena_.size()));
      first_arena_.append(key);
      first_off_.push_back(static_cast<uint32_t>(first_arena_.size()));
      prefix_.push_back(Prefix8(Slice(key)));
    } else {
      const size_t shared = CommonPrefix(prev.data(), key.data(),
                                         std::min(prev.size(), key.size()));
      arena_.push_back(static_cast<char>(shared));
      arena_.push_back(static_cast<char>(key.size() - shared));
      arena_.append(key, shared, std::string::npos);
    }
    values_.push_back(run[i].second);
    prev = key;
  }
  arena_.shrink_to_fit();
  first_arena_.shrink_to_fit();
  height_ = 1;
  for (size_t n = block_off_.size(); n > 1;
       n = (n + kBlockEntries - 1) / kBlockEntries) {
    ++height_;
  }
  run.clear();
  run.shrink_to_fit();
}

Slice PackedKeyIndex::BlockFirst(size_t block) const {
  return Slice(first_arena_.data() + first_off_[block],
               first_off_[block + 1] - first_off_[block]);
}

PackedKeyIndex::Iterator::Iterator(const PackedKeyIndex* idx, size_t block)
    : idx_(idx) {
  StartBlock(block);
}

void PackedKeyIndex::Iterator::StartBlock(size_t block) {
  rank_ = block * kBlockEntries;
  if (block >= idx_->num_blocks()) {
    rank_ = idx_->size();
    return;
  }
  const Slice first = idx_->BlockFirst(block);
  std::memcpy(buf_, first.data(), first.size());
  len_ = first.size();
  pos_ = idx_->block_off_[block];
}

void PackedKeyIndex::Iterator::Next() {
  ++rank_;
  if (rank_ >= idx_->size()) return;
  if (rank_ % kBlockEntries == 0) {
    StartBlock(rank_ / kBlockEntries);
    return;
  }
  const char* p = idx_->arena_.data() + pos_;
  const size_t shared = static_cast<unsigned char>(p[0]);
  const size_t slen = static_cast<unsigned char>(p[1]);
  std::memcpy(buf_ + shared, p + 2, slen);
  len_ = shared + slen;
  pos_ += static_cast<uint32_t>(2 + slen);
}

size_t PackedKeyIndex::FindBlock(Slice key) const {
  const uint64_t kp = Prefix8(key);
  size_t hi = static_cast<size_t>(
      std::upper_bound(prefix_.begin(), prefix_.end(), kp) - prefix_.begin());
  if (hi > 0 && prefix_[hi - 1] == kp) {
    // Blocks whose prefix ties with the key's: only full compares order
    // them against it. Find the first one whose first key is > key.
    size_t lo = static_cast<size_t>(
        std::lower_bound(prefix_.begin(), prefix_.begin() + hi, kp) -
        prefix_.begin());
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (BlockFirst(mid).Compare(key) <= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
  }
  return hi == 0 ? kNpos : hi - 1;
}

template <bool kRebuild>
size_t PackedKeyIndex::Search(Slice key, bool* exact, Iterator* it) const {
  *exact = false;
  const size_t block = FindBlock(key);
  if (block == kNpos) {
    // Precedes every key (or there are none).
    if constexpr (kRebuild) it->StartBlock(0);
    return 0;
  }
  if constexpr (kRebuild) it->StartBlock(block);
  // Invariant: the last key passed sorts below `key` and shares exactly
  // its first `match` bytes with it.
  const Slice first = BlockFirst(block);
  size_t match = CommonPrefix(first.data(), key.data(),
                              std::min(first.size(), key.size()));
  size_t rank = block * kBlockEntries;
  if (match == first.size() && match == key.size()) {
    *exact = true;
    return rank;
  }
  const size_t end = std::min(size(), rank + kBlockEntries);
  const char* p = arena_.data() + block_off_[block];
  for (++rank; rank < end; ++rank) {
    const size_t shared = static_cast<unsigned char>(p[0]);
    const size_t slen = static_cast<unsigned char>(p[1]);
    const char* suffix = p + 2;
    p += 2 + slen;
    if constexpr (kRebuild) {
      std::memcpy(it->buf_ + shared, suffix, slen);
      it->len_ = shared + slen;
      it->pos_ = static_cast<uint32_t>(p - arena_.data());
      it->rank_ = rank;
    }
    // Agrees with the last key below `key` past `match`: also below.
    if (shared > match) continue;
    // Diverges upward from that key before `match`: above `key`.
    if (shared < match) return rank;
    const size_t rest = key.size() - match;
    const size_t n = std::min(slen, rest);
    const size_t common = CommonPrefix(suffix, key.data() + match, n);
    if (common == n) {
      if (slen == rest) {
        *exact = true;
        return rank;
      }
      if (slen > rest) return rank;  // `key` is a proper prefix: above
    } else if (static_cast<unsigned char>(suffix[common]) >
               static_cast<unsigned char>(key[match + common])) {
      return rank;
    }
    match += common;
  }
  // Every key in the block sorts below `key`.
  if constexpr (kRebuild) it->StartBlock(block + 1);
  return rank;
}

size_t PackedKeyIndex::Rank(Slice key) const {
  bool exact = false;
  const size_t rank = Search<false>(key, &exact, nullptr);
  return exact ? rank : kNpos;
}

size_t PackedKeyIndex::LowerBound(Slice key) const {
  bool exact = false;
  return Search<false>(key, &exact, nullptr);
}

PackedKeyIndex::Iterator PackedKeyIndex::Seek(Slice key) const {
  Iterator it(this, num_blocks());
  bool exact = false;
  Search<true>(key, &exact, &it);
  return it;
}

uint64_t PackedKeyIndex::memory_bytes() const {
  return arena_.capacity() + first_arena_.capacity() +
         block_off_.capacity() * sizeof(uint32_t) +
         first_off_.capacity() * sizeof(uint32_t) +
         prefix_.capacity() * sizeof(uint64_t) +
         values_.capacity() * sizeof(uint64_t);
}

// ------------------------------------------------------------ CompactStore --

Status CompactStore::Load(Slice key, Slice record) {
  if (finalized_) return Put(key, record);
  staging_.emplace_back(key.ToString(), heap_.Insert(record));
  return Status::OK();
}

void CompactStore::Finalize() {
  if (finalized_) return;
  std::sort(staging_.begin(), staging_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  index_.Build(std::move(staging_));
  staging_.clear();
  staging_.shrink_to_fit();
  finalized_ = true;
}

bool CompactStore::Contains(Slice key) const {
  return Get(key, nullptr).ok();
}

Result<Slice> CompactStore::Get(Slice key, int* visits) const {
  if (visits != nullptr) *visits = index_.height();
  auto it = delta_.find(key.ToView());
  if (it != delta_.end()) {
    if (it->second == kTombstone) return Status::NotFound("key not found");
    return heap_.Get(it->second);
  }
  const size_t rank = index_.Rank(key);
  if (rank == PackedKeyIndex::kNpos) return Status::NotFound("key not found");
  return heap_.Get(index_.value(rank));
}

Status CompactStore::Put(Slice key, Slice record, bool* inserted) {
  if (inserted != nullptr) *inserted = false;
  auto it = delta_.find(key.ToView());
  if (it != delta_.end()) {
    if (it->second != kTombstone) {
      if (heap_.UpdateInPlace(it->second, record)) return Status::OK();
      heap_.NoteDead(it->second);
    } else if (inserted != nullptr) {
      *inserted = true;
    }
    it->second = heap_.Insert(record);
    return Status::OK();
  }
  const size_t rank = index_.Rank(key);
  if (rank != PackedKeyIndex::kNpos) {
    const uint64_t h = index_.value(rank);
    if (heap_.UpdateInPlace(h, record)) return Status::OK();
    heap_.NoteDead(h);
    index_.set_value(rank, heap_.Insert(record));
    return Status::OK();
  }
  delta_.emplace(key.ToString(), heap_.Insert(record));
  if (inserted != nullptr) *inserted = true;
  return Status::OK();
}

Status CompactStore::Delete(Slice key) {
  auto it = delta_.find(key.ToView());
  if (it != delta_.end()) {
    if (it->second == kTombstone) return Status::NotFound("key not found");
    heap_.NoteDead(it->second);
    // A key also present in the packed run needs a tombstone to mask it;
    // a delta-only key just disappears.
    if (index_.Rank(key) == PackedKeyIndex::kNpos) {
      delta_.erase(it);
    } else {
      it->second = kTombstone;
    }
    return Status::OK();
  }
  const size_t rank = index_.Rank(key);
  if (rank == PackedKeyIndex::kNpos) return Status::NotFound("key not found");
  heap_.NoteDead(index_.value(rank));
  delta_[key.ToString()] = kTombstone;
  return Status::OK();
}

void CompactStore::Scan(
    Slice lo, Slice hi,
    const std::function<bool(Slice key, Slice record)>& fn) const {
  auto pit = index_.Seek(lo);
  auto dit = delta_.lower_bound(lo.ToView());
  const auto in_range = [&hi](Slice k) {
    return hi.empty() || k.Compare(hi) < 0;
  };
  for (;;) {
    const bool pv = pit.Valid() && in_range(pit.key());
    const bool dv = dit != delta_.end() && in_range(Slice(dit->first));
    if (!pv && !dv) return;
    int c;
    if (pv && dv) {
      c = pit.key().Compare(Slice(dit->first));
    } else {
      c = pv ? -1 : 1;
    }
    if (c < 0) {
      if (!fn(pit.key(), heap_.Get(pit.value()))) return;
      pit.Next();
    } else {
      // Delta wins ties: it holds the key's tombstone or relocated row.
      if (dit->second != kTombstone) {
        if (!fn(Slice(dit->first), heap_.Get(dit->second))) return;
      }
      if (c == 0) pit.Next();
      ++dit;
    }
  }
}

size_t CompactStore::Compact() {
  std::vector<std::pair<std::string, uint64_t>> run;
  run.reserve(index_.size() + delta_.size());
  auto pit = index_.Begin();
  auto dit = delta_.begin();
  while (pit.Valid() || dit != delta_.end()) {
    int c;
    if (pit.Valid() && dit != delta_.end()) {
      c = pit.key().Compare(Slice(dit->first));
    } else {
      c = pit.Valid() ? -1 : 1;
    }
    if (c < 0) {
      run.emplace_back(pit.key().ToString(), pit.value());
      pit.Next();
    } else {
      if (dit->second != kTombstone) run.emplace_back(dit->first, dit->second);
      if (c == 0) pit.Next();
      ++dit;
    }
  }
  const size_t merged = run.size();
  index_.Build(std::move(run));
  delta_.clear();
  finalized_ = true;
  return merged;
}

uint64_t CompactStore::memory_bytes() const {
  // The delta's red-black nodes are estimated; it is small by construction.
  return heap_.allocated_bytes() + index_.memory_bytes() +
         delta_.size() * 64;
}

}  // namespace bionicdb::storage
