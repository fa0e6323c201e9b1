#include "index/btree.h"

#include <algorithm>
#include <cstring>

#include "common/relaxed_counter.h"

namespace bionicdb::index {

namespace {

/// Compact a node arena once dead bytes dominate and the arena is big
/// enough for the copy to pay off.
constexpr size_t kCompactMinBytes = 1024;

}  // namespace

/// First eight key bytes as a big-endian word, zero-padded. Byte order on
/// these words never contradicts lexicographic byte order (zero padding can
/// only tie against real bytes, never exceed them), so binary search can
/// resolve most comparisons from the reference array alone and only touch
/// the key arena on prefix ties.
inline uint64_t KeyPrefix(Slice key) {
  unsigned char buf[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::memcpy(buf, key.data(), key.size() < 8 ? key.size() : 8);
  uint64_t le;
  std::memcpy(&le, buf, 8);
  return __builtin_bswap64(le);
}

/// A key reference: arena location plus the cached search prefix.
struct BTreeKeyRef {
  uint32_t off;
  uint32_t len;
  uint64_t prefix;
};

/// A value reference into a leaf's value arena.
struct BTreeValRef {
  uint32_t off;
  uint32_t len;
};

struct BTree::Node {
  bool leaf;
  /// Key bytes; may contain dead gaps from deletes/splits.
  std::vector<char> karena;
  /// Sorted key references into `karena`.
  std::vector<BTreeKeyRef> keys;
  uint32_t kdead = 0;

  explicit Node(bool is_leaf) : leaf(is_leaf) {}

  size_t NumKeys() const { return keys.size(); }

  Slice KeyAt(size_t i) const {
    const BTreeKeyRef& r = keys[i];
    return Slice(karena.data() + r.off, r.len);
  }

  /// Appends key bytes and inserts the reference at sorted position `pos`.
  void InsertKey(size_t pos, Slice key) {
    const uint32_t off = static_cast<uint32_t>(karena.size());
    karena.insert(karena.end(), key.data(), key.data() + key.size());
    keys.insert(
        keys.begin() + static_cast<long>(pos),
        BTreeKeyRef{off, static_cast<uint32_t>(key.size()), KeyPrefix(key)});
  }

  /// Appends a key at the end (bulk-build path; keys must arrive sorted).
  void AppendKey(Slice key) { InsertKey(keys.size(), key); }

  void EraseKey(size_t pos) {
    kdead += keys[pos].len;
    keys.erase(keys.begin() + static_cast<long>(pos));
  }

  /// Rewrites the arena with only live bytes. Invalidates key views.
  void CompactKeys() {
    std::vector<char> fresh;
    size_t live = 0;
    for (const BTreeKeyRef& r : keys) live += r.len;
    fresh.reserve(live);
    for (BTreeKeyRef& r : keys) {
      const uint32_t off = static_cast<uint32_t>(fresh.size());
      fresh.insert(fresh.end(), karena.data() + r.off,
                   karena.data() + r.off + r.len);
      r.off = off;
    }
    karena = std::move(fresh);
    kdead = 0;
  }

  void MaybeCompactKeys() {
    if (kdead > karena.size() / 2 && karena.size() >= kCompactMinBytes) {
      CompactKeys();
    }
  }
};

struct BTree::Inner : BTree::Node {
  // children.size() == keys.size() + 1; child[i] holds keys < keys[i],
  // child[i+1] holds keys >= keys[i].
  std::vector<Node*> children;
  Inner() : Node(false) {}
};

struct BTree::Leaf : BTree::Node {
  /// Value bytes; may contain dead gaps from overwrites/deletes.
  std::vector<char> varena;
  /// Value references, parallel to `keys`.
  std::vector<BTreeValRef> vals;
  uint32_t vdead = 0;
  Leaf* next = nullptr;
  Leaf() : Node(true) {}

  Slice ValueAt(size_t i) const {
    const BTreeValRef& r = vals[i];
    return Slice(varena.data() + r.off, r.len);
  }

  void InsertValue(size_t pos, Slice value) {
    const uint32_t off = static_cast<uint32_t>(varena.size());
    varena.insert(varena.end(), value.data(), value.data() + value.size());
    vals.insert(vals.begin() + static_cast<long>(pos),
                BTreeValRef{off, static_cast<uint32_t>(value.size())});
  }

  void AppendValue(Slice value) { InsertValue(vals.size(), value); }

  /// Overwrites the value at `pos`: in place when the new value fits in the
  /// old slot, otherwise appended to the arena (old bytes become dead).
  void SetValue(size_t pos, Slice value) {
    BTreeValRef& r = vals[pos];
    if (value.size() <= r.len) {
      std::memcpy(varena.data() + r.off, value.data(), value.size());
      vdead += r.len - static_cast<uint32_t>(value.size());
      r.len = static_cast<uint32_t>(value.size());
      return;
    }
    vdead += r.len;
    r.off = static_cast<uint32_t>(varena.size());
    r.len = static_cast<uint32_t>(value.size());
    varena.insert(varena.end(), value.data(), value.data() + value.size());
  }

  void EraseValue(size_t pos) {
    vdead += vals[pos].len;
    vals.erase(vals.begin() + static_cast<long>(pos));
  }

  void CompactValues() {
    std::vector<char> fresh;
    size_t live = 0;
    for (const BTreeValRef& r : vals) live += r.len;
    fresh.reserve(live);
    for (BTreeValRef& r : vals) {
      const uint32_t off = static_cast<uint32_t>(fresh.size());
      fresh.insert(fresh.end(), varena.data() + r.off,
                   varena.data() + r.off + r.len);
      r.off = off;
    }
    varena = std::move(fresh);
    vdead = 0;
  }

  void MaybeCompactValues() {
    if (vdead > varena.size() / 2 && varena.size() >= kCompactMinBytes) {
      CompactValues();
    }
  }
};

/// Index of the child covering `key` in an inner node: first separator
/// greater than key.
size_t BTree::ChildIndex(const Node& node, Slice key) {
  const char* base = node.karena.data();
  const BTreeKeyRef* refs = node.keys.data();
  const uint64_t kp = KeyPrefix(key);
  size_t lo = 0, hi = node.keys.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    const BTreeKeyRef& r = refs[mid];
    const int c = (r.prefix != kp)
                      ? (r.prefix < kp ? -1 : 1)
                      : Slice(base + r.off, r.len).Compare(key);
    if (c <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Index of the first key >= `key` in a node.
size_t BTree::LowerBound(const Node& node, Slice key) {
  const char* base = node.karena.data();
  const BTreeKeyRef* refs = node.keys.data();
  const uint64_t kp = KeyPrefix(key);
  size_t lo = 0, hi = node.keys.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    const BTreeKeyRef& r = refs[mid];
    const int c = (r.prefix != kp)
                      ? (r.prefix < kp ? -1 : 1)
                      : Slice(base + r.off, r.len).Compare(key);
    if (c < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

BTree::Leaf* BTree::LeftmostLeafFor(Node* node) {
  while (!node->leaf) node = static_cast<Inner*>(node)->children.front();
  return static_cast<Leaf*>(node);
}

BTree::BTree(const BTreeConfig& config) : config_(config) {
  BIONICDB_CHECK(config_.inner_fanout >= 3);
  BIONICDB_CHECK(config_.leaf_capacity >= 2);
  root_ = new Leaf();
}

BTree::~BTree() { FreeNode(root_); }

void BTree::FreeNode(Node* node) {
  if (!node->leaf) {
    for (Node* c : static_cast<Inner*>(node)->children) FreeNode(c);
  }
  if (node->leaf) {
    delete static_cast<Leaf*>(node);
  } else {
    delete static_cast<Inner*>(node);
  }
}

BTree::Leaf* BTree::FindLeaf(Slice key, int* node_visits) const {
  int visits = 0;
  Node* node = root_;
  ++visits;
  while (!node->leaf) {
    Inner* inner = static_cast<Inner*>(node);
    node = inner->children[ChildIndex(*inner, key)];
    ++visits;
  }
  if (node_visits) *node_visits = visits;
  return static_cast<Leaf*>(node);
}

Status BTree::Insert(Slice key, Slice value, bool overwrite) {
  Status st = Status::OK();
  SplitResult split = InsertRec(root_, key, value, overwrite, &st);
  if (!st.ok()) return st;
  if (split.split) {
    Inner* new_root = new Inner();
    new_root->AppendKey(split.separator);
    new_root->children.push_back(root_);
    new_root->children.push_back(split.right);
    root_ = new_root;
    ++height_;
  }
  return Status::OK();
}

BTree::SplitResult BTree::InsertRec(Node* node, Slice key, Slice value,
                                    bool overwrite, Status* st) {
  if (node->leaf) {
    Leaf* leaf = static_cast<Leaf*>(node);
    const size_t pos = LowerBound(*leaf, key);
    if (pos < leaf->NumKeys() && leaf->KeyAt(pos) == key) {
      if (!overwrite) {
        *st = Status::AlreadyExists("duplicate key");
        return {};
      }
      leaf->SetValue(pos, value);
      leaf->MaybeCompactValues();
      return {};
    }
    leaf->InsertKey(pos, key);
    leaf->InsertValue(pos, value);
    ++size_;
    ++stats_.inserts;
    if (leaf->NumKeys() <= static_cast<size_t>(config_.leaf_capacity)) {
      return {};
    }
    // Split the leaf: upper half moves to a new right sibling (compact by
    // construction); the left half's arenas are compacted to drop the
    // moved bytes.
    Leaf* right = new Leaf();
    const size_t n = leaf->NumKeys();
    const size_t mid = n / 2;
    right->keys.reserve(n - mid);
    right->vals.reserve(n - mid);
    for (size_t i = mid; i < n; ++i) {
      right->AppendKey(leaf->KeyAt(i));
      right->AppendValue(leaf->ValueAt(i));
    }
    leaf->keys.resize(mid);
    leaf->vals.resize(mid);
    leaf->CompactKeys();
    leaf->CompactValues();
    right->next = leaf->next;
    leaf->next = right;
    ++stats_.splits;
    SplitResult out;
    out.split = true;
    out.separator = right->KeyAt(0).ToString();
    out.right = right;
    return out;
  }

  Inner* inner = static_cast<Inner*>(node);
  const size_t ci = ChildIndex(*inner, key);
  SplitResult child_split =
      InsertRec(inner->children[ci], key, value, overwrite, st);
  if (!st->ok() || !child_split.split) return {};

  inner->InsertKey(ci, child_split.separator);
  inner->children.insert(inner->children.begin() + static_cast<long>(ci) + 1,
                         child_split.right);
  if (inner->children.size() <= static_cast<size_t>(config_.inner_fanout)) {
    return {};
  }
  // Split the inner node: middle separator moves up.
  Inner* right = new Inner();
  const size_t mid = inner->NumKeys() / 2;
  SplitResult out;
  out.split = true;
  out.separator = inner->KeyAt(mid).ToString();
  const size_t n = inner->NumKeys();
  right->keys.reserve(n - mid - 1);
  for (size_t i = mid + 1; i < n; ++i) right->AppendKey(inner->KeyAt(i));
  right->children.assign(inner->children.begin() + static_cast<long>(mid) + 1,
                         inner->children.end());
  inner->keys.resize(mid);
  inner->children.resize(mid + 1);
  inner->CompactKeys();
  ++stats_.splits;
  out.right = right;
  return out;
}

Result<std::string> BTree::Get(Slice key) const {
  int visits = 0;
  return GetTraced(key, &visits);
}

Result<std::string> BTree::GetTraced(Slice key, int* node_visits) const {
  Result<Slice> view = GetTracedView(key, node_visits);
  if (!view.ok()) return view.status();
  return view->ToString();
}

Result<Slice> BTree::GetView(Slice key) const {
  int visits = 0;
  return GetTracedView(key, &visits);
}

Result<Slice> BTree::GetTracedView(Slice key, int* node_visits) const {
  Leaf* leaf = FindLeaf(key, node_visits);
  // The probe path is the one BTree entry point that runs under SHARED
  // table ownership on the threaded backend (mutations are exclusive), so
  // these two counters are the only stats that concurrent threads bump.
  common::RelaxedAdd(stats_.probes);
  common::RelaxedAdd(stats_.node_visits, static_cast<uint64_t>(*node_visits));
  const size_t pos = LowerBound(*leaf, key);
  if (pos < leaf->NumKeys() && leaf->KeyAt(pos) == key) {
    return leaf->ValueAt(pos);
  }
  return Status::NotFound("key not in index");
}

Status BTree::Update(Slice key, Slice value) {
  int visits = 0;
  Leaf* leaf = FindLeaf(key, &visits);
  const size_t pos = LowerBound(*leaf, key);
  if (pos < leaf->NumKeys() && leaf->KeyAt(pos) == key) {
    leaf->SetValue(pos, value);
    leaf->MaybeCompactValues();
    return Status::OK();
  }
  return Status::NotFound("key not in index");
}

Status BTree::Delete(Slice key) {
  bool root_empty = false;
  Status st = DeleteRec(root_, key, &root_empty);
  if (!st.ok()) return st;
  // Shrink the tree: an inner root with one child is replaced by it.
  while (!root_->leaf && static_cast<Inner*>(root_)->children.size() == 1) {
    Inner* old = static_cast<Inner*>(root_);
    root_ = old->children[0];
    old->children.clear();
    delete old;
    --height_;
  }
  return Status::OK();
}

Status BTree::DeleteRec(Node* node, Slice key, bool* empty) {
  if (node->leaf) {
    Leaf* leaf = static_cast<Leaf*>(node);
    const size_t pos = LowerBound(*leaf, key);
    if (pos >= leaf->NumKeys() || leaf->KeyAt(pos) != key) {
      return Status::NotFound("key not in index");
    }
    leaf->EraseKey(pos);
    leaf->EraseValue(pos);
    leaf->MaybeCompactKeys();
    leaf->MaybeCompactValues();
    --size_;
    ++stats_.deletes;
    *empty = leaf->NumKeys() == 0;
    return Status::OK();
  }

  Inner* inner = static_cast<Inner*>(node);
  const size_t ci = ChildIndex(*inner, key);
  bool child_empty = false;
  BIONICDB_RETURN_NOT_OK(DeleteRec(inner->children[ci], key, &child_empty));
  if (child_empty && inner->children.size() > 1) {
    // Unlink the empty child. If it is a leaf, splice the leaf chain.
    Node* victim = inner->children[ci];
    if (victim->leaf) {
      Leaf* vleaf = static_cast<Leaf*>(victim);
      // Find the left neighbor leaf to re-link. Walking from the leftmost
      // leaf is O(#leaves) but deletion-to-empty is rare.
      Leaf* prev = nullptr;
      for (Leaf* l = LeftmostLeafFor(root_); l != nullptr && l != vleaf;
           l = l->next) {
        prev = l;
      }
      if (prev) prev->next = vleaf->next;
    }
    FreeNode(victim);
    inner->children.erase(inner->children.begin() + static_cast<long>(ci));
    if (ci < inner->NumKeys()) {
      inner->EraseKey(ci);
    } else {
      inner->EraseKey(inner->NumKeys() - 1);
    }
    inner->MaybeCompactKeys();
  }
  *empty = inner->children.empty();
  return Status::OK();
}

BTree::Iterator BTree::Seek(Slice start) const {
  Iterator it;
  int visits = 0;
  Leaf* leaf = FindLeaf(start, &visits);
  size_t pos = LowerBound(*leaf, start);
  if (pos >= leaf->NumKeys()) {
    leaf = leaf->next;
    pos = 0;
  }
  it.node_ = leaf;
  it.idx_ = pos;
  return it;
}

BTree::Iterator BTree::SeekRange(Slice start, Slice end) const {
  Iterator it = Seek(start);
  it.bounded_ = true;
  it.end_ = end.ToString();
  // Clamp immediately if the first key is already out of range.
  if (it.Valid() && it.key().Compare(Slice(it.end_)) >= 0) it.node_ = nullptr;
  return it;
}

BTree::Iterator BTree::Begin() const {
  Iterator it;
  Leaf* leaf = LeftmostLeafFor(root_);
  if (leaf->NumKeys() == 0) {
    // An empty tree has one empty leaf; treat as end.
    it.node_ = leaf->next;  // nullptr unless structure is odd
  } else {
    it.node_ = leaf;
  }
  it.idx_ = 0;
  return it;
}

Slice BTree::Iterator::key() const {
  const Leaf* leaf = static_cast<const Leaf*>(node_);
  return leaf->KeyAt(idx_);
}

Slice BTree::Iterator::value() const {
  const Leaf* leaf = static_cast<const Leaf*>(node_);
  return leaf->ValueAt(idx_);
}

void BTree::Iterator::Next() {
  const Leaf* leaf = static_cast<const Leaf*>(node_);
  ++idx_;
  while (leaf && idx_ >= leaf->NumKeys()) {
    leaf = leaf->next;
    idx_ = 0;
  }
  node_ = leaf;
  if (node_ && bounded_ && key().Compare(Slice(end_)) >= 0) {
    node_ = nullptr;
  }
}

Status BTree::Rebuild(double fill_factor) {
  if (fill_factor <= 0.0 || fill_factor > 1.0) {
    return Status::InvalidArgument("fill factor must be in (0, 1]");
  }
  std::vector<std::pair<std::string, std::string>> entries;
  entries.reserve(size_);
  for (Iterator it = Begin(); it.Valid(); it.Next()) {
    entries.emplace_back(it.key().ToString(), it.value().ToString());
  }
  FreeNode(root_);

  if (entries.empty()) {
    root_ = new Leaf();
    height_ = 1;
    return Status::OK();
  }

  // Build the leaf level at the target fill.
  const size_t per_leaf = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(config_.leaf_capacity) *
                             fill_factor));
  std::vector<std::pair<Node*, std::string>> level;  // (node, min key)
  Leaf* prev = nullptr;
  for (size_t i = 0; i < entries.size(); i += per_leaf) {
    Leaf* leaf = new Leaf();
    const size_t end = std::min(entries.size(), i + per_leaf);
    for (size_t j = i; j < end; ++j) {
      leaf->AppendKey(entries[j].first);
      leaf->AppendValue(entries[j].second);
    }
    if (prev != nullptr) prev->next = leaf;
    prev = leaf;
    level.emplace_back(leaf, leaf->KeyAt(0).ToString());
  }

  // Build inner levels bottom-up until a single root remains.
  const size_t per_inner = std::max<size_t>(
      2, static_cast<size_t>(static_cast<double>(config_.inner_fanout) *
                             fill_factor));
  int levels = 1;
  while (level.size() > 1) {
    std::vector<std::pair<Node*, std::string>> next_level;
    for (size_t i = 0; i < level.size(); i += per_inner) {
      Inner* inner = new Inner();
      const size_t end = std::min(level.size(), i + per_inner);
      for (size_t j = i; j < end; ++j) {
        inner->children.push_back(level[j].first);
        if (j > i) inner->AppendKey(level[j].second);
      }
      next_level.emplace_back(inner, level[i].second);
    }
    level = std::move(next_level);
    ++levels;
  }
  root_ = level.front().first;
  height_ = levels;
  return Status::OK();
}

Status BTree::CheckInvariants() const {
  int leaf_depth = -1;
  return CheckNode(root_, 1, nullptr, nullptr, &leaf_depth);
}

Status BTree::CheckNode(const Node* node, int depth, const Slice* lo,
                        const Slice* hi, int* leaf_depth) const {
  // Keys sorted strictly ascending and within (lo, hi]. Reference sanity:
  // every ref must lie inside the arena (catches layout bugs before they
  // turn into wild reads).
  for (size_t i = 0; i < node->NumKeys(); ++i) {
    const BTreeKeyRef& r = node->keys[i];
    if (static_cast<size_t>(r.off) + r.len > node->karena.size()) {
      return Status::Corruption("key ref outside arena");
    }
    if (r.prefix != KeyPrefix(node->KeyAt(i))) {
      return Status::Corruption("stale cached key prefix");
    }
    if (i > 0 && !(node->KeyAt(i - 1) < node->KeyAt(i))) {
      return Status::Corruption("keys out of order");
    }
    if (lo && node->KeyAt(i).Compare(*lo) < 0) {
      return Status::Corruption("key below subtree lower bound");
    }
    if (hi && node->KeyAt(i).Compare(*hi) >= 0) {
      return Status::Corruption("key above subtree upper bound");
    }
  }
  if (node->leaf) {
    const Leaf* leaf = static_cast<const Leaf*>(node);
    if (leaf->keys.size() != leaf->vals.size()) {
      return Status::Corruption("leaf key/value count mismatch");
    }
    for (const BTreeValRef& r : leaf->vals) {
      if (static_cast<size_t>(r.off) + r.len > leaf->varena.size()) {
        return Status::Corruption("value ref outside arena");
      }
    }
    if (*leaf_depth == -1) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Corruption("non-uniform leaf depth");
    }
    if (depth != height_) {
      return Status::Corruption("height_ does not match actual depth");
    }
    return Status::OK();
  }
  const Inner* inner = static_cast<const Inner*>(node);
  if (inner->children.size() != inner->keys.size() + 1) {
    return Status::Corruption("inner child/separator count mismatch");
  }
  for (size_t i = 0; i < inner->children.size(); ++i) {
    const Slice clo_s = (i == 0) ? Slice() : inner->KeyAt(i - 1);
    const Slice chi_s =
        (i == inner->NumKeys()) ? Slice() : inner->KeyAt(i);
    const Slice* clo = (i == 0) ? lo : &clo_s;
    const Slice* chi = (i == inner->NumKeys()) ? hi : &chi_s;
    BIONICDB_RETURN_NOT_OK(
        CheckNode(inner->children[i], depth + 1, clo, chi, leaf_depth));
  }
  return Status::OK();
}

}  // namespace bionicdb::index
