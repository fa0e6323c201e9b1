// Memory-lean storage tests: the slabbed record heap, the front-coded
// packed key index (with randomized property checks of its one search
// against std::map), the CompactStore load/finalize/serve life cycle with
// its post-load delta (plus a random-op model test), an allocation check
// on the finalized point lookup, and a TATP run through a compact-storage
// engine producing the same commits as the paged/B+Tree engine.
//
// Defines the counting operator-new hook for this binary.
#define BIONICDB_ALLOC_HOOK_DEFINE
#include "bench/alloc_hook.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "engine/engine.h"
#include "index/codec.h"
#include "sim/simulator.h"
#include "storage/compact.h"
#include "storage/slab.h"
#include "workload/driver.h"
#include "workload/tatp.h"

namespace bionicdb::storage {
namespace {

// ----------------------------------------------------------- slab heap --

TEST(SlabHeapTest, InsertGetRoundTrip) {
  SlabHeap heap;
  std::vector<std::pair<uint64_t, std::string>> rows;
  for (int i = 0; i < 1000; ++i) {
    const std::string rec = "record-" + std::to_string(i * 7919);
    rows.emplace_back(heap.Insert(Slice(rec)), rec);
  }
  for (const auto& [h, rec] : rows) {
    EXPECT_EQ(heap.Get(h).ToString(), rec);
  }
  EXPECT_GT(heap.live_bytes(), 0u);
  EXPECT_EQ(heap.dead_bytes(), 0u);
  EXPECT_EQ(heap.allocated_bytes() % SlabHeap::kSlabBytes, 0u);
}

TEST(SlabHeapTest, UpdateInPlaceWithinCapacity) {
  SlabHeap heap;
  const uint64_t h = heap.Insert(Slice("12345678"));  // cap rounds to 8
  EXPECT_TRUE(heap.UpdateInPlace(h, Slice("abcdefgh")));
  EXPECT_EQ(heap.Get(h).ToString(), "abcdefgh");
  // Shrinking fits too.
  EXPECT_TRUE(heap.UpdateInPlace(h, Slice("xy")));
  EXPECT_EQ(heap.Get(h).ToString(), "xy");
  // Growth past the entry's capacity is refused, entry untouched.
  EXPECT_FALSE(heap.UpdateInPlace(h, Slice("123456789")));
  EXPECT_EQ(heap.Get(h).ToString(), "xy");
}

TEST(SlabHeapTest, NoteDeadAccountsFreedSpace) {
  SlabHeap heap;
  const uint64_t h1 = heap.Insert(Slice("aaaaaaaa"));
  const uint64_t h2 = heap.Insert(Slice("bbbbbbbb"));
  const uint64_t live_before = heap.live_bytes();
  heap.NoteDead(h1);
  EXPECT_LT(heap.live_bytes(), live_before);
  EXPECT_GT(heap.dead_bytes(), 0u);
  // The surviving record is untouched.
  EXPECT_EQ(heap.Get(h2).ToString(), "bbbbbbbb");
}

TEST(SlabHeapTest, RecordsNeverSpanSlabs) {
  SlabHeap heap;
  // Fill most of a slab, then insert something that cannot fit the tail.
  const std::string big(40000, 'x');
  const uint64_t h1 = heap.Insert(Slice(big));
  const uint64_t h2 = heap.Insert(Slice(big));  // forces a fresh slab
  EXPECT_EQ(heap.Get(h1).size(), big.size());
  EXPECT_EQ(heap.Get(h2).size(), big.size());
  EXPECT_GE(heap.allocated_bytes(), 2 * SlabHeap::kSlabBytes);
}

// ----------------------------------------------------- packed key index --

std::string Key(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "subscriber/%08d", i);
  return buf;
}

TEST(PackedKeyIndexTest, RankAndLowerBound) {
  std::vector<std::pair<std::string, uint64_t>> run;
  for (int i = 0; i < 500; ++i) run.emplace_back(Key(2 * i), uint64_t(i));
  PackedKeyIndex idx;
  idx.Build(std::move(run));

  ASSERT_EQ(idx.size(), 500u);
  EXPECT_GE(idx.height(), 1);
  for (int i = 0; i < 500; ++i) {
    const size_t rank = idx.Rank(Slice(Key(2 * i)));
    ASSERT_NE(rank, PackedKeyIndex::kNpos) << Key(2 * i);
    EXPECT_EQ(idx.value(rank), uint64_t(i));
    // Odd keys are absent; LowerBound lands on the next even key.
    EXPECT_EQ(idx.Rank(Slice(Key(2 * i + 1))), PackedKeyIndex::kNpos);
    EXPECT_EQ(idx.LowerBound(Slice(Key(2 * i + 1))), size_t(i + 1));
  }
  EXPECT_EQ(idx.LowerBound(Slice("zzz")), idx.size());
  EXPECT_EQ(idx.LowerBound(Slice("")), 0u);
}

TEST(PackedKeyIndexTest, IteratorDecodesEveryKeyInOrder) {
  std::vector<std::pair<std::string, uint64_t>> run;
  for (int i = 0; i < 300; ++i) run.emplace_back(Key(i), uint64_t(i) * 10);
  PackedKeyIndex idx;
  idx.Build(std::move(run));

  int i = 0;
  for (auto it = idx.Begin(); it.Valid(); it.Next(), ++i) {
    EXPECT_EQ(it.key().ToString(), Key(i));
    EXPECT_EQ(it.value(), uint64_t(i) * 10);
  }
  EXPECT_EQ(i, 300);
}

TEST(PackedKeyIndexTest, FrontCodingBeatsRawKeys) {
  std::vector<std::pair<std::string, uint64_t>> run;
  uint64_t raw = 0;
  for (int i = 0; i < 10000; ++i) {
    run.emplace_back(Key(i), uint64_t(i));
    raw += run.back().first.size();
  }
  PackedKeyIndex idx;
  idx.Build(std::move(run));
  // Shared "subscriber/000..." prefixes compress away; the index must
  // undercut raw keys even counting its value array and directories.
  EXPECT_LT(idx.memory_bytes(), raw + 10000 * sizeof(uint64_t));
}

TEST(PackedKeyIndexTest, ValuesAreUpdatableInPlace) {
  std::vector<std::pair<std::string, uint64_t>> run;
  for (int i = 0; i < 100; ++i) run.emplace_back(Key(i), 0);
  PackedKeyIndex idx;
  idx.Build(std::move(run));
  const size_t rank = idx.Rank(Slice(Key(42)));
  ASSERT_NE(rank, PackedKeyIndex::kNpos);
  idx.set_value(rank, 777);
  EXPECT_EQ(idx.value(idx.Rank(Slice(Key(42)))), 777u);
}

/// Random byte keys built to stress the search: bytes from an alphabet
/// spanning 0x00 (zero padding in the prefix directory) and >= 0x80
/// (unsigned order), short keys that prefix longer ones, and the empty key.
/// With `shared_prefix`, most keys sit behind one 8-byte prefix and the
/// rest are truncations of it, so block-first keys tie in the directory.
std::string RandomKey(Rng* rng, bool shared_prefix) {
  static constexpr char kAlphabet[] = {'\x00', '\x01', 'a',    'b',
                                       '\x7f', '\x80', '\xfe', '\xff'};
  static const std::string kPrefix("\x80\x00pre\xff\x01\x00", 8);
  std::string k;
  if (shared_prefix) {
    if (rng->Uniform(8) == 0) return kPrefix.substr(0, rng->Uniform(9));
    k = kPrefix;
  }
  const size_t len = rng->Uniform(12);
  for (size_t i = 0; i < len; ++i) k.push_back(kAlphabet[rng->Uniform(8)]);
  return k;
}

/// Checks Rank, LowerBound and Seek for `probe` against the sorted key
/// list the index was built from (values are ranks), and walks the Seek
/// iterator across the next block boundary.
void ExpectSearchMatches(const PackedKeyIndex& idx,
                         const std::vector<std::string>& sorted,
                         const std::string& probe) {
  const size_t want = static_cast<size_t>(
      std::lower_bound(sorted.begin(), sorted.end(), probe) - sorted.begin());
  const bool found = want < sorted.size() && sorted[want] == probe;
  ASSERT_EQ(idx.LowerBound(Slice(probe)), want)
      << testing::PrintToString(probe);
  ASSERT_EQ(idx.Rank(Slice(probe)), found ? want : PackedKeyIndex::kNpos)
      << testing::PrintToString(probe);
  auto it = idx.Seek(Slice(probe));
  const size_t stop =
      std::min(sorted.size(), want + PackedKeyIndex::kBlockEntries + 2);
  for (size_t r = want; r < stop; ++r, it.Next()) {
    ASSERT_TRUE(it.Valid()) << testing::PrintToString(probe);
    ASSERT_EQ(it.rank(), r);
    ASSERT_EQ(it.key().ToString(), sorted[r]) << testing::PrintToString(probe);
    ASSERT_EQ(it.value(), uint64_t(r));
  }
  if (stop == sorted.size()) {
    EXPECT_FALSE(it.Valid());
  }
}

TEST(PackedKeyIndexTest, SearchMatchesStdMapOnRandomKeys) {
  for (bool shared_prefix : {false, true}) {
    for (size_t n : {size_t{1}, size_t{63}, size_t{64}, size_t{65},
                     size_t{129}, size_t{1000}}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " shared_prefix="
                                      << shared_prefix);
      Rng rng(n * 2 + (shared_prefix ? 1 : 0));
      std::set<std::string> keys;
      if (!shared_prefix) keys.insert("");  // the empty key is a key too
      while (keys.size() < n) keys.insert(RandomKey(&rng, shared_prefix));
      const std::vector<std::string> sorted(keys.begin(), keys.end());
      std::vector<std::pair<std::string, uint64_t>> run;
      for (size_t r = 0; r < sorted.size(); ++r) run.emplace_back(sorted[r], r);
      PackedKeyIndex idx;
      idx.Build(std::move(run));
      ASSERT_EQ(idx.size(), n);

      std::vector<std::string> probes = {"", std::string(20, '\xff'),
                                         std::string(1, '\x00')};
      for (const std::string& k : sorted) {
        probes.push_back(k);
        probes.push_back(k + '\x00');
        probes.push_back(k + '\xff');
        if (!k.empty()) {
          probes.push_back(k.substr(0, k.size() - 1));
          std::string up = k, down = k;
          ++up.back();
          --down.back();
          probes.push_back(up);
          probes.push_back(down);
        }
      }
      for (int i = 0; i < 200; ++i) {
        probes.push_back(RandomKey(&rng, shared_prefix));
        probes.push_back(RandomKey(&rng, !shared_prefix));
      }
      for (const std::string& p : probes) {
        ExpectSearchMatches(idx, sorted, p);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(PackedKeyIndexTest, EmptyIndex) {
  PackedKeyIndex idx;
  idx.Build({});
  EXPECT_EQ(idx.Rank(Slice("a")), PackedKeyIndex::kNpos);
  EXPECT_EQ(idx.LowerBound(Slice("a")), 0u);
  EXPECT_FALSE(idx.Seek(Slice("")).Valid());
  EXPECT_FALSE(idx.Begin().Valid());
}

// --------------------------------------------------------- compact store --

TEST(CompactStoreTest, LoadFinalizeServe) {
  CompactStore store;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store.Load(Slice(Key(i)), Slice("v" + std::to_string(i))).ok());
  }
  store.Finalize();
  ASSERT_TRUE(store.finalized());
  for (int i = 0; i < 200; ++i) {
    int visits = 0;
    auto r = store.Get(Slice(Key(i)), &visits);
    ASSERT_TRUE(r.ok()) << Key(i);
    EXPECT_EQ(r->ToString(), "v" + std::to_string(i));
    EXPECT_GE(visits, 1);
  }
  EXPECT_FALSE(store.Get(Slice("missing"), nullptr).ok());
  EXPECT_GT(store.memory_bytes(), 0u);
}

TEST(CompactStoreTest, DeltaAbsorbsPostLoadMutations) {
  CompactStore store;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store.Load(Slice(Key(i)), Slice("packed")).ok());
  }
  store.Finalize();

  // Overwrite a packed row, insert a new row, delete a packed row.
  ASSERT_TRUE(store.Put(Slice(Key(10)), Slice("updated")).ok());
  ASSERT_TRUE(store.Put(Slice("zzz-new"), Slice("fresh")).ok());
  ASSERT_TRUE(store.Delete(Slice(Key(20))).ok());

  EXPECT_EQ(store.Get(Slice(Key(10)), nullptr)->ToString(), "updated");
  EXPECT_EQ(store.Get(Slice("zzz-new"), nullptr)->ToString(), "fresh");
  EXPECT_FALSE(store.Contains(Slice(Key(20))));
  EXPECT_FALSE(store.Get(Slice(Key(20)), nullptr).ok());
  EXPECT_TRUE(store.Contains(Slice(Key(30))));  // untouched packed row
}

std::map<std::string, std::string> ScanAllOf(const CompactStore& store) {
  std::map<std::string, std::string> out;
  store.Scan(Slice(""), Slice(), [&](Slice k, Slice v) {
    out[k.ToString()] = v.ToString();
    return true;
  });
  return out;
}

TEST(CompactStoreTest, ScanMergesPackedAndDelta) {
  CompactStore store;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(store.Load(Slice(Key(i)), Slice("p")).ok());
  }
  store.Finalize();
  ASSERT_TRUE(store.Put(Slice(Key(5)), Slice("patched")).ok());
  ASSERT_TRUE(store.Delete(Slice(Key(7))).ok());
  ASSERT_TRUE(store.Put(Slice(Key(100)), Slice("delta-only")).ok());

  const auto all = ScanAllOf(store);
  EXPECT_EQ(all.size(), 20u);  // 20 - 1 deleted + 1 inserted
  EXPECT_EQ(all.at(Key(5)), "patched");
  EXPECT_EQ(all.count(Key(7)), 0u);
  EXPECT_EQ(all.at(Key(100)), "delta-only");

  // Bounded scan respects [lo, hi).
  std::vector<std::string> seen;
  store.Scan(Slice(Key(3)), Slice(Key(6)), [&](Slice k, Slice) {
    seen.push_back(k.ToString());
    return true;
  });
  EXPECT_EQ(seen, (std::vector<std::string>{Key(3), Key(4), Key(5)}));
}

TEST(CompactStoreTest, CompactFoldsDeltaBack) {
  CompactStore store;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Load(Slice(Key(i)), Slice("p")).ok());
  }
  store.Finalize();
  ASSERT_TRUE(store.Put(Slice(Key(3)), Slice("patched")).ok());
  ASSERT_TRUE(store.Delete(Slice(Key(4))).ok());
  ASSERT_TRUE(store.Put(Slice("zzz"), Slice("new")).ok());
  const auto before = ScanAllOf(store);

  // Compact returns the size of the rebuilt packed run: 100 loaded - 1
  // deleted + 1 inserted.
  EXPECT_EQ(store.Compact(), before.size());
  // Same logical content, now fully packed; a second Compact is a
  // content-preserving no-op rebuild.
  EXPECT_EQ(ScanAllOf(store), before);
  EXPECT_EQ(store.Compact(), before.size());
  EXPECT_EQ(store.Get(Slice(Key(3)), nullptr)->ToString(), "patched");
  EXPECT_FALSE(store.Contains(Slice(Key(4))));
}

/// Random Get/Put/Delete/Scan traffic with occasional Compact(), checked
/// op by op against a std::map.
TEST(CompactStoreTest, RandomOpsMatchStdMap) {
  for (bool shared_prefix : {false, true}) {
    SCOPED_TRACE(testing::Message() << "shared_prefix=" << shared_prefix);
    Rng rng(shared_prefix ? 11 : 5);
    CompactStore store;
    std::map<std::string, std::string> model;
    for (int i = 0; i < 300; ++i) {
      const std::string k = RandomKey(&rng, shared_prefix);
      if (model.count(k) != 0) continue;
      const std::string v = "load-" + std::to_string(i);
      ASSERT_TRUE(store.Load(Slice(k), Slice(v)).ok());
      model[k] = v;
    }
    store.Finalize();
    for (int op = 0; op < 20000; ++op) {
      std::string k = RandomKey(&rng, shared_prefix);
      if (rng.Uniform(2) == 0) {
        // Half the traffic targets a live key.
        auto live = model.lower_bound(k);
        if (live == model.end()) live = model.begin();
        if (live != model.end()) k = live->first;
      }
      switch (rng.Uniform(10)) {
        case 0:
        case 1:
        case 2: {
          auto r = store.Get(Slice(k), nullptr);
          auto m = model.find(k);
          ASSERT_EQ(r.ok(), m != model.end()) << op;
          if (r.ok()) {
            ASSERT_EQ(r->ToString(), m->second) << op;
          }
          break;
        }
        case 3:
        case 4:
        case 5: {
          // Lengths vary so updates both fit in place and relocate.
          const std::string v(rng.Uniform(40), char('a' + op % 26));
          bool inserted = false;
          ASSERT_TRUE(store.Put(Slice(k), Slice(v), &inserted).ok());
          ASSERT_EQ(inserted, model.count(k) == 0) << op;
          model[k] = v;
          break;
        }
        case 6:
        case 7:
          ASSERT_EQ(store.Delete(Slice(k)).ok(), model.erase(k) == 1) << op;
          break;
        case 8: {
          // [lo, hi) with an empty hi unbounded, stopped after `cap` rows.
          const std::string hi =
              rng.Uniform(3) == 0 ? "" : RandomKey(&rng, shared_prefix);
          const size_t cap = 1 + rng.Uniform(80);
          std::vector<std::pair<std::string, std::string>> got, want;
          store.Scan(Slice(k), Slice(hi), [&](Slice key, Slice rec) {
            got.emplace_back(key.ToString(), rec.ToString());
            return got.size() < cap;
          });
          for (auto m = model.lower_bound(k);
               m != model.end() && (hi.empty() || m->first < hi) &&
               want.size() < cap;
               ++m) {
            want.push_back(*m);
          }
          ASSERT_EQ(got, want) << op;
          break;
        }
        default:
          if (rng.Uniform(40) == 0) {
            ASSERT_EQ(store.Compact(), model.size()) << op;
          } else {
            ASSERT_EQ(store.Contains(Slice(k)), model.count(k) == 1) << op;
          }
      }
    }
    EXPECT_EQ(ScanAllOf(store), model);
  }
}

/// A point lookup on a finalized store, hit or miss, packed or delta,
/// must not touch the heap: no key string, no iterator state.
TEST(CompactStoreTest, FinalizedGetAllocatesNothing) {
  CompactStore store;
  std::vector<std::string> probes;
  for (uint64_t i = 0; i < 3000; ++i) {
    // TATP-shaped 16- and 24-byte keys: past the std::string SSO limit.
    const std::string k16 = index::EncodeKeyU64Pair(i, i % 4);
    const std::string k24 = k16 + index::EncodeKeyU64(i * 7);
    ASSERT_TRUE(store.Load(Slice(k16), Slice("record-16")).ok());
    ASSERT_TRUE(store.Load(Slice(k24), Slice("record-24")).ok());
    probes.push_back(k16);
    probes.push_back(k24);
    probes.push_back(index::EncodeKeyU64Pair(i, 9));  // a miss
  }
  store.Finalize();
  // Post-load writes leave a live delta to probe through.
  const std::string fresh = index::EncodeKeyU64Pair(5000, 1);
  ASSERT_TRUE(store.Put(Slice(fresh), Slice("fresh")).ok());
  ASSERT_TRUE(store.Delete(Slice(probes[0])).ok());
  probes.push_back(fresh);

  uint64_t sink = 0;
  const uint64_t before = bench::AllocCount();
  for (const std::string& k : probes) {
    int visits = 0;
    auto r = store.Get(Slice(k), &visits);
    sink += r.ok() ? r->size() : 1;
  }
  const uint64_t allocs = bench::AllocCount() - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(sink, probes.size());
}

// ------------------------------------------------------- engine e2e --

/// A compact-storage engine must produce exactly the same closed-loop
/// TATP outcome as the paged/B+Tree engine: commits and final table
/// contents. Single client, so no wait-die races: any outcome
/// difference would be a data divergence, not a timing artifact.
/// (Virtual time is NOT compared — probe costs are modeled per
/// structure, and differing is the point.)
TEST(CompactEngineTest, TatpMatchesPagedEngineOutcome) {
  using engine::Engine;
  using engine::EngineConfig;
  using workload::DriverConfig;
  using workload::TatpConfig;
  using workload::TatpWorkload;

  const auto run = [](bool compact) {
    sim::Simulator sim;
    EngineConfig cfg = EngineConfig::Dora();
    cfg.num_partitions = 4;
    cfg.compact_storage = compact;
    Engine engine(&sim, cfg);
    TatpConfig wcfg;
    wcfg.subscribers = 300;
    TatpWorkload tatp(&engine, wcfg);
    BIONICDB_CHECK(tatp.Load().ok());
    DriverConfig dcfg;
    dcfg.clients = 1;
    dcfg.warmup_txns = 50;
    dcfg.measured_txns = 500;
    sim.Spawn(workload::RunClosedLoop(
        &engine, [&] { return tatp.NextTransaction(); }, dcfg, nullptr));
    sim.Run();

    std::map<std::string, std::string> state;
    for (uint32_t id = 0; id < engine.db().num_tables(); ++id) {
      engine::Table* t = engine.db().GetTable(id);
      for (auto& [k, v] : t->ScanAll()) state[t->name() + "/" + k] = v;
    }
    return std::make_pair(engine.metrics().commits, state);
  };

  const auto [paged_commits, paged_state] = run(false);
  const auto [compact_commits, compact_state] = run(true);
  EXPECT_EQ(compact_commits, paged_commits);
  EXPECT_EQ(compact_state, paged_state);
  EXPECT_GT(paged_commits, 0u);
}

}  // namespace
}  // namespace bionicdb::storage
