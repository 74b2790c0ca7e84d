// KeyMap / KeySet against an ordered std::map reference. Seeded random
// inserts, finds, erases and clears run over inline and spilled keys, across
// every growth boundary, and over keys chosen to collide on their home slot
// and to wrap around the end of a small table, where backward-shift
// deletion has to move exactly the right slots. After every step the table
// must hold exactly the reference's keys and values, miss every other key,
// and ForEach must visit each live key exactly once.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/key_map.h"
#include "common/rng.h"

namespace grub {
namespace {

using Reference = std::map<Bytes, uint64_t>;

// A pool of `n` distinct keys, lengths 0..40: keys of up to
// StoredKey::kInline bytes sit inline, longer ones spill to the heap.
std::vector<Bytes> KeyPool(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::map<Bytes, bool> seen;
  std::vector<Bytes> keys;
  while (keys.size() < n) {
    Bytes key(rng.NextBounded(41));
    for (auto& b : key) b = static_cast<uint8_t>(rng.NextBounded(256));
    if (seen.emplace(key, true).second) keys.push_back(std::move(key));
  }
  return keys;
}

void ExpectMatches(const KeyMap<uint64_t>& map, const Reference& ref,
                   const std::vector<Bytes>& pool) {
  ASSERT_EQ(map.size(), ref.size());
  ASSERT_EQ(map.empty(), ref.empty());
  for (const Bytes& key : pool) {
    const uint64_t* found = map.Find(key);
    const auto it = ref.find(key);
    if (it == ref.end()) {
      ASSERT_EQ(found, nullptr) << "absent key found, " << key.size() << "B";
    } else {
      ASSERT_NE(found, nullptr) << "live key missing, " << key.size() << "B";
      ASSERT_EQ(*found, it->second);
    }
  }
  Reference visited;
  map.ForEach([&](ByteSpan key, const uint64_t& value) {
    EXPECT_TRUE(visited.emplace(Bytes(key.begin(), key.end()), value).second)
        << "ForEach visited a key twice";
  });
  ASSERT_EQ(visited, ref);
}

// One seeded random step: insert (new or existing), erase (live or
// absent), or, rarely, clear and reuse.
void RandomStep(Rng& rng, KeyMap<uint64_t>& map, Reference& ref,
                const std::vector<Bytes>& pool, size_t max_live) {
  const Bytes& key = pool[rng.NextBounded(pool.size())];
  const uint64_t roll = rng.NextBounded(1000);
  if (roll == 0) {
    map.clear();
    ref.clear();
  } else if (roll < 550 && (ref.size() < max_live || ref.count(key) != 0)) {
    const uint64_t value = rng.NextU64();
    const auto [slot, inserted] = map.FindOrInsert(key);
    ASSERT_EQ(inserted, ref.count(key) == 0);
    if (inserted) {
      ASSERT_EQ(*slot, 0u);  // value-initialized
    }
    *slot = value;
    ref[key] = value;
  } else {
    ASSERT_EQ(map.Erase(key), ref.erase(key) == 1);
  }
}

TEST(KeyMap, RandomOpsMatchOrderedReference) {
  for (uint64_t seed : {1, 2, 3}) {
    const std::vector<Bytes> pool = KeyPool(300, seed);
    Rng rng(seed * 7919);
    KeyMap<uint64_t> map;
    Reference ref;
    for (int step = 0; step < 8'000; ++step) {
      RandomStep(rng, map, ref, pool, pool.size());
      ASSERT_NO_FATAL_FAILURE(ExpectMatches(map, ref, pool))
          << "seed " << seed << " step " << step;
    }
  }
}

TEST(KeyMap, EveryGrowthBoundary) {
  // Inserting one key at a time crosses every doubling (at 13, 25, 49, ...
  // keys); erasing them all in a shuffled order then runs backward shifts
  // through every table size on the way down.
  const std::vector<Bytes> pool = KeyPool(1000, 11);
  KeyMap<uint64_t> map;
  Reference ref;
  for (size_t i = 0; i < pool.size(); ++i) {
    map[pool[i]] = i;
    ref[pool[i]] = i;
    ASSERT_NO_FATAL_FAILURE(ExpectMatches(map, ref, pool)) << "insert " << i;
  }
  std::vector<Bytes> order = pool;
  Rng rng(12);
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBounded(i + 1)]);
  }
  for (size_t i = 0; i < order.size(); ++i) {
    ASSERT_TRUE(map.Erase(order[i]));
    ref.erase(order[i]);
    ASSERT_NO_FATAL_FAILURE(ExpectMatches(map, ref, pool)) << "erase " << i;
  }
}

TEST(KeyMap, ReserveThenFillNeverLosesKeys) {
  const std::vector<Bytes> pool = KeyPool(500, 21);
  KeyMap<uint64_t> map;
  Reference ref;
  map.reserve(200);
  for (size_t i = 0; i < pool.size(); ++i) {
    map[pool[i]] = i;
    ref[pool[i]] = i;
    if (i == 100) map.reserve(400);  // growing a populated table
  }
  ExpectMatches(map, ref, pool);
}

TEST(KeyMap, CollidingHomesAndWrapAroundInASmallTable) {
  // A table of at most 12 keys keeps its first 16 slots. Every pool key's
  // home is one of the last three slots or the first two, so probe runs
  // collide, cross the end of the array and continue at slot 0, and erases
  // shift slots back across the wrap — including slots that sit in their
  // home position and must not move.
  std::vector<Bytes> pool;
  std::map<size_t, int> per_home;
  for (uint64_t i = 0; pool.size() < 24; ++i) {
    Bytes key = ToBytes("collide-" + std::to_string(i));
    if (i % 3 == 0) key.resize(30, 'x');  // a spilled key every third
    const size_t home = HashKey(key) & 15;
    if ((home >= 13 || home <= 1) && per_home[home] < 6) {
      per_home[home] += 1;
      pool.push_back(std::move(key));
    }
  }
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    KeyMap<uint64_t> map;
    Reference ref;
    for (int step = 0; step < 2'000; ++step) {
      RandomStep(rng, map, ref, pool, 12);
      ASSERT_NO_FATAL_FAILURE(ExpectMatches(map, ref, pool))
          << "seed " << seed << " step " << step;
    }
  }
}

TEST(KeyMap, SpilledKeysCopyAndMoveWithTheirTable) {
  const Bytes inline_key = ToBytes("k000000000000016");
  const Bytes spilled_key(StoredKey::kInline + 9, 0xAB);
  KeyMap<Bytes> map;
  map[inline_key] = ToBytes("a");
  map[spilled_key] = ToBytes("b");

  KeyMap<Bytes> copy = map;  // deep copy: the spilled key is duplicated
  map.Erase(spilled_key);
  map[inline_key] = ToBytes("changed");
  ASSERT_NE(copy.Find(spilled_key), nullptr);
  EXPECT_EQ(*copy.Find(spilled_key), ToBytes("b"));
  EXPECT_EQ(*copy.Find(inline_key), ToBytes("a"));

  KeyMap<Bytes> moved = std::move(copy);
  ASSERT_NE(moved.Find(spilled_key), nullptr);
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(map.Find(spilled_key), nullptr);
}

TEST(KeySet, TracksMembershipOverInlineAndSpilledKeys) {
  const std::vector<Bytes> pool = KeyPool(200, 31);
  KeySet set;
  std::map<Bytes, bool> ref;
  Rng rng(32);
  for (int step = 0; step < 5'000; ++step) {
    const Bytes& key = pool[rng.NextBounded(pool.size())];
    if (rng.NextBool(0.6)) {
      ASSERT_EQ(set.Insert(key), ref.emplace(key, true).second);
    } else {
      ASSERT_EQ(set.Erase(key), ref.erase(key) == 1);
    }
    ASSERT_EQ(set.size(), ref.size());
    ASSERT_EQ(set.Contains(key), ref.count(key) == 1);
  }
  std::map<Bytes, bool> visited;
  set.ForEach([&](ByteSpan key) {
    EXPECT_TRUE(visited.emplace(Bytes(key.begin(), key.end()), true).second);
  });
  EXPECT_EQ(visited, ref);
  set.clear();
  EXPECT_TRUE(set.empty());
  for (const Bytes& key : pool) EXPECT_FALSE(set.Contains(key));
}

}  // namespace
}  // namespace grub
