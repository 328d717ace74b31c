#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "exec/hash_table.h"

namespace smartssd::exec {
namespace {

std::vector<std::byte> Payload(std::int64_t v) {
  std::vector<std::byte> payload(8);
  std::memcpy(payload.data(), &v, 8);
  return payload;
}

TEST(JoinHashTableTest, InsertAndProbe) {
  JoinHashTable table(8, 16);
  ASSERT_TRUE(table.Insert(1, Payload(100)).ok());
  ASSERT_TRUE(table.Insert(2, Payload(200)).ok());
  const std::byte* hit = table.Probe(1);
  ASSERT_NE(hit, nullptr);
  std::int64_t v;
  std::memcpy(&v, hit, 8);
  EXPECT_EQ(v, 100);
  EXPECT_EQ(table.Probe(3), nullptr);
  EXPECT_EQ(table.entries(), 2u);
}

TEST(JoinHashTableTest, DuplicateKeyRejected) {
  JoinHashTable table(8, 16);
  ASSERT_TRUE(table.Insert(1, Payload(100)).ok());
  auto status = table.Insert(1, Payload(999));
  EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
  // Original payload intact.
  std::int64_t v;
  std::memcpy(&v, table.Probe(1), 8);
  EXPECT_EQ(v, 100);
}

TEST(JoinHashTableTest, WrongPayloadWidthRejected) {
  JoinHashTable table(4, 16);
  EXPECT_FALSE(table.Insert(1, Payload(9)).ok());  // 8 bytes into 4-wide
}

TEST(JoinHashTableTest, ZeroWidthPayload) {
  JoinHashTable table(0, 4);
  ASSERT_TRUE(table.Insert(5, {}).ok());
  // A hit returns a (possibly empty) non-null sentinel... probe semantics:
  // key 5 present.
  EXPECT_NE(table.Probe(5), nullptr);
  EXPECT_EQ(table.Probe(6), nullptr);
}

TEST(JoinHashTableTest, GrowsBeyondExpectedEntries) {
  JoinHashTable table(8, 4);  // deliberately undersized
  for (std::int64_t k = 0; k < 10000; ++k) {
    ASSERT_TRUE(table.Insert(k, Payload(k * 2)).ok()) << k;
  }
  EXPECT_EQ(table.entries(), 10000u);
  for (std::int64_t k = 0; k < 10000; ++k) {
    const std::byte* hit = table.Probe(k);
    ASSERT_NE(hit, nullptr) << k;
    std::int64_t v;
    std::memcpy(&v, hit, 8);
    EXPECT_EQ(v, k * 2);
  }
}

TEST(JoinHashTableTest, NegativeAndExtremeKeys) {
  JoinHashTable table(8, 8);
  const std::int64_t keys[] = {-1, 0, std::numeric_limits<std::int64_t>::min(),
                               std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t k : keys) {
    ASSERT_TRUE(table.Insert(k, Payload(k ^ 7)).ok());
  }
  for (const std::int64_t k : keys) {
    const std::byte* hit = table.Probe(k);
    ASSERT_NE(hit, nullptr);
    std::int64_t v;
    std::memcpy(&v, hit, 8);
    EXPECT_EQ(v, k ^ 7);
  }
}

TEST(JoinHashTableTest, RandomizedAgainstReference) {
  Random rng(77);
  JoinHashTable table(8, 64);
  std::unordered_map<std::int64_t, std::int64_t> reference;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t key =
        static_cast<std::int64_t>(rng.Uniform(2000));
    const std::int64_t value = static_cast<std::int64_t>(rng.NextUint64());
    const bool inserted = table.Insert(key, Payload(value)).ok();
    const bool expected_new = reference.emplace(key, value).second;
    EXPECT_EQ(inserted, expected_new);
  }
  EXPECT_EQ(table.entries(), reference.size());
  for (const auto& [key, value] : reference) {
    const std::byte* hit = table.Probe(key);
    ASSERT_NE(hit, nullptr);
    std::int64_t v;
    std::memcpy(&v, hit, 8);
    EXPECT_EQ(v, value);
  }
}

TEST(JoinHashTableTest, InsertAfterProbeIsRejected) {
  JoinHashTable table(8, 16);
  ASSERT_TRUE(table.Insert(1, Payload(100)).ok());
  EXPECT_FALSE(table.sealed());
  ASSERT_NE(table.Probe(1), nullptr);
  EXPECT_TRUE(table.sealed());
  // Inserting now could grow `payloads_` and dangle the pointer a
  // caller is still holding from Probe(); the table must refuse.
  auto status = table.Insert(2, Payload(200));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(table.entries(), 1u);
  // A missed probe seals too — the caller has still observed layout.
  JoinHashTable miss_table(8, 16);
  EXPECT_EQ(miss_table.Probe(42), nullptr);
  EXPECT_EQ(miss_table.Insert(1, Payload(1)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(JoinHashTableTest, PayloadPointersStableOnceSealed) {
  // Grow far past the reserve so `payloads_` reallocates during build;
  // pointers handed out after sealing must all stay valid and correct.
  JoinHashTable table(8, 2);  // deliberately undersized reserve
  constexpr std::int64_t kEntries = 4096;
  for (std::int64_t k = 0; k < kEntries; ++k) {
    ASSERT_TRUE(table.Insert(k, Payload(k * 3)).ok()) << k;
  }
  std::vector<const std::byte*> hits;
  hits.reserve(kEntries);
  for (std::int64_t k = 0; k < kEntries; ++k) {
    const std::byte* hit = table.Probe(k);
    ASSERT_NE(hit, nullptr) << k;
    hits.push_back(hit);
  }
  // Any further insert is refused, so the pointers cannot be moved.
  EXPECT_FALSE(table.Insert(kEntries, Payload(0)).ok());
  for (std::int64_t k = 0; k < kEntries; ++k) {
    std::int64_t v;
    std::memcpy(&v, hits[static_cast<std::size_t>(k)], 8);
    EXPECT_EQ(v, k * 3) << k;
  }
}

TEST(JoinHashTableTest, MovedFromTableIsEmptyAndReusable) {
  // Regression: the defaulted move operations left the moved-from table
  // with an empty slot vector, so its next Probe() hashed modulo zero.
  // The custom moves must reset the source to a valid empty table.
  JoinHashTable a(8, 16);
  ASSERT_TRUE(a.Insert(1, Payload(100)).ok());
  ASSERT_TRUE(a.Insert(2, Payload(200)).ok());

  JoinHashTable b(std::move(a));
  std::int64_t v;
  std::memcpy(&v, b.Probe(1), 8);
  EXPECT_EQ(v, 100);
  std::memcpy(&v, b.Probe(2), 8);
  EXPECT_EQ(v, 200);

  // The source is empty but fully operational: probes miss (no crash),
  // and it accepts fresh inserts.
  EXPECT_EQ(a.entries(), 0u);
  EXPECT_EQ(a.Probe(1), nullptr);
  JoinHashTable c(8, 16);
  ASSERT_TRUE(c.Insert(7, Payload(700)).ok());
  JoinHashTable d(8, 16);
  d = std::move(c);
  std::memcpy(&v, d.Probe(7), 8);
  EXPECT_EQ(v, 700);
  EXPECT_EQ(c.entries(), 0u);
  EXPECT_EQ(c.Probe(7), nullptr);
}

TEST(JoinHashTableTest, MemoryEstimateCoversActualUsage) {
  const std::uint64_t entries = 5000;
  const std::uint64_t estimate = JoinHashTable::EstimateBytes(entries, 8);
  JoinHashTable table(8, entries);
  for (std::int64_t k = 0; k < static_cast<std::int64_t>(entries); ++k) {
    ASSERT_TRUE(table.Insert(k, Payload(k)).ok());
  }
  EXPECT_LE(table.memory_bytes(), estimate + estimate / 4);
  EXPECT_GE(estimate, table.memory_bytes() / 2);
}

// Probes `keys` through ProbeBatch and through Probe, and checks both
// against a brute-force scan of `reference` (key -> payload value).
void ExpectLookupsMatch(
    const JoinHashTable& table,
    const std::unordered_map<std::int64_t, std::int64_t>& reference,
    const std::vector<std::int64_t>& keys) {
  std::vector<const std::byte*> hits(keys.size());
  table.ProbeBatch(keys.data(), keys.size(), hits.data());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::int64_t key = keys[i];
    EXPECT_EQ(hits[i], table.Probe(key)) << key;
    const std::int64_t* want = nullptr;
    for (const auto& [k, v] : reference) {
      if (k == key) want = &v;
    }
    if (want == nullptr) {
      EXPECT_EQ(hits[i], nullptr) << key;
      continue;
    }
    ASSERT_NE(hits[i], nullptr) << key;
    std::int64_t v;
    std::memcpy(&v, hits[i], 8);
    EXPECT_EQ(v, *want) << key;
  }
}

TEST(JoinHashTableTest, DenseAndSparseKeysBatchedLookupMatchesProbe) {
  Random rng(91);
  // Dense: keys 1..N, the shape of TPC-H PART. Sparse: keys scattered
  // over a range far wider than twice the entry count.
  for (const bool dense : {true, false}) {
    JoinHashTable table(8, 64);
    std::unordered_map<std::int64_t, std::int64_t> reference;
    for (std::int64_t i = 1; i <= 500; ++i) {
      const std::int64_t key =
          dense ? i : static_cast<std::int64_t>(rng.Uniform(1u << 30));
      if (!reference.emplace(key, key * 5).second) continue;
      ASSERT_TRUE(table.Insert(key, Payload(key * 5)).ok());
    }
    std::vector<std::int64_t> keys;
    for (const auto& [k, v] : reference) keys.push_back(k);
    for (int i = 0; i < 300; ++i) {
      keys.push_back(static_cast<std::int64_t>(rng.Uniform(1u << 30)));
      keys.push_back(static_cast<std::int64_t>(rng.Uniform(600)) - 50);
    }
    ExpectLookupsMatch(table, reference, keys);
    EXPECT_TRUE(table.sealed());
  }
}

TEST(JoinHashTableTest, KeysAroundTheRangeAndNegativeKeys) {
  // -40..39 with every third key missing, probed just outside both
  // ends, far outside and at the int64 limits.
  JoinHashTable table(8, 16);
  std::unordered_map<std::int64_t, std::int64_t> reference;
  for (std::int64_t k = -40; k < 40; ++k) {
    if (k % 3 == 0) continue;
    reference.emplace(k, k * 11);
    ASSERT_TRUE(table.Insert(k, Payload(k * 11)).ok());
  }
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::vector<std::int64_t> keys = {
      -41, -40, -39, -3, -1, 0, 1, 38, 39, 40, 41, kMin, kMin + 1, kMax,
      kMax - 1, -1000, 1000};
  ExpectLookupsMatch(table, reference, keys);
}

TEST(JoinHashTableTest, ZeroWidthPayloadsThroughProbeBatch) {
  JoinHashTable table(0, 8);
  for (std::int64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(table.Insert(i * 1000, {}).ok());
  }
  const std::vector<std::int64_t> keys = {0, 1000, 7000, 8000, -1};
  std::vector<const std::byte*> hits(keys.size());
  table.ProbeBatch(keys.data(), keys.size(), hits.data());
  EXPECT_NE(hits[0], nullptr);
  EXPECT_NE(hits[1], nullptr);
  EXPECT_NE(hits[2], nullptr);
  EXPECT_EQ(hits[3], nullptr);
  EXPECT_EQ(hits[4], nullptr);
}

TEST(JoinHashTableTest, BatchedLookupAfterMove) {
  JoinHashTable a(8, 16);
  std::unordered_map<std::int64_t, std::int64_t> reference;
  for (std::int64_t i = 1; i <= 20; ++i) {
    reference.emplace(i, i);
    ASSERT_TRUE(a.Insert(i, Payload(i)).ok());
  }
  const std::byte* before = a.Probe(1);  // seals
  JoinHashTable b(std::move(a));
  EXPECT_EQ(b.Probe(1), before);  // payload pool moved wholesale
  ExpectLookupsMatch(b, reference, {0, 1, 20, 21});
  EXPECT_EQ(a.Probe(1), nullptr);
  JoinHashTable c(8, 4);
  c = std::move(b);
  ExpectLookupsMatch(c, reference, {1, 2, 19});
}

}  // namespace
}  // namespace smartssd::exec
