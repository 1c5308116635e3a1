// FlatMemo, the open-addressing table behind the model's inference memos,
// and stepPrefixKey, the step memo's packed exact key.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "dsl/functions.hpp"
#include "dsl/program.hpp"
#include "fitness/flat_memo.hpp"
#include "fitness/model.hpp"

namespace nd = netsyn::dsl;
namespace nf = netsyn::fitness;

namespace {

/// Fills a row with a pattern derived from its key.
void fillRow(float* row, std::size_t width, std::uint64_t key) {
  for (std::size_t j = 0; j < width; ++j)
    row[j] = static_cast<float>((key + j) % 1000);
}

bool rowMatches(const float* row, std::size_t width, std::uint64_t key) {
  for (std::size_t j = 0; j < width; ++j)
    if (row[j] != static_cast<float>((key + j) % 1000)) return false;
  return true;
}

/// Distinct, well-spread keys.
std::uint64_t keyAt(std::size_t i) { return i * 0x9e3779b97f4a7c15ULL + 1; }

}  // namespace

TEST(FlatMemo, FindsWhatItInserted) {
  nf::FlatMemo<float> memo(3);
  EXPECT_EQ(memo.find(7), nullptr);
  // 0 and the largest key are keys like any other.
  for (const std::uint64_t key : {std::uint64_t{0}, ~std::uint64_t{0},
                                  std::uint64_t{7}}) {
    const auto [row, fresh] = memo.insert(key);
    ASSERT_TRUE(fresh);
    fillRow(row, 3, key);
  }
  EXPECT_EQ(memo.size(), 3u);
  for (const std::uint64_t key : {std::uint64_t{0}, ~std::uint64_t{0},
                                  std::uint64_t{7}}) {
    const float* row = memo.find(key);
    ASSERT_NE(row, nullptr) << key;
    EXPECT_TRUE(rowMatches(row, 3, key)) << key;
  }
  EXPECT_EQ(memo.find(8), nullptr);

  // A present key returns its row, unchanged, and adds nothing.
  const auto [again, fresh] = memo.insert(7);
  EXPECT_FALSE(fresh);
  EXPECT_EQ(again, memo.find(7));
  EXPECT_EQ(memo.size(), 3u);
  memo.insertCopy(7, std::vector<float>{9, 9, 9}.data());
  EXPECT_TRUE(rowMatches(memo.find(7), 3, 7));

  // Entries are numbered in insertion order.
  EXPECT_EQ(memo.key(0), 0u);
  EXPECT_EQ(memo.key(1), ~std::uint64_t{0});
  EXPECT_EQ(memo.key(2), 7u);
  EXPECT_EQ(memo.row(2), memo.find(7));
}

TEST(FlatMemo, KeysSharingATagStayDistinct) {
  // A slot holds only a 32-bit tag folded from the key; the full key in
  // the row decides. These keys all fold to one tag, and each must still
  // find its own row.
  nf::FlatMemo<float> memo(1);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t hi = 1; hi <= 64; ++hi) keys.push_back(hi << 32 | hi);
  for (const std::uint64_t key : keys) {
    const auto [row, fresh] = memo.insert(key);
    ASSERT_TRUE(fresh) << key;
    *row = static_cast<float>(key >> 32);
  }
  for (const std::uint64_t key : keys) {
    const float* row = memo.find(key);
    ASSERT_NE(row, nullptr) << key;
    EXPECT_EQ(*row, static_cast<float>(key >> 32));
  }
  EXPECT_EQ(memo.find(std::uint64_t{65} << 32 | 65), nullptr);
}

TEST(FlatMemo, RowsStayPutWhileTheTableGrows) {
  // Callers hold row pointers while they insert: the model resumes a new
  // prefix from its parent's row, which may be one it added a moment ago.
  // Growth past many slot-array doublings and row chunks must move no row,
  // also when a row is wider than a chunk's byte budget (one row a chunk).
  for (const auto& [width, entries] :
       {std::pair<std::size_t, std::size_t>{5, 5000}, {20000, 40}}) {
    nf::FlatMemo<float> memo(width);
    std::vector<const float*> rows;
    for (std::size_t i = 0; i < entries; ++i) {
      const auto [row, fresh] = memo.insert(keyAt(i));
      ASSERT_TRUE(fresh);
      fillRow(row, width, keyAt(i));
      rows.push_back(row);
    }
    for (std::size_t i = 0; i < entries; ++i) {
      ASSERT_EQ(memo.find(keyAt(i)), rows[i]) << width << " " << i;
      ASSERT_EQ(memo.row(i), rows[i]) << width << " " << i;
      ASSERT_EQ(memo.key(i), keyAt(i)) << width << " " << i;
      ASSERT_TRUE(rowMatches(rows[i], width, keyAt(i))) << width << " " << i;
    }
  }
}

TEST(FlatMemo, ClearEmptiesEveryEntryAndKeepsWorking) {
  // A full table, then a near-empty one whose slot array an earlier fill
  // grew: a clear empties either.
  nf::FlatMemo<float> memo(2);
  for (const std::size_t n : {std::size_t{3000}, std::size_t{10},
                              std::size_t{3000}}) {
    for (std::size_t i = 0; i < n; ++i)
      fillRow(memo.insert(keyAt(i)).first, 2, keyAt(i));
    ASSERT_EQ(memo.size(), n);
    memo.clear();
    EXPECT_EQ(memo.size(), 0u);
    for (std::size_t i = 0; i < 3000; ++i)
      ASSERT_EQ(memo.find(keyAt(i)), nullptr) << n << " " << i;
  }
  // Refilled after a clear, the table reads back the new rows.
  for (std::size_t i = 0; i < 50; ++i)
    fillRow(memo.insert(keyAt(i + 7)).first, 2, keyAt(i + 7));
  for (std::size_t i = 0; i < 50; ++i)
    EXPECT_TRUE(rowMatches(memo.find(keyAt(i + 7)), 2, keyAt(i + 7)));
  EXPECT_EQ(memo.find(keyAt(0)), nullptr);

  // clearToSmall drops a large table's storage but not its use.
  for (std::size_t i = 0; i < 3000; ++i)
    fillRow(memo.insert(keyAt(i)).first, 2, keyAt(i));
  memo.clearToSmall();
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_EQ(memo.find(keyAt(1)), nullptr);
  for (std::size_t i = 0; i < 100; ++i)
    fillRow(memo.insert(keyAt(i)).first, 2, keyAt(i));
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_TRUE(rowMatches(memo.find(keyAt(i)), 2, keyAt(i)));
}

TEST(FlatMemo, ClearWithAWidthResizesTheRows) {
  nf::FlatMemo<float> memo(2);
  for (std::size_t i = 0; i < 40; ++i)
    fillRow(memo.insert(keyAt(i)).first, 2, keyAt(i));
  memo.clear(7);
  EXPECT_EQ(memo.width(), 7u);
  EXPECT_EQ(memo.size(), 0u);
  for (std::size_t i = 0; i < 40; ++i)
    fillRow(memo.insert(keyAt(i)).first, 7, keyAt(i));
  for (std::size_t i = 0; i < 40; ++i)
    EXPECT_TRUE(rowMatches(memo.find(keyAt(i)), 7, keyAt(i)));
  memo.clear(7);  // same width: the storage is reused
  EXPECT_EQ(memo.width(), 7u);
  EXPECT_EQ(memo.find(keyAt(0)), nullptr);
}

TEST(FlatMemo, HoldsWordRows) {
  // The edit-distance memo's rows are one size_t each.
  nf::FlatMemo<std::size_t> memo;
  EXPECT_EQ(memo.width(), 1u);
  for (std::size_t i = 0; i < 300; ++i) *memo.insert(keyAt(i)).first = i;
  for (std::size_t i = 0; i < 300; ++i) EXPECT_EQ(*memo.find(keyAt(i)), i);
}

// ------------------------------------------------ packed step keys --------

namespace {

std::uint64_t fullKey(const std::vector<nd::FuncId>& ids) {
  return nf::stepPrefixKey(nd::Program(ids), ids.size());
}

}  // namespace

TEST(StepPrefixKey, IsExactForEveryIdAndLength) {
  const nd::FuncId last = static_cast<nd::FuncId>(nd::kTotalFunctions - 1);
  // A repeat is not the shorter prefix, and id 0 is not "no statement".
  EXPECT_NE(fullKey({0}), fullKey({0, 0}));
  EXPECT_NE(fullKey({last}), fullKey({last, last}));
  EXPECT_NE(fullKey({0}), 0u);
  EXPECT_NE(fullKey({0, last}), fullKey({last, 0}));

  // Every program of one or two statements has its own key.
  std::set<std::uint64_t> keys;
  std::size_t programs = 0;
  for (std::size_t a = 0; a < nd::kTotalFunctions; ++a) {
    keys.insert(fullKey({static_cast<nd::FuncId>(a)}));
    ++programs;
    for (std::size_t b = 0; b < nd::kTotalFunctions; ++b) {
      keys.insert(fullKey(
          {static_cast<nd::FuncId>(a), static_cast<nd::FuncId>(b)}));
      ++programs;
    }
  }
  EXPECT_EQ(keys.size(), programs);
  EXPECT_EQ(keys.count(0), 0u);

  // A full word: the deepest keyed prefix of the largest ids, and each
  // shorter prefix's key is its low fields.
  const std::vector<nd::FuncId> deep(nf::kStepKeyDepth, last);
  const nd::Program p(deep);
  for (std::size_t d = 1; d <= nf::kStepKeyDepth; ++d) {
    const std::uint64_t k = nf::stepPrefixKey(p, d);
    EXPECT_EQ(k >> (d - 1) * nf::kStepKeyBits,
              static_cast<std::uint64_t>(last) + 1)
        << d;
    if (d > 1) {
      EXPECT_EQ(nf::stepPrefixKey(p, d - 1),
                k & ((std::uint64_t{1} << (d - 1) * nf::kStepKeyBits) - 1));
    }
  }
}
