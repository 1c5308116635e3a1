// The flat memo table behind NnffModel's inference memos: 64-bit keys, each
// naming a fixed-width row of T, found through an open-addressing slot
// array. Nothing is allocated per entry: a cleared table keeps its slot
// array and its row chunks, so refilling it costs no malloc and no free.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace netsyn::fitness {

/// Map from 64-bit keys to rows of `width()` Ts. A slot is 8 bytes: a
/// 32-bit tag folded from the key and the row's index. The full key heads
/// the row, so a hit reads one slot and the row it returns, and only a tag
/// match reads a key. Probing is linear, at a load factor of at most 1/2.
///
/// Rows live in equal chunks of at most kChunkBytes, so a row's address is
/// fixed from its insert until the next clear, however many entries are
/// added after it: a caller may hold row pointers while it inserts.
/// Entries are numbered in insertion order (key(i), row(i)).
///
/// find() only reads, so any number of threads may call it while no thread
/// modifies the table.
template <typename T>
class FlatMemo {
  static_assert(std::is_trivially_copyable_v<T> &&
                alignof(T) <= alignof(std::uint64_t));

 public:
  explicit FlatMemo(std::size_t width = 1) { setWidth(width); }

  std::size_t size() const { return count_; }
  /// Ts per row.
  std::size_t width() const { return width_; }

  /// The row of `key`, or nullptr.
  const T* find(std::uint64_t key) const {
    if (count_ == 0) return nullptr;
    const std::uint32_t tag = tagOf(key);
    for (std::size_t s = home(key);; s = (s + 1) & mask_) {
      const Slot slot = slots_[s];
      if (slot.row == 0) return nullptr;
      if (slot.tag != tag) continue;
      std::byte* r = rowAt(slot.row - 1);
      if (keyOf(r) == key) return dataOf(r);
    }
  }

  /// The row of `key`, and true if the key was absent and its row was just
  /// added (its contents are then unspecified: the caller fills them).
  std::pair<T*, bool> insert(std::uint64_t key) {
    if (2 * (count_ + 1) > slots_.size()) grow();
    const std::uint32_t tag = tagOf(key);
    std::size_t s = home(key);
    for (; slots_[s].row != 0; s = (s + 1) & mask_) {
      if (slots_[s].tag != tag) continue;
      std::byte* r = rowAt(slots_[s].row - 1);
      if (keyOf(r) == key) return {dataOf(r), false};
    }
    std::byte* r = claimRow(count_);
    std::memcpy(r, &key, sizeof key);
    slots_[s] = {tag, static_cast<std::uint32_t>(++count_)};
    return {dataOf(r), true};
  }

  /// Adds a copy of `row` under `key` unless the key is present.
  void insertCopy(std::uint64_t key, const T* row) {
    auto [dst, fresh] = insert(key);
    if (fresh) std::copy(row, row + width_, dst);
  }

  std::uint64_t key(std::size_t i) const { return keyOf(rowAt(i)); }
  const T* row(std::size_t i) const { return dataOf(rowAt(i)); }

  /// Drops every entry; the slot array and the chunks stay for reuse.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    count_ = 0;
  }

  /// Drops every entry and sets the row width. The chunks are kept when
  /// the width does not change.
  void clear(std::size_t width) {
    clear();
    if (width == width_) return;
    chunks_.clear();
    setWidth(width);
  }

  /// Drops every entry and frees every chunk but the first and the slots
  /// beyond kSmallSlots: a table that one large batch grew does not keep
  /// that memory, and one that stays small refills with few mallocs.
  void clearToSmall() {
    if (chunks_.size() > 1) chunks_.resize(1);
    if (slots_.size() <= kSmallSlots) return clear();
    std::vector<Slot>(kSmallSlots).swap(slots_);
    setSlotCount(kSmallSlots);
    count_ = 0;
  }

 private:
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t row = 0;  ///< row index + 1; 0: the slot is empty
  };

  /// Chunks stay under glibc's default mmap threshold (128 KiB), so they
  /// come from, and go back to, the heap's free memory, as the rows of a
  /// node-based map would.
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 16;
  /// clearToSmall keeps this many slots: 64 rows at the load limit. In a
  /// seed-2021 netsyn_list run a workspace staged at most 63 rows in 98%
  /// of its trace-memo merges, 99.5% of its edit-memo merges and all of
  /// its step-memo merges.
  static constexpr std::size_t kSmallSlots = 128;

  /// Fibonacci hashing: well-mixed and packed keys alike spread evenly.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  static std::uint32_t tagOf(std::uint64_t key) {
    return static_cast<std::uint32_t>(key ^ (key >> 32));
  }

  static std::uint64_t keyOf(const std::byte* r) {
    std::uint64_t key;
    std::memcpy(&key, r, sizeof key);
    return key;
  }
  static T* dataOf(std::byte* r) {
    return reinterpret_cast<T*>(r + sizeof(std::uint64_t));
  }

  std::byte* rowAt(std::size_t i) const {
    return chunks_[i >> chunkShift_].get() +
           (i & ((std::size_t{1} << chunkShift_) - 1)) * stride_;
  }

  /// Address of row i, the next one, allocating its chunk if it is new.
  /// Chunks are default-initialised: a row's memory is first written by
  /// whoever fills it.
  std::byte* claimRow(std::size_t i) {
    if ((i >> chunkShift_) == chunks_.size())
      chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(
          stride_ << chunkShift_));
    return rowAt(i);
  }

  /// Doubles the slot array (at least 32 slots) and re-places every entry
  /// in insertion order. Rows do not move.
  void grow() {
    const std::size_t slots = std::max<std::size_t>(32, 2 * slots_.size());
    slots_.assign(slots, Slot{});
    setSlotCount(slots);
    for (std::size_t i = 0; i < count_; ++i) {
      const std::uint64_t k = key(i);
      std::size_t s = home(k);
      while (slots_[s].row != 0) s = (s + 1) & mask_;
      slots_[s] = {tagOf(k), static_cast<std::uint32_t>(i + 1)};
    }
  }

  /// Sets the probe mask and hash shift for a power-of-two slot count.
  void setSlotCount(std::size_t slots) {
    mask_ = slots - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
  }

  /// A row is its key, then `width` Ts, padded to keep keys aligned. A
  /// chunk holds the most rows, a power of two, that fit kChunkBytes (at
  /// least one).
  void setWidth(std::size_t width) {
    width_ = width;
    const std::size_t a = alignof(std::uint64_t);
    stride_ = (sizeof(std::uint64_t) + width * sizeof(T) + a - 1) / a * a;
    chunkShift_ = static_cast<unsigned>(
        std::bit_width(std::max<std::size_t>(kChunkBytes / stride_, 1)) - 1);
  }

  std::size_t width_ = 0;
  std::size_t stride_ = 0;  ///< bytes per row
  unsigned chunkShift_ = 0;  ///< log2 of rows per chunk
  std::size_t count_ = 0;
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
};

}  // namespace netsyn::fitness
