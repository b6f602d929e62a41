#ifndef COPYDETECT_COMMON_FLAT_HASH_H_
#define COPYDETECT_COMMON_FLAT_HASH_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace copydetect {

/// Mixes a 64-bit integer (finalizer from MurmurHash3 / SplitMix64).
/// Used to hash packed (source, source) pair keys, which are sequential
/// and would cluster badly under identity hashing.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Combines two hash values (boost::hash_combine style, 64-bit).
inline uint64_t HashCombine(uint64_t seed, uint64_t v) {
  return seed ^ (Mix64(v) + 0x9e3779b97f4a7c15ULL + (seed << 12) +
                 (seed >> 4));
}

/// Open-addressing hash map from uint64_t keys to V, with linear probing
/// and power-of-two capacity. Tailored to the hot path of copy detection:
/// pair-keyed accumulators. Deliberately minimal — no erase (detection
/// only retires pairs logically), no iterators invalidation guarantees
/// across Insert.
///
/// Key 0xFFFFFFFFFFFFFFFF is reserved as the empty marker; callers never
/// use it (pair keys pack two 32-bit source ids, both < 2^32 - 1).
///
/// Probing, growth and therefore ForEach order depend only on the
/// sequence of Reserve and insert calls, so two maps fed the same
/// sequence walk their entries in the same order.
template <typename V>
class FlatHashMap {
 public:
  static constexpr uint64_t kEmptyKey = ~0ULL;

  FlatHashMap() { Rehash(16); }

  /// Pre-sizes the table for `n` entries without rehashing afterwards.
  void Reserve(size_t n) {
    size_t needed = NextPow2(n * 4 / 3 + 1);
    if (needed > keys_.size()) Rehash(needed);
  }

  /// Returns the value slot for `key`, inserting a default-constructed
  /// value when absent.
  V& operator[](uint64_t key) { return *Insert(key).first; }

  /// Returns {the value slot for `key`, whether this call inserted it}
  /// in one probe; an inserted value is default-constructed. Grows
  /// exactly when operator[] would, so the two fill a table alike.
  std::pair<V*, bool> Insert(uint64_t key) {
    assert(key != kEmptyKey);
    if ((size_ + 1) * 4 >= keys_.size() * 3) Rehash(keys_.size() * 2);
    size_t i = Probe(key);
    const bool fresh = keys_[i] == kEmptyKey;
    if (fresh) {
      keys_[i] = key;
      ++size_;
    }
    return {&values_[i], fresh};
  }

  /// Returns a pointer to the value for `key`, or nullptr when absent.
  V* Find(uint64_t key) {
    size_t i = Probe(key);
    return keys_[i] == key ? &values_[i] : nullptr;
  }
  const V* Find(uint64_t key) const {
    size_t i = Probe(key);
    return keys_[i] == key ? &values_[i] : nullptr;
  }

  bool Contains(uint64_t key) const { return Find(key) != nullptr; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Clear() {
    std::fill(keys_.begin(), keys_.end(), kEmptyKey);
    std::fill(values_.begin(), values_.end(), V());
    size_ = 0;
  }

  // --- Raw table access (snapshot serialization only). ---
  // ForEach walks the table in storage order, so persisting the raw
  // arrays — empty markers included — and restoring them verbatim
  // reproduces iteration order (and therefore any downstream
  // floating-point accumulation order) bit for bit, which re-inserting
  // the live entries in some canonical order would not.

  /// The key array, capacity-sized, kEmptyKey marking free slots.
  const std::vector<uint64_t>& raw_keys() const { return keys_; }
  /// The value array, aligned with raw_keys() (default V() in free
  /// slots).
  const std::vector<V>& raw_values() const { return values_; }

  /// Restores a table from raw_keys()/raw_values() output. Returns
  /// false — leaving the map empty — when the arrays are not a valid
  /// open-addressing table: size mismatch, capacity not a power of two
  /// (or under the minimum), a reserved empty-marker key in use, a
  /// duplicate key, or an entry unreachable from its probe sequence
  /// (Find would miss it). Validation keeps a hand-crafted snapshot
  /// file from planting a map that lookups silently disagree with.
  bool AssignRaw(std::vector<uint64_t> keys, std::vector<V> values) {
    Rehash(16);
    if (keys.size() != values.size() || keys.size() < 16 ||
        (keys.size() & (keys.size() - 1)) != 0) {
      return false;
    }
    const size_t mask = keys.size() - 1;
    size_t entries = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == kEmptyKey) continue;
      // The probe path from the key's home slot must reach slot i
      // through occupied slots only, without meeting the key earlier
      // (an earlier copy would shadow this one).
      size_t j = static_cast<size_t>(Mix64(keys[i])) & mask;
      while (j != i) {
        if (keys[j] == kEmptyKey || keys[j] == keys[i]) return false;
        j = (j + 1) & mask;
      }
      ++entries;
    }
    // The live load factor must stay below the growth threshold, or
    // the next insert loops forever on a full table.
    if (entries * 4 >= keys.size() * 3) return false;
    keys_ = std::move(keys);
    values_ = std::move(values);
    size_ = entries;
    return true;
  }

  /// Visits every (key, value&) pair in storage order;
  /// `fn(uint64_t, V&)`.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    ForEachSlot([&](size_t i) { fn(keys_[i], values_[i]); });
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEachSlot([&](size_t i) { fn(keys_[i], values_[i]); });
  }

 private:
  /// Calls `fn(i)` for every occupied slot i, ascending. The occupied
  /// slots of each block of 16 are gathered without a branch first: at
  /// the table's load factors a slot is empty about as often as not,
  /// so a branch per slot would mispredict on every other one. The
  /// capacity is a power of two of at least 16, a whole number of
  /// blocks.
  template <typename Fn>
  void ForEachSlot(Fn&& fn) const {
    constexpr size_t kBlock = 16;
    uint8_t occupied[kBlock];
    for (size_t base = 0; base < keys_.size(); base += kBlock) {
      size_t n = 0;
      for (size_t j = 0; j < kBlock; ++j) {
        occupied[n] = static_cast<uint8_t>(j);
        n += keys_[base + j] != kEmptyKey;
      }
      for (size_t k = 0; k < n; ++k) fn(base + occupied[k]);
    }
  }

  static size_t NextPow2(size_t n) {
    size_t p = 16;
    while (p < n) p <<= 1;
    return p;
  }

  size_t Probe(uint64_t key) const {
    size_t mask = keys_.size() - 1;
    size_t i = static_cast<size_t>(Mix64(key)) & mask;
    while (keys_[i] != kEmptyKey && keys_[i] != key) i = (i + 1) & mask;
    return i;
  }

  void Rehash(size_t new_cap) {
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    keys_.assign(new_cap, kEmptyKey);
    values_.assign(new_cap, V());
    size_ = 0;
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] != kEmptyKey) {
        size_t j = Probe(old_keys[i]);
        keys_[j] = old_keys[i];
        values_[j] = std::move(old_values[i]);
        ++size_;
      }
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<V> values_;
  size_t size_ = 0;
};

/// Open-addressing set of uint64_t with the same design as FlatHashMap.
class FlatHashSet {
 public:
  static constexpr uint64_t kEmptyKey = ~0ULL;

  FlatHashSet() { keys_.assign(16, kEmptyKey); }

  void Reserve(size_t n) {
    size_t needed = NextPow2(n * 4 / 3 + 1);
    if (needed > keys_.size()) Rehash(needed);
  }

  /// Returns true when the key was newly inserted.
  bool Insert(uint64_t key) {
    assert(key != kEmptyKey);
    if ((size_ + 1) * 4 >= keys_.size() * 3) Rehash(keys_.size() * 2);
    size_t i = Probe(key);
    if (keys_[i] == key) return false;
    keys_[i] = key;
    ++size_;
    return true;
  }

  bool Contains(uint64_t key) const {
    size_t i = Probe(key);
    return keys_[i] == key;
  }

  size_t size() const { return size_; }

  void Clear() {
    std::fill(keys_.begin(), keys_.end(), kEmptyKey);
    size_ = 0;
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint64_t k : keys_) {
      if (k != kEmptyKey) fn(k);
    }
  }

 private:
  static size_t NextPow2(size_t n) {
    size_t p = 16;
    while (p < n) p <<= 1;
    return p;
  }

  size_t Probe(uint64_t key) const {
    size_t mask = keys_.size() - 1;
    size_t i = static_cast<size_t>(Mix64(key)) & mask;
    while (keys_[i] != kEmptyKey && keys_[i] != key) i = (i + 1) & mask;
    return i;
  }

  void Rehash(size_t new_cap) {
    std::vector<uint64_t> old = std::move(keys_);
    keys_.assign(new_cap, kEmptyKey);
    size_ = 0;
    for (uint64_t k : old) {
      if (k != kEmptyKey) {
        keys_[Probe(k)] = k;
        ++size_;
      }
    }
  }

  std::vector<uint64_t> keys_;
  size_t size_ = 0;
};

}  // namespace copydetect

#endif  // COPYDETECT_COMMON_FLAT_HASH_H_
