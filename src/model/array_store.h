#ifndef COPYDETECT_MODEL_ARRAY_STORE_H_
#define COPYDETECT_MODEL_ARRAY_STORE_H_

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace copydetect {

/// Storage backend for the flat arrays of the model layer (Dataset CSR
/// arrays, OverlapCounts dense triangle): either an owned
/// std::vector<T> or a read-only view into memory kept alive by an
/// opaque handle (an mmap'ed snapshot — see snapshot::ReadMapped).
///
/// The read surface (data/size/operator[]) is identical in both modes,
/// so consumers index the arrays without knowing the backing. Writers
/// go through MutableOwned(), which materializes an owned copy when
/// the store is a view — copy-on-write, the contract Dataset::Apply
/// relies on when splicing a delta into a mapped snapshot.
///
/// Not a general-purpose container: T must be trivially copyable (the
/// view mode aliases raw bytes), and the view is const — a mapped
/// snapshot is immutable by design.
template <typename T>
class ArrayStore {
  static_assert(std::is_trivially_copyable_v<T>,
                "view mode aliases raw memory");

 public:
  ArrayStore() = default;

  /// Owned backend (implicit: `store = std::move(vec)` keeps working
  /// at every call site that used to assign a vector).
  ArrayStore(std::vector<T> v) : owned_(std::move(v)) {}

  /// View backend: `keepalive` must own the memory behind `s` (and is
  /// shared with every other store viewing the same mapping).
  static ArrayStore View(std::span<const T> s,
                         std::shared_ptr<const void> keepalive) {
    ArrayStore a;
    a.view_ = s;
    a.keepalive_ = std::move(keepalive);
    a.is_view_ = true;
    return a;
  }

  const T* data() const { return is_view_ ? view_.data() : owned_.data(); }
  size_t size() const { return is_view_ ? view_.size() : owned_.size(); }
  bool empty() const { return size() == 0; }
  const T& operator[](size_t i) const { return data()[i]; }
  const T& front() const { return data()[0]; }
  const T& back() const { return data()[size() - 1]; }
  std::span<const T> span() const { return {data(), size()}; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size(); }

  bool owned() const { return !is_view_; }

  /// The owned vector, materializing a copy first when viewing (the
  /// copy-on-write seam). The reference stays valid until the next
  /// assignment to this store.
  std::vector<T>& MutableOwned() {
    if (is_view_) {
      owned_.assign(view_.begin(), view_.end());
      view_ = {};
      keepalive_.reset();
      is_view_ = false;
    }
    return owned_;
  }

 private:
  std::vector<T> owned_;
  std::span<const T> view_;
  std::shared_ptr<const void> keepalive_;
  bool is_view_ = false;
};

/// String-table counterpart of ArrayStore: an owned vector<string> or
/// a vector of string_views into kept-alive mapped memory. Readers see
/// string_view either way; MutableOwned() materializes real strings
/// (copy-on-write) for the growth paths (DatasetBuilder reset into a
/// Dataset, Dataset::Apply registering delta-born names).
class StringArray {
 public:
  StringArray() = default;
  StringArray(std::vector<std::string> v) : owned_(std::move(v)) {}

  static StringArray View(std::vector<std::string_view> views,
                          std::shared_ptr<const void> keepalive) {
    StringArray a;
    a.views_ = std::move(views);
    a.keepalive_ = std::move(keepalive);
    a.is_view_ = true;
    return a;
  }

  size_t size() const { return is_view_ ? views_.size() : owned_.size(); }
  bool empty() const { return size() == 0; }
  std::string_view operator[](size_t i) const {
    return is_view_ ? views_[i] : std::string_view(owned_[i]);
  }

  bool owned() const { return !is_view_; }

  std::vector<std::string>& MutableOwned() {
    if (is_view_) {
      owned_.assign(views_.begin(), views_.end());
      views_.clear();
      keepalive_.reset();
      is_view_ = false;
    }
    return owned_;
  }

 private:
  std::vector<std::string> owned_;
  std::vector<std::string_view> views_;
  std::shared_ptr<const void> keepalive_;
  bool is_view_ = false;
};

}  // namespace copydetect

#endif  // COPYDETECT_MODEL_ARRAY_STORE_H_
