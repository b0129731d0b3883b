#ifndef BESYNC_UTIL_SPAN_H_
#define BESYNC_UTIL_SPAN_H_

#include <cstddef>
#include <vector>

namespace besync {

/// A non-owning view of a contiguous array (the C++20 std::span subset the
/// engine needs). Valid only while the viewed storage is.
template <typename T>
class Span {
 public:
  Span() = default;
  Span(T* data, size_t size) : data_(data), size_(size) {}
  template <typename U>
  Span(const std::vector<U>& values) : data_(values.data()), size_(values.size()) {}

  T* begin() const { return data_; }
  T* end() const { return data_ + size_; }
  T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](size_t i) const { return data_[i]; }
  T& front() const { return data_[0]; }

 private:
  T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace besync

#endif  // BESYNC_UTIL_SPAN_H_
