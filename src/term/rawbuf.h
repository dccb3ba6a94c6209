#ifndef XSB_TERM_RAWBUF_H_
#define XSB_TERM_RAWBUF_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <type_traits>

namespace xsb {

// A growable buffer of trivially-copyable cells: a data pointer, a length
// and a capacity. The term heap and the binding trail use it instead of
// std::vector. Growth is a plain realloc, which can extend the block in place
// rather than copying it, and truncation only moves `len`.
template <typename T>
struct RawBuf {
  static_assert(std::is_trivially_copyable_v<T>);

  T* data = nullptr;
  uint64_t len = 0;
  uint64_t cap = 0;

  RawBuf() = default;
  RawBuf(const RawBuf&) = delete;
  RawBuf& operator=(const RawBuf&) = delete;
  ~RawBuf() { std::free(data); }

  size_t size() const { return len; }
  bool empty() const { return len == 0; }
  T& operator[](uint64_t i) { return data[i]; }
  const T& operator[](uint64_t i) const { return data[i]; }
  T& back() { return data[len - 1]; }
  void pop_back() { --len; }

  void push_back(T v) {
    if (len == cap) Grow(len + 1);
    data[len++] = v;
  }

  // Shrinks or grows; new cells are zero-initialized (matching the
  // std::vector<Word> value-init semantics this type replaced).
  void resize(uint64_t n) {
    if (n > len) {
      if (n > cap) Grow(n);
      std::memset(data + len, 0, (n - len) * sizeof(T));
    }
    len = n;
  }

 private:
  void Grow(uint64_t need) {
    uint64_t next = cap < 32 ? 64 : cap * 2;
    if (next < need) next = need;
    data = static_cast<T*>(std::realloc(data, next * sizeof(T)));
    cap = next;
  }
};

}  // namespace xsb

#endif  // XSB_TERM_RAWBUF_H_
