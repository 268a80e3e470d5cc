#ifndef SETREC_UTIL_ALIGNED_H_
#define SETREC_UTIL_ALIGNED_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace setrec {

/// Minimal over-aligned allocator for std::vector. The IBLT decode-scratch
/// lane arenas use it at 64-byte alignment so each arena starts on a cache
/// line.
template <typename T, size_t Align>
struct AlignedAllocator {
  using value_type = T;
  static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                "Align must be a power of two >= alignof(T)");

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) {}

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T* p, size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t(Align));
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  bool operator==(const AlignedAllocator&) const { return true; }
};

/// A uint64 lane vector whose storage starts on a cache line. Element
/// layout is identical to std::vector<uint64_t> (only the allocation is
/// over-aligned), so spans/pointers into it interoperate unchanged.
using AlignedLaneVector = std::vector<uint64_t, AlignedAllocator<uint64_t, 64>>;

}  // namespace setrec

#endif  // SETREC_UTIL_ALIGNED_H_
