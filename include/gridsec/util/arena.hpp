// Bump allocator over reserved contiguous buffers.
//
// An Arena hands out raw memory by bumping a cursor through a chain of
// malloc'd blocks; individual frees are no-ops and the whole arena is
// recycled at once with reset(). reset() keeps ONE block sized to the
// high-water mark of the previous cycles, so a steady-state user (a solver
// workspace binding the same problem shape every solve) performs zero heap
// allocations after its first cycle and all of its scratch lives in one
// contiguous, cache-friendly buffer.
//
// Thread safety: none, by design. An arena belongs to exactly one owner —
// a solver workspace, a thread-pool worker's scratch slot — and is never
// shared across threads.
//
// Debugging: set GRIDSEC_ARENA_POISON=1 to memset recycled memory to 0xA5
// on every reset (stale reads become loud garbage); under AddressSanitizer
// the recycled region is additionally poisoned so a use-after-reset is an
// ASan error at the faulting line, and each allocation unpoisons exactly
// the bytes it returns.
#pragma once

#include <cstddef>
#include <new>
#include <span>
#include <type_traits>

namespace gridsec::util {

class Arena {
 public:
  /// Reserves `initial_capacity` bytes up front (0 = allocate lazily).
  explicit Arena(std::size_t initial_capacity = 0);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of uninitialized memory aligned to `align` (a power
  /// of two). Never returns nullptr; grows the block chain on demand.
  void* allocate(std::size_t bytes,
                 std::size_t align = alignof(std::max_align_t));

  /// Typed convenience: `count` default-initialized (i.e. uninitialized
  /// for scalars) elements of a trivially-destructible T.
  template <typename T>
  std::span<T> allocate_span(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is recycled without running destructors");
    if (count == 0) return {};
    auto* p = static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
    // Start each element's lifetime without touching the bytes
    // (default-init of a trivial T is a no-op the compiler elides).
    for (std::size_t i = 0; i < count; ++i) {
      ::new (static_cast<void*>(p + i)) T;
    }
    return {p, count};
  }

  /// Recycles the arena: every previous allocation is invalidated, and the
  /// block chain is consolidated into a single block sized to the largest
  /// total ever used (the high-water mark), so the next cycle of identical
  /// allocations is contiguous and heap-free.
  void reset();

  /// Frees every block (capacity drops to zero).
  void release();

  struct Stats {
    std::size_t capacity = 0;    // bytes currently reserved
    /// Bytes one contiguous block needs to replay this cycle's
    /// allocations (payload plus alignment padding), since the last reset.
    std::size_t used = 0;
    std::size_t high_water = 0;  // max `used` across all cycles
    std::size_t blocks = 0;      // blocks in the current chain
    std::size_t resets = 0;      // reset() calls
    std::size_t block_allocations = 0;  // heap blocks ever requested
  };
  [[nodiscard]] Stats stats() const;

  /// True when GRIDSEC_ARENA_POISON is set in the environment (read once
  /// per process).
  static bool poison_enabled();

 private:
  struct alignas(std::max_align_t) Block {
    Block* prev = nullptr;
    std::size_t size = 0;  // usable bytes after the header
    // Payload follows the header.
    [[nodiscard]] std::byte* data() {
      return reinterpret_cast<std::byte*>(this + 1);
    }
  };

  /// Appends a block with at least `min_bytes` usable bytes and makes it
  /// current.
  void grow(std::size_t min_bytes);
  void free_chain();

  Block* head_ = nullptr;       // current (most recent) block
  std::size_t cursor_ = 0;      // bytes used within head_
  std::size_t used_total_ = 0;  // Stats::used of the current cycle
  Stats stats_;
};

/// STL-compatible allocator carving from an Arena. Deallocation is a no-op:
/// memory comes back only at Arena::reset(). Containers using it must not
/// outlive the arena cycle they were built in.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using propagate_on_container_copy_assignment = std::true_type;

  explicit ArenaAllocator(Arena& arena) noexcept : arena_(&arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, std::size_t) noexcept {}  // recycled at reset()

  [[nodiscard]] Arena* arena() const noexcept { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const noexcept {
    return arena_ == other.arena();
  }

 private:
  Arena* arena_;
};

}  // namespace gridsec::util
