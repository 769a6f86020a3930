#include "gridsec/util/arena.hpp"

#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "gridsec/util/error.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GRIDSEC_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define GRIDSEC_ASAN 1
#endif

#ifdef GRIDSEC_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace gridsec::util {
namespace {

constexpr std::size_t kMinBlockBytes = 4096;
/// Every block's payload starts at this alignment (Block is padded to it).
constexpr std::size_t kBlockAlign = alignof(std::max_align_t);
constexpr unsigned char kPoisonByte = 0xA5;

/// Poison-mode allocations are rounded to 8-byte granules so the ASan
/// shadow poisoning below never splits a granule between two live
/// allocations.
constexpr std::size_t kPoisonGranule = 8;

void poison_region([[maybe_unused]] void* p, [[maybe_unused]] std::size_t n) {
#ifdef GRIDSEC_ASAN
  __asan_poison_memory_region(p, n);
#endif
}

void unpoison_region([[maybe_unused]] void* p,
                     [[maybe_unused]] std::size_t n) {
#ifdef GRIDSEC_ASAN
  __asan_unpoison_memory_region(p, n);
#endif
}

}  // namespace

bool Arena::poison_enabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("GRIDSEC_ARENA_POISON");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
  }();
  return enabled;
}

Arena::Arena(std::size_t initial_capacity) {
  if (initial_capacity > 0) grow(initial_capacity);
}

Arena::~Arena() { free_chain(); }

void Arena::grow(std::size_t min_bytes) {
  // Geometric growth bounds the chain length; reset() collapses it to one
  // block anyway, so mid-cycle fragmentation is transient.
  std::size_t size = kMinBlockBytes;
  if (head_ != nullptr && head_->size > size) size = head_->size * 2;
  if (size < min_bytes) size = min_bytes;
  auto* block =
      static_cast<Block*>(::operator new(sizeof(Block) + size));
  block->prev = head_;
  block->size = size;
  head_ = block;
  cursor_ = 0;
  stats_.capacity += size;
  ++stats_.blocks;
  ++stats_.block_allocations;
  if (poison_enabled()) {
    std::memset(block->data(), kPoisonByte, size);
    poison_region(block->data(), size);
  }
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  GRIDSEC_ASSERT(align != 0 && (align & (align - 1)) == 0);
  if (bytes == 0) bytes = 1;
  if (poison_enabled()) {
    if (align < kPoisonGranule) align = kPoisonGranule;
    bytes = (bytes + kPoisonGranule - 1) & ~(kPoisonGranule - 1);
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (head_ != nullptr) {
      // Align the absolute address, not just the offset: a fresh block's
      // payload is only guaranteed operator new's alignment.
      const auto base = reinterpret_cast<std::uintptr_t>(head_->data());
      const std::uintptr_t aligned =
          (base + cursor_ + align - 1) & ~(std::uintptr_t{align} - 1);
      const std::size_t offset = aligned - base;
      if (offset + bytes <= head_->size) {
        std::byte* p = head_->data() + offset;
        // Count what this allocation would take at the end of one
        // contiguous block, not in the chain: reset() sizes the
        // consolidated block from this, and a block switch can skip the
        // alignment padding that a contiguous replay still needs. Within
        // a block's payload, alignment up to kBlockAlign depends only on
        // the offset; a stricter one can need up to align − 1 bytes.
        const std::size_t pad =
            align <= kBlockAlign
                ? ((used_total_ + align - 1) & ~(align - 1)) - used_total_
                : align - 1;
        used_total_ += pad + bytes;
        cursor_ = offset + bytes;
        stats_.used = used_total_;
        if (used_total_ > stats_.high_water) stats_.high_water = used_total_;
        if (poison_enabled()) unpoison_region(p, bytes);
        return p;
      }
    }
    grow(bytes + align);  // guarantees the retry fits
  }
  GRIDSEC_ASSERT_MSG(false, "arena grow failed to satisfy allocation");
  return nullptr;
}

void Arena::reset() {
  ++stats_.resets;
  const std::size_t target = stats_.high_water;
  if (head_ != nullptr && head_->prev == nullptr && head_->size >= target) {
    // Common steady state: one block, big enough. Just rewind.
    if (poison_enabled() && cursor_ > 0) {
      unpoison_region(head_->data(), cursor_);
      std::memset(head_->data(), kPoisonByte, cursor_);
      poison_region(head_->data(), cursor_);
    }
    cursor_ = 0;
    used_total_ = 0;
    stats_.used = 0;
    return;
  }
  // Consolidate: free the chain and reserve one block covering the
  // high-water mark, so the next cycle is contiguous and heap-free.
  free_chain();
  stats_.capacity = 0;
  stats_.blocks = 0;
  cursor_ = 0;
  used_total_ = 0;
  stats_.used = 0;
  if (target > 0) grow(target);
}

void Arena::release() {
  free_chain();
  stats_.capacity = 0;
  stats_.blocks = 0;
  cursor_ = 0;
  used_total_ = 0;
  stats_.used = 0;
}

void Arena::free_chain() {
  Block* b = head_;
  while (b != nullptr) {
    Block* prev = b->prev;
    if (poison_enabled()) unpoison_region(b->data(), b->size);
    ::operator delete(b);
    b = prev;
  }
  head_ = nullptr;
}

Arena::Stats Arena::stats() const { return stats_; }

}  // namespace gridsec::util
