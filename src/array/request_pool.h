// Generation-stamped object pool for per-request controller state.
//
// The array controller used to allocate a shared_ptr'd context per logical
// request plus a make_shared<int> fan-in counter per background fan-out
// (rebuild, migration).  At fleet scale that is three heap round-trips and
// two atomic refcounts on every request — the dominant cost of dispatch.
// SlotPool replaces all of it:
//
//   - Objects live in fixed-size chunks whose storage never moves, so a
//     reference obtained from Get() stays valid even while the pool grows
//     (completions may submit new work reentrantly).
//   - Acquire/Release are O(1) free-list pushes; the pooled object is
//     *reused*, not destroyed, so internal buffers (a spilled SmallVector,
//     a bound std::function) keep their capacity across requests.
//   - Handles are {index, generation} pairs.  Release bumps the slot's
//     generation, so a stale handle held by an already-cancelled callback
//     can never alias the slot's next tenant (the classic ABA hazard).
//     Handles are 8 bytes and trivially copyable: a [this, handle] capture
//     fits every callback SSO buffer in the system, which is what makes the
//     dispatch path allocation-free end to end.
//
// Single-threaded by design, like everything inside one Simulator universe.
#ifndef HIBERNATOR_SRC_ARRAY_REQUEST_POOL_H_
#define HIBERNATOR_SRC_ARRAY_REQUEST_POOL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/util/check.h"

namespace hib {

// Opaque ticket for a pooled object.  Value-semantic, 8 bytes.
struct PoolHandle {
  std::uint32_t index = 0;
  std::uint32_t generation = 0;

  friend bool operator==(PoolHandle a, PoolHandle b) {
    return a.index == b.index && a.generation == b.generation;
  }
  friend bool operator!=(PoolHandle a, PoolHandle b) { return !(a == b); }
};

// Shard-local: pools live inside one controller, inside one shard universe.
template <typename T, std::size_t ChunkSize = 256>
class SlotPool {
  static_assert((ChunkSize & (ChunkSize - 1)) == 0, "chunk size must be a power of two");

 public:
  SlotPool() = default;
  SlotPool(const SlotPool&) = delete;
  SlotPool& operator=(const SlotPool&) = delete;

  // Hands out a free slot, growing by one chunk when the free list is dry.
  // The object keeps whatever state its previous tenant left; callers reset
  // the fields they use (cheaper than destroy+construct, and it preserves
  // grown internal buffers).
  PoolHandle Acquire() {
    if (free_.empty()) {
      AddChunk();
    }
    std::uint32_t index = free_.back();
    free_.pop_back();
    Slot& slot = SlotRef(index);
    HIB_DCHECK(!slot.live) << "free-list handed out a live slot";
    slot.live = true;
    ++live_;
    return PoolHandle{index, slot.generation};
  }

  // Resolves a handle.  The reference stays valid across pool growth (chunked
  // storage) but not across Release of the same handle.
  T& Get(PoolHandle handle) {
    Slot& slot = SlotRef(handle.index);
    HIB_DCHECK(slot.live && slot.generation == handle.generation)
        << "stale pool handle (slot was released and possibly reused)";
    return slot.value;
  }

  // True iff the handle still names the object it was acquired for.
  bool IsLive(PoolHandle handle) const {
    if (handle.index >= size_) {
      return false;
    }
    const Slot& slot = SlotRef(handle.index);
    return slot.live && slot.generation == handle.generation;
  }

  // Returns the slot to the free list and invalidates every outstanding
  // handle to it by bumping the generation.
  void Release(PoolHandle handle) {
    Slot& slot = SlotRef(handle.index);
    HIB_CHECK(slot.live && slot.generation == handle.generation)
        << "releasing a stale or double-released pool handle";
    slot.live = false;
    ++slot.generation;  // unsigned wraparound is fine: equality is all we test
    free_.push_back(handle.index);
    --live_;
  }

  std::size_t live() const { return live_; }
  std::size_t capacity() const { return size_; }

  // Pre-grows the pool to at least `objects` slots.
  void Reserve(std::size_t objects) {
    while (size_ < objects) {
      AddChunk();
    }
  }

 private:
  struct Slot {
    T value{};
    std::uint32_t generation = 0;
    bool live = false;
  };

  Slot& SlotRef(std::uint32_t index) {
    HIB_DCHECK_LT(index, size_);
    return chunks_[index / ChunkSize][index % ChunkSize];
  }
  const Slot& SlotRef(std::uint32_t index) const {
    HIB_DCHECK_LT(index, size_);
    return chunks_[index / ChunkSize][index % ChunkSize];
  }

  void AddChunk() {
    HIB_CHECK_LT(size_, kMaxSlots) << "SlotPool exhausted (2^32 - chunk live objects)";
    // Amortized one-chunk growth: this is the only allocation the pool ever
    // makes, and Reserve() lets callers front-load it at setup.
    chunks_.push_back(std::make_unique<Slot[]>(ChunkSize));  // NOLINT(HIB018)
    std::uint32_t base = static_cast<std::uint32_t>(size_);
    size_ += ChunkSize;
    // The free list can hold at most one entry per slot; reserving the full
    // capacity here means the push_backs below — and the one in Release() on
    // the dispatch path — can never reallocate.
    free_.reserve(size_);
    // Newest indices go to the back of the LIFO free list, so low indices are
    // handed out first and reuse stays cache-dense under steady load.
    for (std::uint32_t i = ChunkSize; i > 0; --i) {
      free_.push_back(base + i - 1);
    }
  }

  static constexpr std::size_t kMaxSlots = (std::size_t{1} << 32) - ChunkSize;

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::size_t size_ = 0;
  std::size_t live_ = 0;
};

}  // namespace hib

#endif  // HIBERNATOR_SRC_ARRAY_REQUEST_POOL_H_
