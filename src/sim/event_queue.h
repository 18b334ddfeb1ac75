// Priority queue of timed events for the discrete-event simulator.
//
// Events at the same timestamp fire in insertion order (a monotonically
// increasing sequence number breaks ties), which keeps simulations
// deterministic regardless of queue internals.
//
// Hot-path design (this queue is the inner loop of every experiment):
//   - Callbacks are hib::InplaceFunction, sized so every simulator / array /
//     policy capture fits inline — no heap allocation per event.
//   - Pending events are one array sorted descending by (time, seq), so the
//     earliest is back() and a pop is O(1).  An insert is a branch-free
//     binary search plus a memmove.  The simulator's traffic keeps this array
//     short: on every simbench workload the mean number of pending events is
//     4–6 and the maximum under 30, where the sorted array beats both a
//     binary heap and a two-tier ladder queue (DESIGN.md, inventory item 2).
//   - Slots live in fixed-size chunks whose storage never moves, so FireNext
//     can run a callback directly from its slot (zero relocations per event)
//     even when the callback schedules new events.
//   - Everything is defined inline here: Schedule/FireNext are a few array
//     writes, and keeping them visible to the caller's TU lets the compiler
//     fold the slot bookkeeping away.
#ifndef HIBERNATOR_SRC_SIM_EVENT_QUEUE_H_
#define HIBERNATOR_SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/util/check.h"
#include "src/util/inplace_function.h"
#include "src/util/units.h"

namespace hib {

// Every scheduled capture in the repo fits in 96 bytes (the largest is the
// disk service-completion lambda: this + completion time + a DiskRequest with
// its embedded std::function).  A capture that outgrows this fails to
// compile in InplaceFunction's constructor rather than silently allocating.
inline constexpr std::size_t kEventCallbackCapacity = 96;
using EventCallback = InplaceFunction<void(), kEventCallbackCapacity>;

// Shard-local: owned by exactly one Simulator, which is itself shard-owned.
class EventQueue {
 public:
  // Schedules `cb` at absolute time `when`.  The already-type-erased overload
  // (the Simulator's ScheduleAt/ScheduleIn funnel through it) relocates once;
  // the template overload constructs the callable directly in its slot with
  // no relocation at all.
  void Schedule(SimTime when, EventCallback cb) {
    std::uint32_t slot = AcquireSlot();
    SlotRef(slot).callback = std::move(cb);
    Push(when, slot);
  }

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback>>>
  void Schedule(SimTime when, F&& cb) {
    std::uint32_t slot = AcquireSlot();
    SlotRef(slot).callback.Emplace(std::forward<F>(cb));
    Push(when, slot);
  }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  // Pre-sizes the entry array and slot arena for roughly `events` concurrently
  // pending events, so multi-million-event runs don't pay growth reallocations.
  void Reserve(std::size_t events) {
    entries_.reserve(events);
    free_slots_.reserve(events);
    slot_chunks_.reserve((events >> kSlotChunkShift) + 1);
  }

  // Time of the earliest pending event; only valid when !empty().
  SimTime NextTime() const {
    HIB_DCHECK(!entries_.empty()) << "NextTime on an empty queue";
    return entries_.back().time;
  }

  // Pops the earliest event and invokes its callback in place — the
  // zero-relocation dispatch path used by Simulator::RunUntil.  The event's
  // time is stored through `now` *before* the callback runs, so callbacks
  // observe the correct simulation time.  Only valid when !empty().
  void FireNext(SimTime* now) {
    HIB_DCHECK(!entries_.empty()) << "FireNext on an empty queue";
    Entry e = entries_.back();
    entries_.pop_back();
    std::uint32_t slot = static_cast<std::uint32_t>(e.key & kSlotMask);
    Slot& s = SlotRef(slot);
    *now = e.time;
    // The callback runs from its slot: chunk storage never moves, and the
    // slot isn't on the free list yet, so nested Schedule calls can't clobber
    // it.  It becomes reusable only after the call returns.
    s.callback();
    s.callback = nullptr;
    free_slots_.push_back(slot);
  }

 private:
  // Packed (seq << kSlotBits) | slot keeps an entry at 16 bytes.  40 bits of
  // sequence number cover ~10^12 events (a 24h experiment fires ~10^8); 24
  // bits of slot index cover 16M events pending at once.  Both limits are
  // HIB_CHECKed.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  struct Entry {
    SimTime time;
    std::uint64_t key = 0;  // (seq << kSlotBits) | slot
  };
  struct Slot {
    EventCallback callback;
  };

  // Strict total order on (time, seq); seq occupies the key's high bits, so
  // comparing keys compares seqs (two entries never share a seq).  Written
  // with bitwise | and & so the compiler lowers it to flag arithmetic instead
  // of two data-dependent branches.
  static bool Later(const Entry& a, const Entry& b) {
    return (a.time > b.time) | ((a.time == b.time) & (a.key > b.key));
  }

  // Slots per chunk.  Chunks are never freed or moved while the queue lives,
  // which is what makes in-place callback execution (FireNext) safe.
  static constexpr std::uint32_t kSlotChunkShift = 6;
  static constexpr std::uint32_t kSlotChunkSize = 1u << kSlotChunkShift;

  Slot& SlotRef(std::uint32_t slot) {
    return slot_chunks_[slot >> kSlotChunkShift][slot & (kSlotChunkSize - 1)];
  }

  // Inserts keeping entries_ sorted descending (earliest at the back).  DES
  // inserts skew toward the near future, i.e. toward the back of the array,
  // so the memmove is usually short.
  void Push(SimTime when, std::uint32_t slot) {
    std::uint64_t seq = next_seq_++;
    HIB_CHECK(seq < (1ull << (64 - kSlotBits))) << "event sequence space exhausted";
    Entry e{when, (seq << kSlotBits) | slot};
    entries_.insert(
        entries_.begin() + static_cast<std::ptrdiff_t>(UpperBoundDesc(e)), e);
  }

  // Index of the first entry not Later than e (the insertion point in the
  // descending array).  Branch-free selection: std::upper_bound's
  // data-dependent branch mispredicts on ~half its probes, which costs more
  // than the insert's memmove; with conditional moves the search is a short
  // chain of L1 loads.
  std::size_t UpperBoundDesc(const Entry& e) const {
    const Entry* base = entries_.data();
    std::size_t lo = 0;
    std::size_t len = entries_.size();
    while (len > 0) {
      std::size_t half = len >> 1;
      bool later = Later(base[lo + half], e);
      lo = later ? lo + half + 1 : lo;
      len = later ? len - half - 1 : half;
    }
    return lo;
  }

  std::uint32_t AcquireSlot() {
    if (!free_slots_.empty()) {
      std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    HIB_CHECK(num_slots_ < kSlotMask) << "event slot arena exhausted";
    if ((num_slots_ >> kSlotChunkShift) == slot_chunks_.size()) {
      // Amortized arena growth, once per kSlotChunkSize acquisitions; Reserve()
      // front-loads it so a sized run never takes this branch.
      slot_chunks_.push_back(std::make_unique<Slot[]>(kSlotChunkSize));  // NOLINT(HIB018)
    }
    return num_slots_++;
  }

  // Pending events, sorted descending by (time, seq): back() is the earliest.
  std::vector<Entry> entries_;
  std::vector<std::unique_ptr<Slot[]>> slot_chunks_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t num_slots_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace hib

#endif  // HIBERNATOR_SRC_SIM_EVENT_QUEUE_H_
