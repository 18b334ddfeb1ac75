// SlotPool: generation-stamped handles (ABA protection), chunked growth
// under burst, reference stability across growth, and fan-in-counter reuse —
// the properties the array controller's allocation-free dispatch rests on.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/array/request_pool.h"

namespace hib {
namespace {

struct Payload {
  int value = 0;
  std::vector<int> buffer;  // non-trivial member: reuse must keep capacity
};

TEST(SlotPoolTest, AcquireReleaseRoundTrip) {
  SlotPool<Payload> pool;
  PoolHandle h = pool.Acquire();
  EXPECT_EQ(pool.live(), 1u);
  pool.Get(h).value = 42;
  EXPECT_EQ(pool.Get(h).value, 42);
  EXPECT_TRUE(pool.IsLive(h));
  pool.Release(h);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_FALSE(pool.IsLive(h));
}

TEST(SlotPoolTest, StaleHandleDetectedAfterReuse) {
  SlotPool<Payload> pool;
  PoolHandle first = pool.Acquire();
  std::uint32_t index = first.index;
  pool.Release(first);

  // LIFO free list: the next Acquire reuses the same slot...
  PoolHandle second = pool.Acquire();
  EXPECT_EQ(second.index, index);
  // ...but with a bumped generation, so the stale handle can't alias it.
  EXPECT_NE(second.generation, first.generation);
  EXPECT_FALSE(pool.IsLive(first));
  EXPECT_TRUE(pool.IsLive(second));
  EXPECT_NE(first, second);
  pool.Release(second);
}

TEST(SlotPoolTest, GenerationSurvivesManyReuses) {
  // The classic ABA scenario repeated: a handle released N tenants ago must
  // never validate again, no matter how many times the slot turned over.
  SlotPool<Payload> pool;
  PoolHandle ancient = pool.Acquire();
  pool.Release(ancient);
  for (int i = 0; i < 1000; ++i) {
    PoolHandle h = pool.Acquire();
    ASSERT_EQ(h.index, ancient.index);  // same slot every time (LIFO)
    ASSERT_FALSE(pool.IsLive(ancient));
    pool.Release(h);
  }
}

TEST(SlotPoolTest, GrowthUnderBurstKeepsReferencesStable) {
  // Acquire far more than one chunk while holding references into early
  // chunks: chunked storage must never move an object.
  SlotPool<Payload, 64> pool;
  std::vector<PoolHandle> handles;
  Payload* first = nullptr;
  for (int i = 0; i < 1000; ++i) {
    PoolHandle h = pool.Acquire();
    pool.Get(h).value = i;
    if (i == 0) {
      first = &pool.Get(h);
    }
    handles.push_back(h);
  }
  EXPECT_EQ(pool.live(), 1000u);
  EXPECT_GE(pool.capacity(), 1000u);
  // The reference taken before 15 further chunks were added still works.
  EXPECT_EQ(first, &pool.Get(handles[0]));
  EXPECT_EQ(first->value, 0);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    ASSERT_EQ(pool.Get(handles[i]).value, static_cast<int>(i));
    pool.Release(handles[i]);
  }
  EXPECT_EQ(pool.live(), 0u);
}

TEST(SlotPoolTest, ReuseKeepsGrownBuffers) {
  // A pooled object's internal buffer survives Release/Acquire: that is the
  // whole point of reuse-without-destroy (phase2 spill amortization).
  SlotPool<Payload> pool;
  PoolHandle h = pool.Acquire();
  pool.Get(h).buffer.reserve(128);
  int* data = pool.Get(h).buffer.data();
  pool.Release(h);
  PoolHandle again = pool.Acquire();
  ASSERT_EQ(again.index, h.index);
  EXPECT_GE(pool.Get(again).buffer.capacity(), 128u);
  EXPECT_EQ(pool.Get(again).buffer.data(), data);
  pool.Release(again);
}

TEST(SlotPoolTest, FanInCounterExhaustion) {
  // Model the migration fan-in: one counter object drained by N callbacks.
  // The slot must stay valid until the last decrement, then be reusable.
  struct FanIn {
    int remaining = 0;
  };
  SlotPool<FanIn> pool;
  for (int round = 0; round < 100; ++round) {
    PoolHandle h = pool.Acquire();
    pool.Get(h).remaining = 7;
    int fired = 0;
    for (int i = 0; i < 7; ++i) {
      ASSERT_TRUE(pool.IsLive(h));
      if (--pool.Get(h).remaining == 0) {
        ++fired;
        pool.Release(h);
      }
    }
    ASSERT_EQ(fired, 1);
    ASSERT_EQ(pool.live(), 0u);
  }
  // 100 rounds reused one slot; no growth past the first chunk.
  EXPECT_EQ(pool.capacity(), 256u);
}

TEST(SlotPoolTest, ReservePreGrows) {
  SlotPool<Payload, 64> pool;
  EXPECT_EQ(pool.capacity(), 0u);
  pool.Reserve(200);
  EXPECT_GE(pool.capacity(), 200u);
  std::size_t reserved = pool.capacity();
  // Acquiring up to the reserved count allocates no new chunks.
  std::vector<PoolHandle> handles;
  for (std::size_t i = 0; i < reserved; ++i) {
    handles.push_back(pool.Acquire());
  }
  EXPECT_EQ(pool.capacity(), reserved);
  for (PoolHandle h : handles) {
    pool.Release(h);
  }
}

TEST(SlotPoolDeathTest, DoubleReleaseIsFatal) {
  // Release uses HIB_CHECK (on in every build type): a stale or doubled
  // release is simulation-corrupting and must die loudly.
  SlotPool<Payload> pool;
  PoolHandle h = pool.Acquire();
  pool.Release(h);
  EXPECT_DEATH(pool.Release(h), "stale or double-released");
}

TEST(SlotPoolDeathTest, StaleGetIsFatal) {
  // Get uses HIB_DCHECK: resolving a released handle dies wherever the
  // validator is compiled in (the generation check is what stands in for a
  // static handle-liveness analysis).
  if (!HIB_VALIDATE) {
    GTEST_SKIP() << "HIB_VALIDATE is off (Release build); Get's check is compiled out";
  }
  SlotPool<Payload> pool;
  PoolHandle h = pool.Acquire();
  pool.Release(h);
  EXPECT_DEATH(pool.Get(h), "stale pool handle");
}

}  // namespace
}  // namespace hib
