// Unit tests for the support layer (strings, rng, timer, check macros, and
// the annotated sync primitives).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/steal_pool.hpp"
#include "support/strings.hpp"
#include "support/sync.hpp"
#include "support/timer.hpp"

namespace rfp {
namespace {

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(str::trim("  hello  "), "hello");
  EXPECT_EQ(str::trim("\t a b \n"), "a b");
  EXPECT_EQ(str::trim(""), "");
  EXPECT_EQ(str::trim("   "), "");
  EXPECT_EQ(str::trim("x"), "x");
}

TEST(Strings, SplitPreservesEmptyFields) {
  const auto parts = str::split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWhitespaceDropsEmptyFields) {
  const auto parts = str::splitWhitespace("  a \t b\nc ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(str::startsWith("device x", "device"));
  EXPECT_FALSE(str::startsWith("dev", "device"));
}

TEST(Strings, ToLower) { EXPECT_EQ(str::toLower("CLB Tile"), "clb tile"); }

TEST(Strings, FormatDouble) {
  EXPECT_EQ(str::formatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(str::formatDouble(-0.5, 1), "-0.5");
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.nextU64() == b.nextU64() ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int bound : {1, 2, 3, 17, 1000}) {
    for (int i = 0; i < 200; ++i) {
      const auto v = rng.nextBelow(static_cast<std::uint64_t>(bound));
      EXPECT_LT(v, static_cast<std::uint64_t>(bound));
    }
  }
}

TEST(Rng, NextIntCoversInclusiveRange) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.nextInt(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.nextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Timer, StopwatchAdvances) {
  Stopwatch w;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(w.seconds(), 0.0);
}

TEST(Timer, DeadlineZeroNeverExpires) {
  Deadline d(0.0);
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining(), 1e20);
}

TEST(Timer, DeadlineTinyLimitExpires) {
  Deadline d(1e-9);
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_TRUE(d.expired());
}

TEST(Check, ThrowsCheckErrorWithMessage) {
  try {
    RFP_CHECK_MSG(false, "custom " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
  }
}

TEST(Check, PassesSilently) { RFP_CHECK(1 + 1 == 2); }

// ---- annotated sync layer (support/sync.hpp) -------------------------------

struct GuardedCounter {
  sync::Mutex mu;
  int value RFP_GUARDED_BY(mu) = 0;

  void bump() {
    const sync::MutexLock lock(mu);
    ++value;
  }
  int get() {
    const sync::MutexLock lock(mu);
    return value;
  }
};

TEST(Sync, MutexLockExcludesConcurrentWriters) {
  GuardedCounter c;
  constexpr int kIters = 20000;
  std::thread a([&c] {
    for (int i = 0; i < kIters; ++i) c.bump();
  });
  std::thread b([&c] {
    for (int i = 0; i < kIters; ++i) c.bump();
  });
  a.join();
  b.join();
  EXPECT_EQ(c.get(), 2 * kIters);
}

TEST(Sync, TryLockFailsWhileHeldAndSucceedsAfterRelease) {
  sync::Mutex mu;
  {
    const sync::MutexLock lock(mu);
    // try_lock from another thread must fail while the lock is held; the
    // result crosses threads via the atomic.
    std::atomic<bool> acquired{true};
    std::thread prober([&mu, &acquired] {
      if (mu.try_lock()) {
        mu.unlock();
      } else {
        acquired.store(false);
      }
    });
    prober.join();
    EXPECT_FALSE(acquired.load());
  }
  if (mu.try_lock()) {
    mu.unlock();
  } else {
    ADD_FAILURE() << "try_lock should succeed once the MutexLock is gone";
  }
}

TEST(Sync, AdoptLockReleasesOnScopeExit) {
  sync::Mutex mu;
  if (!mu.try_lock()) {
    FAIL() << "uncontended try_lock should succeed";
  }
  { const sync::AdoptLock adopted(mu, std::adopt_lock); }
  if (mu.try_lock()) {  // AdoptLock's destructor must have released it
    mu.unlock();
  } else {
    ADD_FAILURE() << "AdoptLock did not release the mutex on scope exit";
  }
}

TEST(Sync, UniqueLockTracksOwnership) {
  sync::Mutex mu;
  sync::UniqueLock lock(mu);
  EXPECT_TRUE(lock.owns_lock());
  lock.unlock();
  EXPECT_FALSE(lock.owns_lock());
  lock.lock();
  EXPECT_TRUE(lock.owns_lock());
}

TEST(Sync, CondVarPredicateWaitWakesOnNotify) {
  sync::Mutex mu;
  sync::CondVar cv;
  bool ready = false;  // guarded by mu (locals cannot carry RFP_GUARDED_BY)
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    sync::UniqueLock lock(mu);
    cv.wait(lock, [&ready] { return ready; });
    woke.store(true);
  });
  {
    const sync::MutexLock lock(mu);
    ready = true;
  }
  cv.notify_one();
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST(Sync, CondVarWaitForTimesOutWhenPredicateStaysFalse) {
  sync::Mutex mu;
  sync::CondVar cv;
  sync::UniqueLock lock(mu);
  const bool satisfied =
      cv.wait_for(lock, std::chrono::milliseconds(5), [] { return false; });
  EXPECT_FALSE(satisfied);
  EXPECT_TRUE(lock.owns_lock());  // the wait must reacquire before returning
}

// ---- work-stealing pool (support/steal_pool.hpp) ----------------------------

/// StealPool worker over integer tasks. Task t spawns 2t+1 and 2t+2 while
/// they stay below `limit` (0: never stop spawning), so a pool seeded with
/// task 0 walks a binary tree. It records what it ran, what it stole and on
/// which threads it ran. It halts once `stop` is set, and sets `stop` itself
/// once `ran` reaches `stop_after` (0: never).
struct TreeWorker {
  sync::StealPool<int>* pool = nullptr;
  int id = 0;
  int limit = 0;
  std::vector<std::atomic<int>>* runs = nullptr;
  std::atomic<long>* ran = nullptr;
  std::atomic<bool>* stop = nullptr;
  long stop_after = 0;
  std::vector<int> order;
  std::vector<std::pair<int, int>> steals;  // (victim, count)
  std::set<std::thread::id> threads;

  bool halted() const {
    if (stop_after > 0 && ran->load() >= stop_after) stop->store(true);
    return stop != nullptr && stop->load();
  }
  void run(int&& t) {
    order.push_back(t);
    threads.insert(std::this_thread::get_id());
    if (runs != nullptr) (*runs)[static_cast<std::size_t>(t)].fetch_add(1);
    if (ran != nullptr) ran->fetch_add(1);
    for (const int child : {2 * t + 1, 2 * t + 2})
      if (limit == 0 || child < limit) pool->spawn(id, limit == 0 ? 0 : child);
  }
  void stole(int victim, int count) { steals.emplace_back(victim, count); }
  void idled(double /*seconds*/) {}
};

std::vector<TreeWorker> treeWorkers(sync::StealPool<int>& pool, int limit) {
  std::vector<TreeWorker> workers(static_cast<std::size_t>(pool.size()));
  for (int w = 0; w < pool.size(); ++w) {
    workers[static_cast<std::size_t>(w)].pool = &pool;
    workers[static_cast<std::size_t>(w)].id = w;
    workers[static_cast<std::size_t>(w)].limit = limit;
  }
  return workers;
}

std::vector<int> queued(const sync::StealDeque<int>& d) {
  std::vector<int> out;
  d.forEach([&out](int t) { out.push_back(t); });
  return out;
}

TEST(StealPool, StealHalfMovesTheOldestHalfInOrder) {
  sync::StealDeque<int> d;
  for (int t = 1; t <= 5; ++t) d.pushBack(t);
  std::vector<int> loot;
  EXPECT_EQ(d.stealHalf(loot), 3);  // ceil(5/2)
  EXPECT_EQ(loot, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queued(d), (std::vector<int>{4, 5}));
  int newest = 0;
  ASSERT_TRUE(d.popBack(newest));
  EXPECT_EQ(newest, 5);  // the owner keeps popping LIFO

  // Through the pool: a dry worker steals from its ring successor, queues
  // the loot oldest first, and runs the deepest stolen task.
  sync::StealPool<int> pool(2);
  for (int t = 1; t <= 5; ++t) pool.spawn(0, t);
  std::vector<TreeWorker> workers = treeWorkers(pool, /*limit=*/1);
  ASSERT_TRUE(pool.step(1, workers[1]));
  EXPECT_EQ(workers[1].steals, (std::vector<std::pair<int, int>>{{0, 3}}));
  EXPECT_EQ(workers[1].order, (std::vector<int>{3}));
  EXPECT_EQ(queued(pool.deque(1)), (std::vector<int>{1, 2}));
  EXPECT_EQ(queued(pool.deque(0)), (std::vector<int>{4, 5}));
  EXPECT_FALSE(pool.exhausted());
}

TEST(StealPool, SelfSpawningTasksRunExactlyOnceAndThePoolTerminates) {
  constexpr int kTasks = (1 << 12) - 1;  // a complete binary tree
  for (const int W : {1, 2, 4}) {
    sync::StealPool<int> pool(W);
    std::vector<std::atomic<int>> runs(kTasks);
    std::vector<TreeWorker> workers = treeWorkers(pool, kTasks);
    for (TreeWorker& w : workers) w.runs = &runs;
    pool.spawn(0, 0);
    pool.run([&](int w) { pool.work(w, workers[static_cast<std::size_t>(w)]); });
    EXPECT_TRUE(pool.exhausted()) << W;
    for (int t = 0; t < kTasks; ++t) ASSERT_EQ(runs[static_cast<std::size_t>(t)].load(), 1) << W;
    std::size_t total = 0;
    for (const TreeWorker& w : workers) total += w.order.size();
    EXPECT_EQ(total, static_cast<std::size_t>(kTasks)) << W;
  }
}

TEST(StealPool, OneWorkerRunsOnTheCallingThread) {
  sync::StealPool<int> pool(1);
  std::vector<TreeWorker> workers = treeWorkers(pool, /*limit=*/255);
  pool.spawn(0, 0);
  std::set<std::thread::id> bodies;
  pool.run([&](int w) {
    bodies.insert(std::this_thread::get_id());
    pool.work(w, workers[static_cast<std::size_t>(w)]);
  });
  const std::set<std::thread::id> caller{std::this_thread::get_id()};
  EXPECT_EQ(bodies, caller);
  EXPECT_EQ(workers[0].threads, caller);
  EXPECT_EQ(workers[0].order.size(), 255u);
  // Depth-first: the owner always pops its newest task, so each task runs
  // right after the parent that spawned it last.
  EXPECT_EQ(workers[0].order[0], 0);
  EXPECT_EQ(workers[0].order[1], 2);
}

TEST(StealPool, RaisedStopDrainsEveryWorker) {
  // Every task spawns two more, so only the stop flag can end the run.
  constexpr long kStopAfter = 2000;
  constexpr int kWorkers = 4;
  sync::StealPool<int> pool(kWorkers);
  std::atomic<long> ran{0};
  std::atomic<bool> stop{false};
  std::vector<TreeWorker> workers = treeWorkers(pool, /*limit=*/0);
  for (TreeWorker& w : workers) {
    w.ran = &ran;
    w.stop = &stop;
    w.stop_after = kStopAfter;
  }
  std::vector<std::atomic<bool>> returned(kWorkers);
  pool.spawn(0, 0);
  pool.run([&](int w) {
    pool.work(w, workers[static_cast<std::size_t>(w)]);
    returned[static_cast<std::size_t>(w)].store(true);
  });
  for (int w = 0; w < kWorkers; ++w) EXPECT_TRUE(returned[static_cast<std::size_t>(w)].load()) << w;
  EXPECT_TRUE(stop.load());
  EXPECT_FALSE(pool.exhausted());  // halted workers leave their tasks queued
  // After the stop each worker finishes at most the task it was running.
  EXPECT_LT(ran.load(), kStopAfter + kWorkers);
}

}  // namespace
}  // namespace rfp
