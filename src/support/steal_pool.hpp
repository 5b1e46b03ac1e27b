// Work-stealing worker pool: the one scheduler under both in-solve tree
// engines (the exact columnar search and MILP branch & bound).
//
//  * Every worker owns a finely-locked deque. The owner pushes and pops at
//    the back, so its depth-first dive stays hot; owner and thief collide
//    only on one worker's deque, never on a global lock.
//  * A worker whose deque is dry scans the others in a fixed ring order
//    from its successor and moves the front (oldest) ceil(n/2) tasks of the
//    first non-empty one to its own back, in order. The oldest tasks are
//    the shallowest and root the largest subtrees, so one steal buys a long
//    stretch of independent work; the fixed order makes the steal schedule
//    a function of the tree alone when workers run lock-step.
//  * Termination is an atomic count of outstanding tasks: spawn() counts a
//    task before it is queued, and a task retires only after the engine's
//    run() returns. All deques can be momentarily empty while a peer still
//    runs a task that will spawn more, so "no loot" alone is not the end.
//  * A worker with neither work nor termination sleeps 50 us. idle() counts
//    the sleepers, which lets an engine split work only while a peer is
//    actually starving.
//
// run() is the only place in-solve workers are spawned: worker 0 runs on
// the calling thread, so a one-worker pool starts no thread at all.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <thread>
#include <utility>
#include <vector>

#include "support/sync.hpp"
#include "support/timer.hpp"

namespace rfp::sync {

/// One worker's deque. Cache-line aligned so neighbouring workers' locks do
/// not share a line.
template <class Task>
class alignas(64) StealDeque {
 public:
  void pushBack(Task t) {
    const MutexLock lock(mu_);
    q_.push_back(std::move(t));
  }

  /// Owner pop: the newest task (LIFO).
  bool popBack(Task& out) {
    const MutexLock lock(mu_);
    if (q_.empty()) return false;
    out = std::move(q_.back());
    q_.pop_back();
    return true;
  }

  /// Steal-half: appends the oldest ceil(size/2) tasks to `out`, oldest
  /// first, and returns how many it moved.
  int stealHalf(std::vector<Task>& out) {
    const MutexLock lock(mu_);
    const int take = static_cast<int>((q_.size() + 1) / 2);
    for (int i = 0; i < take; ++i) {
      out.push_back(std::move(q_.front()));
      q_.pop_front();
    }
    return take;
  }

  /// Visits every queued task, oldest first, under the lock.
  template <class Visit>
  void forEach(Visit&& visit) const {
    const MutexLock lock(mu_);
    for (const Task& t : q_) visit(t);
  }

 private:
  mutable Mutex mu_;
  std::deque<Task> q_ RFP_GUARDED_BY(mu_);
};

/// A `Worker` passed to work()/step() provides:
///   bool halted();                     polled before every task; true ends work()
///   void run(Task&& task);             executes one task, which may spawn() more
///   void stole(int victim, int count); after each successful steal
///   void idled(double seconds);        after each idle sleep
template <class Task>
class StealPool {
 public:
  explicit StealPool(int workers) : deques_(static_cast<std::size_t>(workers)) {}

  [[nodiscard]] int size() const { return static_cast<int>(deques_.size()); }
  [[nodiscard]] const StealDeque<Task>& deque(int w) const {
    return deques_[static_cast<std::size_t>(w)];
  }
  /// Workers currently sleeping on an empty pool.
  [[nodiscard]] int idle() const { return idle_.load(std::memory_order_relaxed); }
  /// No task is queued or running: the tree is exhausted.
  [[nodiscard]] bool exhausted() const {
    return outstanding_.load(std::memory_order_acquire) == 0;
  }

  /// Counts `t` outstanding and queues it at the back of worker `w`'s deque.
  void spawn(int w, Task t) {
    outstanding_.fetch_add(1, std::memory_order_acq_rel);
    own(w).pushBack(std::move(t));
  }

  /// Worker `w`'s loop: run its own newest task, steal when dry, sleep when
  /// there is nothing to steal yet. Returns once the pool is exhausted or
  /// the worker halts; a halted worker leaves its queued tasks in place.
  template <class Worker>
  void work(int w, Worker& worker) {
    Task task;
    while (!worker.halted()) {
      if (own(w).popBack(task)) {
        execute(worker, std::move(task));
        continue;
      }
      if (steal(w, worker)) continue;
      if (exhausted()) break;
      idle_.fetch_add(1, std::memory_order_relaxed);
      const Stopwatch slept;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      worker.idled(slept.seconds());
      idle_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  /// One lock-step quantum of worker `w`: its newest task, or, when its
  /// deque is dry, one steal pass and then the newest stolen task. Returns
  /// whether a task ran. The caller owns the round-robin and the stop test.
  template <class Worker>
  bool step(int w, Worker& worker) {
    Task task;
    if (!own(w).popBack(task) && !(steal(w, worker) && own(w).popBack(task))) return false;
    execute(worker, std::move(task));
    return true;
  }

  /// Calls body(w) for every worker w, body(0) on the calling thread and
  /// the others on threads of their own, and returns when all have.
  template <class Body>
  void run(Body&& body) {
    std::vector<std::thread> threads;
    threads.reserve(deques_.size());
    for (int w = 1; w < size(); ++w) threads.emplace_back([&body, w] { body(w); });
    body(0);
    for (std::thread& t : threads) t.join();
  }

 private:
  StealDeque<Task>& own(int w) { return deques_[static_cast<std::size_t>(w)]; }

  template <class Worker>
  void execute(Worker& worker, Task&& task) {
    worker.run(std::move(task));
    outstanding_.fetch_sub(1, std::memory_order_acq_rel);
  }

  /// Ring scan from w's successor; moves half of the first non-empty
  /// victim's deque onto w's own back, oldest first, so w's next pop takes
  /// the deepest task of the stolen prefix.
  template <class Worker>
  bool steal(int w, Worker& worker) {
    const int W = size();
    for (int k = 1; k < W; ++k) {
      const int victim = (w + k) % W;
      std::vector<Task> loot;
      const int got = own(victim).stealHalf(loot);
      if (got == 0) continue;
      worker.stole(victim, got);
      for (Task& t : loot) own(w).pushBack(std::move(t));
      return true;
    }
    return false;
  }

  std::vector<StealDeque<Task>> deques_;
  std::atomic<long> outstanding_{0};
  std::atomic<int> idle_{0};
};

}  // namespace rfp::sync
