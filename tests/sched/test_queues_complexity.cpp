// Complexity tests on ServerQueues' steal work counter (scan_steps): the
// list ends and affinity slots one steal attempt looks at must not grow with
// the queue depth. Each shape runs at depth N and 4N; per attempt the count
// stays within affinity_array_size + 4 (every slot once, plus the ends of the
// four object-queue sublists), and is the same at both depths. No wall time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sched/queues.hpp"

namespace cool::sched {
namespace {

constexpr std::size_t kSlots = 64;
constexpr std::uint64_t kBound = kSlots + 4;
constexpr std::size_t kDepths[] = {4096, 16384};

/// Fake object addresses (never dereferenced).
std::uint64_t task_obj(std::size_t set) { return 0x10000 + 64 * set; }
constexpr std::uint64_t kHome = 0x800000;

struct Tasks {
  explicit Tasks(std::size_t n) : v(n) {
    for (std::size_t i = 0; i < n; ++i) v[i].seq = i;
  }
  void set_task_affinity(std::size_t i, std::size_t set) {
    v[i].aff.task_obj = task_obj(set);
    v[i].aff_key = v[i].aff.task_obj / 16;
  }
  std::vector<TaskDesc> v;
};

/// Steal attempts the way Scheduler::try_steal makes them: a whole-set steal
/// first, then a single object-queue task. Records the most steps any one
/// attempt took and what was stolen.
struct Thief {
  bool steal_pinned_sets = false;
  bool steal_object_tasks = false;
  bool allow_reserved = false;
  std::uint64_t max_steps = 0;
  std::uint64_t attempts = 0;
  std::vector<TaskDesc*> got;

  /// One attempt; returns whether anything was stolen.
  bool steal(ServerQueues& q) {
    const std::uint64_t before = q.scan_steps();
    ++attempts;
    std::vector<TaskDesc*> set;
    bool ok = q.try_steal_set(set, steal_pinned_sets, allow_reserved) ==
              TrySteal::kGot;
    if (ok) {
      got.insert(got.end(), set.begin(), set.end());
    } else {
      TaskDesc* t = nullptr;
      ok = q.try_steal_object_task(t, steal_object_tasks, allow_reserved) ==
           TrySteal::kGot;
      if (ok) got.push_back(t);
    }
    max_steps = std::max(max_steps, q.scan_steps() - before);
    return ok;
  }
};

// Fork-join: every task hint-free, all on the spawner's queue.
Thief fork_join(std::size_t depth) {
  Tasks tasks(depth);
  ServerQueues q(kSlots);
  for (TaskDesc& t : tasks.v) q.push(&t);
  Thief thief;
  for (std::size_t i = 0; i < depth / 2; ++i) EXPECT_TRUE(thief.steal(q));
  q.validate();
  EXPECT_EQ(q.size(), depth - depth / 2);
  EXPECT_EQ(thief.got.front()->seq, depth - 1);  // youngest first
  while (q.pop() != nullptr) {
  }
  return thief;
}

TEST(QueueComplexity, HintFreeForkJoinStealsInConstantSteps) {
  std::vector<std::uint64_t> steps;
  for (const std::size_t depth : kDepths) {
    const Thief thief = fork_join(depth);
    EXPECT_GT(thief.max_steps, 0u) << "depth " << depth;
    EXPECT_LE(thief.max_steps, kBound) << "depth " << depth;
    steps.push_back(thief.max_steps);
  }
  EXPECT_EQ(steps[0], steps[1]);
}

// Every task pinned by OBJECT affinity and object-task stealing off: every
// attempt comes up empty, and must find that out without a walk.
Thief all_pinned(std::size_t depth) {
  Tasks tasks(depth);
  for (TaskDesc& t : tasks.v) t.aff.object_obj = kHome;
  ServerQueues q(kSlots);
  for (TaskDesc& t : tasks.v) q.push(&t);
  Thief thief;
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(thief.steal(q));
  EXPECT_EQ(q.size(), depth);
  while (q.pop() != nullptr) {
  }
  return thief;
}

TEST(QueueComplexity, FailedStealsOverPinnedTasksInConstantSteps) {
  std::vector<std::uint64_t> steps;
  for (const std::size_t depth : kDepths) {
    const Thief thief = all_pinned(depth);
    EXPECT_GT(thief.max_steps, 0u) << "depth " << depth;
    EXPECT_LE(thief.max_steps, kBound) << "depth " << depth;
    steps.push_back(thief.max_steps);
  }
  EXPECT_EQ(steps[0], steps[1]);
}

// Young pinned tasks queued behind old hint-free ones: a walk from the back
// would cross every pinned task before the first stealable one.
Thief young_pinned_over_old_free(std::size_t depth) {
  Tasks tasks(depth);
  for (std::size_t i = depth / 2; i < depth; ++i) {
    tasks.v[i].aff.object_obj = kHome;
  }
  ServerQueues q(kSlots);
  for (TaskDesc& t : tasks.v) q.push(&t);
  Thief thief;
  for (std::size_t i = 0; i < depth / 4; ++i) EXPECT_TRUE(thief.steal(q));
  EXPECT_EQ(thief.got.front()->seq, depth / 2 - 1);  // youngest hint-free
  for (const TaskDesc* t : thief.got) EXPECT_TRUE(t->aff.is_none());
  q.validate();
  while (q.pop() != nullptr) {
  }
  return thief;
}

TEST(QueueComplexity, YoungPinnedOverOldFreeStealsInConstantSteps) {
  std::vector<std::uint64_t> steps;
  for (const std::size_t depth : kDepths) {
    const Thief thief = young_pinned_over_old_free(depth);
    EXPECT_LE(thief.max_steps, kBound) << "depth " << depth;
    steps.push_back(thief.max_steps);
  }
  EXPECT_EQ(steps[0], steps[1]);
}

// 64 task-affinity sets spread over the slot array, every other set also
// pinned by OBJECT affinity, so hash collisions mix pinned and unpinned sets
// in some slots. The owner drains one set while thieves take the rest.
Thief mixed_sets(std::size_t depth) {
  Tasks tasks(depth);
  for (std::size_t i = 0; i < depth; ++i) {
    const std::size_t set = i % 64;
    tasks.set_task_affinity(i, set);
    if (set % 2 == 0) tasks.v[i].aff.object_obj = kHome;
  }
  ServerQueues q(kSlots);
  for (TaskDesc& t : tasks.v) q.push(&t);
  EXPECT_NE(q.pop(), nullptr);  // the owner starts on a set
  Thief thief;
  while (thief.steal(q)) {
  }
  EXPECT_FALSE(thief.got.empty());
  for (const TaskDesc* t : thief.got) EXPECT_FALSE(t->aff.has_object());
  q.validate();
  while (q.pop() != nullptr) {
  }
  return thief;
}

TEST(QueueComplexity, MixedPinnedSetsStealInBoundedSteps) {
  std::vector<std::uint64_t> steps;
  for (const std::size_t depth : kDepths) {
    const Thief thief = mixed_sets(depth);
    EXPECT_GT(thief.max_steps, 0u) << "depth " << depth;
    EXPECT_LE(thief.max_steps, kBound) << "depth " << depth;
    steps.push_back(thief.max_steps);
  }
  EXPECT_EQ(steps[0], steps[1]);
}

}  // namespace
}  // namespace cool::sched
