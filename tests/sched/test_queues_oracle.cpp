// Differential test: ServerQueues (per-eligibility sublists, O(1) steals)
// against the single-list oracle in queues_oracle.hpp. Seeded random streams
// of every queue operation run through both on mirrored task arrays; each
// operation must hand back the same tasks in the same order, with the same
// stolen/moved/server fields, and ServerQueues must validate after each.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "queues_oracle.hpp"
#include "sched/queues.hpp"

namespace cool::sched {
namespace {

/// What a caller can observe of a returned task.
using Seen = std::tuple<std::uint64_t, bool, bool, topo::ProcId>;

Seen seen(const TaskDesc* t) {
  return {t->seq, t->stolen, t->moved, t->server};
}

std::vector<Seen> seen(const std::vector<TaskDesc*>& ts) {
  std::vector<Seen> out;
  out.reserve(ts.size());
  for (const TaskDesc* t : ts) out.push_back(seen(t));
  return out;
}

/// Affinity hint kinds the scheduler produces, drawn uniformly; any of them
/// may also be reserved.
Affinity random_affinity(util::Rng& rng) {
  // Fake addresses (never dereferenced): 24 task-affinity objects so sets
  // collide in small arrays, 8 OBJECT homes, 4 processors.
  const std::uint64_t task_obj = 0x10000 + 64 * rng.next_below(24);
  const std::uint64_t object_obj = 0x800000 + 4096 * rng.next_below(8);
  const auto proc = static_cast<std::int64_t>(rng.next_below(4));
  Affinity a;
  switch (rng.next_below(6)) {
    case 0:  // no hint
      break;
    case 1:
      a.object_obj = object_obj;
      break;
    case 2:
      a.proc_hint = proc;
      break;
    case 3:
      a.task_obj = task_obj;
      break;
    case 4:
      a.task_obj = task_obj;
      a.object_obj = object_obj;
      break;
    default:
      a.task_obj = task_obj;
      a.proc_hint = proc;
      break;
  }
  return a;
}

/// How much of the operation space a stream reached, so a stream that
/// never got deep or never stole cannot pass vacuously.
struct Coverage {
  std::size_t max_size = 0;
  std::size_t set_steals = 0;
  std::size_t object_steals[4] = {};  ///< By (allow_pinned, allow_reserved).
  std::size_t empty_steals = 0;
  std::size_t moves = 0;
  std::size_t adoptions = 0;
  std::size_t resumed = 0;
};

class Mirror {
 public:
  explicit Mirror(std::size_t slots) : q_(slots), o_(slots) {}

  [[nodiscard]] const Coverage& coverage() const { return cov_; }

  /// Run `n_ops` random operations from `seed`; stops at the first mismatch.
  void run(std::uint64_t seed, std::size_t n_ops) {
    util::Rng rng(seed);
    for (std::size_t i = 0; i < n_ops && !::testing::Test::HasFailure();
         ++i) {
      // Alternate growing and draining phases so queues get deep, sets
      // collide, and steals both succeed and come up empty.
      const bool grow = (i / 400) % 2 == 0;
      const std::uint64_t r = rng.next_below(100);
      if (rng.next_below(100) < (grow ? 70u : 25u)) {
        push(rng, /*resumed=*/rng.next_below(4) == 0);
      } else if (r < 30) {
        pop();
      } else if (r < 65) {
        steal_object(rng);
      } else if (r < 85) {
        steal_set(rng);
      } else {
        move(rng);
      }
      q_.validate();
      ASSERT_EQ(q_.size(), o_.size()) << "op " << i;
      cov_.max_size = std::max(cov_.max_size, q_.size());
    }
  }

 private:
  /// Index of a task that is on neither queue, making a fresh one when the
  /// free pool is empty.
  std::size_t free_task(util::Rng& rng) {
    if (free_.empty() || (a_.size() < 600 && rng.next_below(2) == 0)) {
      TaskDesc t;
      t.seq = a_.size();
      t.aff = random_affinity(rng);
      if (t.aff.has_task()) t.aff_key = t.aff.task_obj / 16;
      t.reserved = !t.aff.is_none() ? rng.next_below(4) == 0
                                    : rng.next_below(16) == 0;
      a_.push_back(t);
      b_.push_back(t);
      return a_.size() - 1;
    }
    const std::size_t k = rng.next_below(free_.size());
    const std::size_t idx = free_[k];
    free_[k] = free_.back();
    free_.pop_back();
    return idx;
  }

  void push(util::Rng& rng, bool resumed) {
    const std::size_t idx = free_task(rng);
    if (resumed) {
      ++cov_.resumed;
      q_.push_resumed(&a_[idx]);
      o_.push_resumed(&b_[idx]);
    } else {
      // A fresh placement clears the thief and balancer marks.
      for (TaskDesc* t : {&a_[idx], &b_[idx]}) {
        t->stolen = false;
        t->moved = false;
        t->server = 0;
      }
      q_.push(&a_[idx]);
      o_.push(&b_[idx]);
    }
  }

  void release(const TaskDesc* t) { free_.push_back(t->seq); }

  void pop() {
    TaskDesc* a = q_.pop();
    TaskDesc* b = o_.pop();
    ASSERT_EQ(a == nullptr, b == nullptr);
    if (a == nullptr) return;
    ASSERT_EQ(seen(a), seen(b));
    release(a);
  }

  void steal_object(util::Rng& rng) {
    const bool pinned = rng.next_below(2) == 0;
    const bool reserved = rng.next_below(2) == 0;
    TaskDesc* a = nullptr;
    TaskDesc* b = nullptr;
    const TrySteal ra = q_.try_steal_object_task(a, pinned, reserved);
    const TrySteal rb = o_.try_steal_object_task(b, pinned, reserved);
    ASSERT_EQ(ra, rb) << "pinned " << pinned << " reserved " << reserved;
    if (a == nullptr) {
      ++cov_.empty_steals;
      return;
    }
    ASSERT_EQ(seen(a), seen(b));
    ++cov_.object_steals[(pinned ? 2 : 0) + (reserved ? 1 : 0)];
    release(a);
  }

  void steal_set(util::Rng& rng) {
    const bool pinned = rng.next_below(2) == 0;
    const bool reserved = rng.next_below(2) == 0;
    std::vector<TaskDesc*> a;
    std::vector<TaskDesc*> b;
    const TrySteal ra = q_.try_steal_set(a, pinned, reserved);
    const TrySteal rb = o_.try_steal_set(b, pinned, reserved);
    ASSERT_EQ(ra, rb) << "pinned " << pinned << " reserved " << reserved;
    ASSERT_EQ(seen(a), seen(b));
    cov_.set_steals += a.empty() ? 0 : 1;
    adopt_or_release(rng, a, b);
  }

  void move(util::Rng& rng) {
    const auto k = static_cast<std::uint32_t>(
        rng.next_below(8) == 0 ? 1000 : 1 + rng.next_below(8));
    std::vector<TaskDesc*> a;
    std::vector<TaskDesc*> b;
    const TrySteal ra = q_.try_move_tasks(a, k);
    const TrySteal rb = o_.try_move_tasks(b, k);
    ASSERT_EQ(ra, rb) << "max_tasks " << k;
    ASSERT_EQ(seen(a), seen(b));
    cov_.moves += a.empty() ? 0 : 1;
    adopt_or_release(rng, a, b);
  }

  /// Half the time the batch is adopted back (as a thief adopts onto its own
  /// queue) and the adopting pop's task compared; otherwise it leaves.
  void adopt_or_release(util::Rng& rng, const std::vector<TaskDesc*>& a,
                        const std::vector<TaskDesc*>& b) {
    if (a.empty()) return;
    if (rng.next_below(2) == 0) {
      for (const TaskDesc* t : a) release(t);
      return;
    }
    const auto server = static_cast<topo::ProcId>(1 + rng.next_below(3));
    TaskDesc* ta = q_.adopt_and_pop(a, server);
    TaskDesc* tb = o_.adopt_and_pop(b, server);
    ASSERT_NE(ta, nullptr);
    ASSERT_NE(tb, nullptr);
    ASSERT_EQ(seen(ta), seen(tb));
    ++cov_.adoptions;
    release(ta);
  }

  ServerQueues q_;
  oracle::SingleListQueues o_;
  std::deque<TaskDesc> a_;  // deque: queued tasks must never move
  std::deque<TaskDesc> b_;
  std::vector<std::size_t> free_;
  Coverage cov_;
};

void expect_covered(const Coverage& c) {
  EXPECT_GE(c.max_size, 100u);
  EXPECT_GT(c.set_steals, 0u);
  for (const std::size_t n : c.object_steals) EXPECT_GT(n, 0u);
  EXPECT_GT(c.empty_steals, 0u);
  EXPECT_GT(c.moves, 0u);
  EXPECT_GT(c.adoptions, 0u);
  EXPECT_GT(c.resumed, 0u);
}

TEST(QueuesOracle, EverySetCollidesInOneSlot) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Mirror m(1);
    m.run(seed, 6000);
    ASSERT_FALSE(HasFailure()) << "seed " << seed;
    expect_covered(m.coverage());
  }
}

TEST(QueuesOracle, SixtyFourSlots) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Mirror m(64);
    m.run(seed, 6000);
    ASSERT_FALSE(HasFailure()) << "seed " << seed;
    expect_covered(m.coverage());
  }
}

}  // namespace
}  // namespace cool::sched
