// Test-only reference for sched::ServerQueues: the single-list structure the
// scheduler used before the object queue was split into eligibility
// sublists. One object queue holds every non-TASK and resumed task in queue
// order, and steals find their task or set by walking it, so each operation's
// choice is obvious from the code even though steals are O(queue).
// Differential tests drive the same operation stream through both and
// require identical results.
//
// Single-threaded: no lock, no atomics, no paranoid re-validation. The
// choices (which task, which set, in which order) are ServerQueues' as of
// the single-list version, statement for statement.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/intrusive_list.hpp"
#include "sched/queues.hpp"
#include "sched/task.hpp"

namespace cool::sched::oracle {

class SingleListQueues {
 public:
  using TaskList = util::IntrusiveList<TaskDesc, &TaskDesc::hook>;

  explicit SingleListQueues(std::size_t affinity_array_size)
      : slots_(affinity_array_size) {
    COOL_CHECK(affinity_array_size >= 1,
               "affinity array needs at least one slot");
  }

  [[nodiscard]] std::size_t slot_of(std::uint64_t aff_key) const noexcept {
    const std::uint64_t mixed = (aff_key * 0x9e3779b97f4a7c15ull) >> 17;
    return static_cast<std::size_t>(mixed % slots_.size());
  }

  void push(TaskDesc* t) {
    if (t->aff.has_task()) {
      AffSlot& slot = slots_[slot_of(t->aff_key)];
      slot.tasks.push_back(t);
      if (!slot.hook.is_linked()) nonempty_.push_back(&slot);
    } else {
      object_q_.push_back(t);
    }
    ++size_;
  }

  void push_resumed(TaskDesc* t) {
    object_q_.push_front(t);
    ++size_;
  }

  TaskDesc* pop() {
    if (active_ != nullptr && !active_->tasks.empty()) {
      TaskDesc* t = active_->tasks.pop_front();
      on_slot_pop(*active_);
      --size_;
      return t;
    }
    active_ = nullptr;
    if (AffSlot* slot = nonempty_.front()) {
      active_ = slot;
      TaskDesc* t = slot->tasks.pop_front();
      on_slot_pop(*slot);
      --size_;
      return t;
    }
    if (TaskDesc* t = object_q_.pop_front()) {
      --size_;
      return t;
    }
    return nullptr;
  }

  TrySteal try_steal_set(std::vector<TaskDesc*>& out, bool allow_pinned,
                         bool allow_reserved) {
    auto eligible = [&](AffSlot* s) {
      if (allow_pinned && allow_reserved) return true;
      for (const TaskDesc* t : s->tasks) {
        if (!allow_pinned &&
            (t->aff.has_processor() || t->aff.has_object())) {
          return false;
        }
        if (!allow_reserved && t->reserved) return false;
      }
      return !s->tasks.empty();
    };
    AffSlot* victim = nullptr;
    AffSlot* active_fallback = nullptr;
    for (AffSlot* s : nonempty_) {
      if (!eligible(s)) continue;
      if (s == active_) {
        active_fallback = s;
      } else {
        victim = s;  // keep the last eligible non-active set
      }
    }
    if (victim == nullptr) victim = active_fallback;
    out.clear();
    if (victim == nullptr) return TrySteal::kEmpty;
    while (TaskDesc* t = victim->tasks.pop_front()) {
      t->stolen = true;
      out.push_back(t);
      --size_;
    }
    on_slot_pop(*victim);
    return TrySteal::kGot;
  }

  TrySteal try_steal_object_task(TaskDesc*& out, bool allow_pinned,
                                 bool allow_reserved) {
    TaskDesc* t = nullptr;
    if (allow_pinned && allow_reserved) {
      t = object_q_.pop_back();
    } else {
      for (TaskDesc* cand : object_q_) {
        if (!allow_pinned && !cand->aff.is_none()) continue;
        if (!allow_reserved && cand->reserved) continue;
        t = cand;
      }
      if (t != nullptr) TaskList::erase(t);
    }
    if (t != nullptr) {
      t->stolen = true;
      --size_;
    }
    out = t;
    return t != nullptr ? TrySteal::kGot : TrySteal::kEmpty;
  }

  TrySteal try_move_tasks(std::vector<TaskDesc*>& out,
                          std::uint32_t max_tasks) {
    out.clear();
    auto take = [&](TaskDesc* t) {
      t->moved = true;
      out.push_back(t);
      --size_;
    };
    while (out.size() < max_tasks) {
      TaskDesc* t = object_q_.pop_back();
      if (t == nullptr) break;
      take(t);
    }
    while (out.size() < max_tasks) {
      AffSlot* s = nonempty_.front();
      if (s == nullptr) break;
      TaskDesc* t = s->tasks.pop_back();
      take(t);
      on_slot_pop(*s);
    }
    return out.empty() ? TrySteal::kEmpty : TrySteal::kGot;
  }

  TaskDesc* adopt_and_pop(const std::vector<TaskDesc*>& set,
                          topo::ProcId new_server) {
    for (TaskDesc* t : set) {
      t->server = new_server;
      push(t);
    }
    return pop();
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  struct AffSlot {
    TaskList tasks;
    util::ListHook hook;
  };

  void on_slot_pop(AffSlot& slot) {
    if (slot.tasks.empty()) {
      slot.hook.unlink();
      if (active_ == &slot) active_ = nullptr;
    }
  }

  TaskList object_q_;
  std::vector<AffSlot> slots_;
  util::IntrusiveList<AffSlot, &AffSlot::hook> nonempty_;
  AffSlot* active_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace cool::sched::oracle
