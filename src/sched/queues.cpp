#include "sched/queues.hpp"

#include "common/error.hpp"

namespace cool::sched {

ServerQueues::ServerQueues(std::size_t affinity_array_size)
    : slots_(affinity_array_size) {
  COOL_CHECK(affinity_array_size >= 1, "affinity array needs at least one slot");
}

void ServerQueues::note_pushed_locked() {
  ++pushed_;
  const std::size_t n = size_.load(std::memory_order_relaxed) + 1;
  size_.store(n, std::memory_order_relaxed);
  if (n > max_depth_.load(std::memory_order_relaxed)) {
    max_depth_.store(n, std::memory_order_relaxed);
  }
}

void ServerQueues::note_popped_locked() {
  ++popped_;
  size_.fetch_sub(1, std::memory_order_relaxed);
}

void ServerQueues::push_locked(TaskDesc* t) {
  COOL_DCHECK(t != nullptr, "null task");
  if (t->aff.has_task()) {
    AffSlot& slot = slots_[slot_of(t->aff_key)];
    slot.tasks.push_back(t);
    slot.n_pinned += set_pinned(t) ? 1 : 0;
    slot.n_reserved += t->reserved ? 1 : 0;
    if (!slot.hook.is_linked()) nonempty_.push_back(&slot);
  } else {
    t->qpos = ++back_stamp_;
    object_q_[class_of(t)].push_back(t);
  }
  note_pushed_locked();
}

void ServerQueues::push(TaskDesc* t) {
  util::MutexLock g(mu_);
  push_locked(t);
  maybe_check_locked();
}

void ServerQueues::push_resumed(TaskDesc* t) {
  COOL_DCHECK(t != nullptr, "null task");
  util::MutexLock g(mu_);
  t->qpos = --front_stamp_;
  object_q_[class_of(t)].push_front(t);
  note_pushed_locked();
  maybe_check_locked();
}

TaskDesc* ServerQueues::take_slot_task(AffSlot& slot, bool youngest) {
  TaskDesc* t = youngest ? slot.tasks.pop_back() : slot.tasks.pop_front();
  COOL_DCHECK(t != nullptr, "take from an empty affinity slot");
  slot.n_pinned -= set_pinned(t) ? 1 : 0;
  slot.n_reserved -= t->reserved ? 1 : 0;
  if (slot.tasks.empty()) {
    slot.hook.unlink();
    if (active_ == &slot) active_ = nullptr;
  }
  note_popped_locked();
  return t;
}

TaskDesc* ServerQueues::object_end(unsigned classes, bool youngest) const {
  // Stamps order the sublists as one queue, so the queue's oldest (youngest)
  // task among these classes is the least (greatest) stamp at a list end.
  TaskDesc* best = nullptr;
  for (std::size_t c = 0; c < kClasses; ++c) {
    if ((classes >> c & 1u) == 0) continue;
    TaskDesc* t = youngest ? object_q_[c].back() : object_q_[c].front();
    if (t == nullptr) continue;
    if (best == nullptr || (youngest ? t->qpos > best->qpos
                                     : t->qpos < best->qpos)) {
      best = t;
    }
  }
  return best;
}

TaskDesc* ServerQueues::take_object_task(TaskDesc* t) {
  TaskList::erase(t);
  note_popped_locked();
  return t;
}

TaskDesc* ServerQueues::pop_locked() {
  // Keep draining the active affinity set: this is the back-to-back execution
  // that gives the paper's cache reuse. Otherwise start on the next set.
  if (active_ == nullptr) active_ = nonempty_.front();
  if (active_ != nullptr) return take_slot_task(*active_, /*youngest=*/false);
  TaskDesc* t = object_end(kAllClasses, /*youngest=*/false);
  return t == nullptr ? nullptr : take_object_task(t);
}

TaskDesc* ServerQueues::pop() {
  util::MutexLock g(mu_);
  TaskDesc* t = pop_locked();
  maybe_check_locked();
  return t;
}

std::vector<TaskDesc*> ServerQueues::steal_set_locked(bool allow_pinned,
                                                      bool allow_reserved) {
  // Steal the set least likely to be serviced soon: the eligible set nearest
  // the back of the non-empty list, preferring anything over the active set
  // (which the owner is draining). A slot's counts cover every queued task,
  // so a hash collision of a pinned and an unpinned set in one slot keeps
  // the whole slot (which moves as one on a steal) ineligible.
  AffSlot* victim = nullptr;
  bool active_eligible = false;
  for (AffSlot* s = nonempty_.back(); s != nullptr; s = nonempty_.prev(s)) {
    ++scan_steps_;
    if (!allow_pinned && s->n_pinned != 0) continue;
    if (!allow_reserved && s->n_reserved != 0) continue;
    if (s != active_) {
      victim = s;
      break;
    }
    active_eligible = true;
  }
  if (victim == nullptr && active_eligible) victim = active_;
  if (victim == nullptr) return {};
  std::vector<TaskDesc*> set;
  while (!victim->tasks.empty()) {
    TaskDesc* t = take_slot_task(*victim, /*youngest=*/false);
    t->stolen = true;
    set.push_back(t);
  }
  return set;
}

TrySteal ServerQueues::try_steal_set(std::vector<TaskDesc*>& out,
                                     bool allow_pinned, bool allow_reserved) {
  if (!mu_.try_lock()) return TrySteal::kBusy;
  util::MutexLock l(mu_, util::kAdoptLock);
  out = steal_set_locked(allow_pinned, allow_reserved);
  maybe_check_locked();
  return out.empty() ? TrySteal::kEmpty : TrySteal::kGot;
}

TaskDesc* ServerQueues::steal_object_task_locked(bool allow_pinned,
                                                 bool allow_reserved) {
  // The youngest eligible task: hint-free unless pins are allowed,
  // unreserved unless reservations are up for grabs.
  unsigned classes = 0;
  for (std::size_t c = 0; c < kClasses; ++c) {
    if (!allow_pinned && (c & kPinnedClass) != 0) continue;
    if (!allow_reserved && (c & kReservedClass) != 0) continue;
    classes |= 1u << c;
    ++scan_steps_;
  }
  TaskDesc* t = object_end(classes, /*youngest=*/true);
  if (t == nullptr) return nullptr;
  t->stolen = true;
  return take_object_task(t);
}

TrySteal ServerQueues::try_steal_object_task(TaskDesc*& out, bool allow_pinned,
                                             bool allow_reserved) {
  if (!mu_.try_lock()) return TrySteal::kBusy;
  util::MutexLock l(mu_, util::kAdoptLock);
  out = steal_object_task_locked(allow_pinned, allow_reserved);
  maybe_check_locked();
  return out != nullptr ? TrySteal::kGot : TrySteal::kEmpty;
}

TrySteal ServerQueues::try_move_tasks(std::vector<TaskDesc*>& out,
                                      std::uint32_t max_tasks) {
  if (!mu_.try_lock()) return TrySteal::kBusy;
  util::MutexLock l(mu_, util::kAdoptLock);
  out.clear();
  // Youngest object-queue tasks first (least likely to be popped soon), then
  // whole affinity slots from the back so moved sets stay contiguous on the
  // destination.
  while (out.size() < max_tasks) {
    TaskDesc* t = object_end(kAllClasses, /*youngest=*/true);
    if (t == nullptr) break;
    out.push_back(take_object_task(t));
  }
  while (out.size() < max_tasks) {
    AffSlot* s = nonempty_.front();
    if (s == nullptr) break;
    out.push_back(take_slot_task(*s, /*youngest=*/true));
  }
  for (TaskDesc* t : out) t->moved = true;
  maybe_check_locked();
  return out.empty() ? TrySteal::kEmpty : TrySteal::kGot;
}

TaskDesc* ServerQueues::adopt_and_pop(const std::vector<TaskDesc*>& set,
                                      topo::ProcId new_server) {
  util::MutexLock g(mu_);
  for (TaskDesc* t : set) {
    t->server = new_server;
    push_locked(t);
  }
  TaskDesc* t = pop_locked();
  maybe_check_locked();
  return t;
}

std::size_t ServerQueues::n_nonempty_affinity_queues() const {
  util::MutexLock g(mu_);
  return nonempty_.size();
}

std::size_t ServerQueues::object_queue_size() const {
  util::MutexLock g(mu_);
  std::size_t n = 0;
  for (const TaskList& l : object_q_) n += l.size();
  return n;
}

std::uint64_t ServerQueues::scan_steps() const {
  util::MutexLock g(mu_);
  return scan_steps_;
}

// --- Invariant checking ------------------------------------------------------

void ServerQueues::check_locked() const {
  std::size_t in_slots = 0;
  std::size_t nonempty_count = 0;
  bool active_in_range = active_ == nullptr;
  for (const AffSlot& s : slots_) {
    const std::size_t n = s.tasks.size();
    COOL_CHECK(s.hook.is_linked() == (n != 0),
               "invariant: slot on the non-empty list iff it holds tasks");
    if (&s == active_) active_in_range = true;
    nonempty_count += n != 0 ? 1 : 0;
    in_slots += n;
    const auto idx = static_cast<std::size_t>(&s - slots_.data());
    std::size_t pinned = 0;
    std::size_t reserved = 0;
    for (const TaskDesc* t : s.tasks) {
      COOL_CHECK(t->aff.has_task(),
                 "invariant: affinity-slot task without TASK affinity");
      COOL_CHECK(slot_of(t->aff_key) == idx,
                 "invariant: task hashed into the wrong affinity slot");
      COOL_CHECK(owner_ == kNoOwner || t->server == owner_,
                 "invariant: queued task's server is not the queue owner");
      pinned += set_pinned(t) ? 1 : 0;
      reserved += t->reserved ? 1 : 0;
    }
    COOL_CHECK(s.n_pinned == pinned && s.n_reserved == reserved,
               "invariant: slot pinned/reserved counts out of sync with its "
               "tasks");
  }
  COOL_CHECK(active_in_range,
             "invariant: active set pointer outside the slot array");
  COOL_CHECK(active_ == nullptr || !active_->tasks.empty(),
             "invariant: active set pointer left on a drained slot");
  COOL_CHECK(nonempty_.size() == nonempty_count,
             "invariant: non-empty list out of sync with slot contents");
  for (const AffSlot* s : nonempty_) {
    COOL_CHECK(!s->tasks.empty(), "invariant: empty slot on non-empty list");
  }
  std::size_t in_object_q = 0;
  for (std::size_t c = 0; c < kClasses; ++c) {
    std::int64_t prev = front_stamp_ - 1;
    for (const TaskDesc* t : object_q_[c]) {
      COOL_CHECK(class_of(t) == c,
                 "invariant: object-queue task in the wrong class sublist");
      COOL_CHECK(t->qpos > prev && t->qpos <= back_stamp_,
                 "invariant: object-queue stamps out of order");
      COOL_CHECK(owner_ == kNoOwner || t->server == owner_,
                 "invariant: queued task's server is not the queue owner");
      prev = t->qpos;
      ++in_object_q;
    }
  }
  const std::size_t total = in_slots + in_object_q;
  COOL_CHECK(size_.load(std::memory_order_relaxed) == total,
             "invariant: size counter out of sync with queue contents");
  COOL_CHECK(pushed_ - popped_ == total,
             "invariant: enqueue/dequeue ledger does not balance");
  COOL_CHECK(max_depth_.load(std::memory_order_relaxed) >= total,
             "invariant: high-water mark below the current depth");
}

void ServerQueues::validate() const {
  util::MutexLock g(mu_);
  check_locked();
}

void ServerQueues::for_each_task(
    const std::function<void(const TaskDesc*)>& fn) const {
  util::MutexLock g(mu_);
  for (const AffSlot& s : slots_) {
    for (const TaskDesc* t : s.tasks) fn(t);
  }
  for (const TaskList& l : object_q_) {
    for (const TaskDesc* t : l) fn(t);
  }
}

std::uint64_t ServerQueues::pushed() const {
  util::MutexLock g(mu_);
  return pushed_;
}

std::uint64_t ServerQueues::popped() const {
  util::MutexLock g(mu_);
  return popped_;
}

}  // namespace cool::sched
