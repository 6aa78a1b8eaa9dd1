#include "analysis/invariants.hpp"

#include <unordered_set>

#include "common/error.hpp"

namespace cool::analysis {

void check_scheduler_concurrent(const sched::Scheduler& s) {
  s.check_queues();
}

void check_scheduler_quiescent(const sched::Scheduler& s) {
  check_scheduler_concurrent(s);
  std::unordered_set<const sched::TaskDesc*> seen;
  std::unordered_set<const sched::TaskDesc*> moved_seen;
  std::size_t n = 0;
  s.for_each_queued([&](const sched::TaskDesc* t) {
    ++n;
    COOL_CHECK(seen.insert(t).second,
               "invariant: task resident in two queues at once");
    if (t->moved) {
      // A balancer move is pop-from-victim + adopt-into-thief under two
      // separate locks; this pins the handoff's atomicity: the moved task
      // landed in exactly one queue, never both and never neither (the
      // conservation ledger above catches "neither").
      COOL_CHECK(moved_seen.insert(t).second,
                 "invariant: balancer-moved task resident in two queues");
    }
  });
  COOL_CHECK(n == s.total_queued(),
             "invariant: queued-task walk disagrees with the size counters");
}

void check_admission_ledger(std::uint64_t generated, std::uint64_t admitted,
                            std::uint64_t completed) {
  COOL_CHECK(admitted == generated,
             "invariant: admission ledger dropped or duplicated arrivals "
             "(admitted != generated)");
  COOL_CHECK(completed == admitted,
             "invariant: admission ledger lost or duplicated completions "
             "(completed != admitted)");
}

}  // namespace cool::analysis
