#include "topology/machine.hpp"

namespace cool::topo {

void MachineConfig::validate() const {
  COOL_CHECK(n_procs >= 1, "need at least one processor");
  COOL_CHECK(n_procs <= 64, "directory sharer mask supports at most 64 processors");
  COOL_CHECK(procs_per_cluster >= 1, "need at least one processor per cluster");
  COOL_CHECK(util::is_pow2(line_bytes), "line size must be a power of two");
  COOL_CHECK(util::is_pow2(page_bytes), "page size must be a power of two");
  COOL_CHECK(page_bytes >= line_bytes, "pages must be at least one line");
  COOL_CHECK(l1_assoc >= 1 && l2_assoc >= 1, "associativity must be >= 1");
  COOL_CHECK(l1_bytes % (line_bytes * l1_assoc) == 0,
             "L1 size must be a multiple of line_bytes * assoc");
  COOL_CHECK(l2_bytes % (line_bytes * l2_assoc) == 0,
             "L2 size must be a multiple of line_bytes * assoc");
  COOL_CHECK(util::is_pow2(l1_bytes / (line_bytes * l1_assoc)),
             "L1 set count must be a power of two");
  COOL_CHECK(util::is_pow2(l2_bytes / (line_bytes * l2_assoc)),
             "L2 set count must be a power of two");
  COOL_CHECK(l2_bytes >= l1_bytes, "L2 must be at least as large as L1 (inclusion)");
}

}  // namespace cool::topo
