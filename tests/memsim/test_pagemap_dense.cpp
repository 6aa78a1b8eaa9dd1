// The dense PageMap's bound: pages at or past PageMap::kMaxPages fail a
// COOL_CHECK that names the cap instead of growing the map, and lookups that
// do not bind never fail or grow it.
#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "memsim/memsystem.hpp"
#include "memsim/pagemap.hpp"

namespace cool::mem {
namespace {

class DensePageMap : public ::testing::Test {
 protected:
  topo::MachineConfig machine_ = topo::MachineConfig::dash();
  PageMap pm_{machine_};
  const std::uint64_t cap_addr_ = PageMap::kMaxPages * machine_.page_bytes;
};

/// Runs `f`, which must throw util::Error naming the dense map's cap.
template <typename F>
void expect_cap_error(F&& f) {
  try {
    f();
    ADD_FAILURE() << "no error for a page beyond the cap";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("beyond the dense map's cap"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(DensePageMap, PageBeyondCapFailsClearly) {
  expect_cap_error([&] { pm_.home_of(cap_addr_, 0); });
  expect_cap_error([&] { pm_.bind_range(cap_addr_, 1, 0); });
  // A range that starts below the cap but ends past it binds nothing.
  expect_cap_error([&] { pm_.bind_range(cap_addr_ - 4096, 8192, 0); });
  EXPECT_EQ(pm_.n_bound_pages(), 0u);
  EXPECT_EQ(pm_.first_touch_count(), 0u);
}

TEST_F(DensePageMap, WrappedAddressFailsClearly) {
  // An object below the arena: tr() wraps its address near 2^64.
  const std::uint64_t wrapped = std::uint64_t{0} - 0x20000;
  expect_cap_error([&] { pm_.home_of(wrapped, 3); });
  EXPECT_FALSE(pm_.is_bound(wrapped));
  EXPECT_THROW((void)pm_.home_of_bound(wrapped), util::Error);

  MemorySystem ms(machine_);
  expect_cap_error([&] { ms.access(0, wrapped, 8, false, 0); });
  expect_cap_error([&] { ms.access(0, cap_addr_, 8, true, 0); });
}

TEST_F(DensePageMap, LastPageBelowCapBinds) {
  EXPECT_EQ(pm_.home_of(cap_addr_ - 1, 5), 5u);
  EXPECT_TRUE(pm_.is_bound(cap_addr_ - 1));
  EXPECT_EQ(pm_.n_bound_pages(), 1u);
  EXPECT_EQ(pm_.pages_per_proc()[5], 1u);
}

TEST_F(DensePageMap, LookupsPastTheMapDoNotBind) {
  pm_.bind_range(0, 4096, 1);
  EXPECT_FALSE(pm_.is_bound(1u << 30));
  EXPECT_THROW((void)pm_.home_of_bound(1u << 30), util::Error);
  EXPECT_EQ(pm_.n_bound_pages(), 1u);
}

TEST_F(DensePageMap, RebindingCountsOnePage) {
  pm_.bind_range(0x5000, 4096, 1);
  pm_.bind_range(0x5000, 4096, 2);
  EXPECT_EQ(pm_.home_of(0x5000, 7), 2u);  // bound: no first touch
  EXPECT_EQ(pm_.n_bound_pages(), 1u);
  EXPECT_EQ(pm_.first_touch_count(), 0u);
  const auto counts = pm_.pages_per_proc();
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 1u);
}

}  // namespace
}  // namespace cool::mem
