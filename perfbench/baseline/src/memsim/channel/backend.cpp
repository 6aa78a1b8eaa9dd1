#include "memsim/channel/backend.hpp"

#include "common/check.hpp"
#include "memsim/channel/ddr.hpp"
#include "memsim/channel/flat.hpp"

namespace cool::mem {

void ChannelConfig::validate(const topo::MachineConfig& machine) const {
  if (kind == Kind::kFlat) return;  // Shape parameters are ignored.
  COOL_CHECK(channels_per_cluster > 0, "mem-backend: need >= 1 channel");
  COOL_CHECK(banks_per_channel > 0, "mem-backend: need >= 1 bank");
  COOL_CHECK(queue_depth > 0, "mem-backend: need queue depth >= 1");
  COOL_CHECK(row_bytes >= machine.line_bytes,
             "mem-backend: row_bytes must cover at least one line");
  COOL_CHECK(row_bytes % machine.line_bytes == 0,
             "mem-backend: row_bytes must be a multiple of line_bytes");
  COOL_CHECK(timing.t_burst > 0, "mem-backend: t_burst must be > 0");
}

std::unique_ptr<ChannelBackend> make_channel_backend(
    const topo::MachineConfig& machine, const ChannelConfig& cfg) {
  cfg.validate(machine);
  switch (cfg.kind) {
    case ChannelConfig::Kind::kFlat:
      return std::make_unique<FlatBackend>(machine);
    case ChannelConfig::Kind::kDdr:
      return std::make_unique<DdrBackend>(machine, cfg);
  }
  COOL_CHECK(false, "mem-backend: unknown kind");
  return nullptr;
}

}  // namespace cool::mem
