#include "memsim/channel/ddr.hpp"

#include <algorithm>

namespace cool::mem {

DdrBackend::DdrBackend(const topo::MachineConfig& machine,
                       const ChannelConfig& cfg)
    : cfg_(cfg),
      line_bytes_(machine.line_bytes),
      channels_(static_cast<std::size_t>(machine.n_clusters()) *
                cfg.channels_per_cluster) {
  for (Channel& ch : channels_)
    ch.open_row.assign(cfg_.banks_per_channel, kNoRow);
}

std::size_t DdrBackend::channel_of(topo::ClusterId cluster,
                                   std::uint64_t addr) const {
  const std::uint64_t line = addr / line_bytes_;
  return static_cast<std::size_t>(cluster) * cfg_.channels_per_cluster +
         static_cast<std::size_t>(line % cfg_.channels_per_cluster);
}

void DdrBackend::drain(Channel& ch, std::uint64_t when) {
  if (when <= ch.last_time) return;
  std::uint64_t elapsed = when - ch.last_time;
  ch.last_time = when;
  std::size_t done = 0;
  while (elapsed > 0 && done < ch.queue.size()) {
    Entry& e = ch.queue[done];
    const std::uint64_t take = std::min(elapsed, e.remaining);
    e.remaining -= take;
    ch.ctr.busy_cycles += take;
    elapsed -= take;
    if (e.remaining == 0) ++done;
  }
  if (done > 0)
    ch.queue.erase(ch.queue.begin(),
                   ch.queue.begin() + static_cast<std::ptrdiff_t>(done));
}

std::uint64_t DdrBackend::classify_row(Channel& ch, std::uint64_t addr) {
  const std::uint64_t bank = (addr / cfg_.row_bytes) % cfg_.banks_per_channel;
  const std::uint64_t row =
      addr / (cfg_.row_bytes * cfg_.banks_per_channel);
  std::uint64_t& open = ch.open_row[static_cast<std::size_t>(bank)];
  std::uint64_t extra = 0;
  if (open == row) {
    ++ch.ctr.row_hits;
  } else if (open == kNoRow) {
    ++ch.ctr.row_misses;
    extra = cfg_.timing.t_rcd;
  } else {
    ++ch.ctr.row_conflicts;
    extra = static_cast<std::uint64_t>(cfg_.timing.t_rp) + cfg_.timing.t_rcd;
  }
  open = row;
  return extra;
}

std::uint64_t DdrBackend::enqueue(Channel& ch, std::uint64_t service,
                                  bool row_hit) {
  // FR-FCFS: a row hit jumps ahead of queued non-hits, but never preempts
  // the head entry (already in service).
  std::size_t pos = ch.queue.size();
  if (row_hit) {
    for (std::size_t i = 1; i < ch.queue.size(); ++i) {
      if (!ch.queue[i].row_hit) {
        pos = i;
        break;
      }
    }
  }
  std::uint64_t ahead = 0;
  for (std::size_t i = 0; i < pos; ++i) ahead += ch.queue[i].remaining;
  ch.queue.insert(ch.queue.begin() + static_cast<std::ptrdiff_t>(pos),
                  Entry{service, row_hit});
  ch.ctr.queue_hwm = std::max<std::uint64_t>(ch.ctr.queue_hwm,
                                             ch.queue.size());
  ++ch.ctr.requests;
  return ahead;
}

std::uint64_t DdrBackend::demand_fill(topo::ClusterId cluster,
                                      std::uint64_t addr,
                                      std::uint64_t when) {
  Channel& ch = channels_.at(channel_of(cluster, addr));
  drain(ch, when);
  std::uint64_t wait = 0;
  if (ch.queue.size() >= cfg_.queue_depth) {
    ++ch.ctr.queue_full_stalls;
    // Backpressure: the requester stalls until enough service drains to free
    // a slot. Charge it the head's remaining service (deterministically).
    while (ch.queue.size() >= cfg_.queue_depth) {
      wait += ch.queue.front().remaining;
      ch.ctr.busy_cycles += ch.queue.front().remaining;
      ch.queue.erase(ch.queue.begin());
    }
  }
  const std::uint64_t extra = classify_row(ch, addr);
  const std::uint64_t service =
      static_cast<std::uint64_t>(cfg_.timing.t_cas) + cfg_.timing.t_burst +
      extra;
  wait += enqueue(ch, service, extra == 0);
  // An uncontended row hit returns 0: its tCAS is folded into the machine's
  // base fill latency. Misses/conflicts pay their row-extra on top.
  return wait + extra;
}

void DdrBackend::post_fill(topo::ClusterId cluster, std::uint64_t addr,
                           std::uint64_t when) {
  Channel& ch = channels_.at(channel_of(cluster, addr));
  drain(ch, when);
  if (ch.queue.size() >= cfg_.queue_depth) {
    ++ch.ctr.prefetch_drops;  // Bounded state: full queue drops the post.
    return;
  }
  const std::uint64_t extra = classify_row(ch, addr);
  const std::uint64_t service =
      static_cast<std::uint64_t>(cfg_.timing.t_cas) + cfg_.timing.t_burst +
      extra;
  (void)enqueue(ch, service, extra == 0);
}

void DdrBackend::reset() {
  for (Channel& ch : channels_) {
    ch.last_time = 0;
    ch.queue.clear();
    ch.open_row.assign(cfg_.banks_per_channel, kNoRow);
    ch.ctr = ChannelCounters{};
  }
}

std::vector<ChannelCounters> DdrBackend::stats() const {
  std::vector<ChannelCounters> out;
  out.reserve(channels_.size());
  for (const Channel& ch : channels_) out.push_back(ch.ctr);
  return out;
}

}  // namespace cool::mem
