#include "src/burst/burst_sender.hpp"

#include <cassert>

namespace tcdm {

namespace {
std::size_t staging_capacity_items(const BurstSenderConfig& cfg, unsigned num_ports) {
  // can_accept_beat() is checked before staging a beat of up to K words.
  return static_cast<std::size_t>(cfg.staging_beats > 0 ? cfg.staging_beats - 1 : 0) *
         num_ports;
}
}  // namespace

BurstSender::BurstSender(const BurstSenderConfig& cfg, unsigned num_ports,
                         unsigned num_classes, unsigned banks_per_tile)
    : cfg_(cfg),
      num_ports_(num_ports),
      num_classes_(num_classes),
      capacity_items_(staging_capacity_items(cfg, num_ports)),
      pool_(capacity_items_ + kMaxPorts),
      lanes_(num_classes + banks_per_tile),
      table_(cfg.table_size) {
  assert(num_ports_ >= 1);
  assert(cfg_.max_burst_len <= kMaxBurstLen);
  assert(pool_.size() < kNil);
  if (cfg_.enable_store_bursts) wdata_.resize(pool_.size());
  free_items_.reserve(pool_.size());
  live_lanes_.init(lanes_.size());
  free_ids_.reserve(cfg_.table_size);
  reset();
}

void BurstSender::reset() {
  for (Lane& l : lanes_) l = Lane{};
  live_lanes_.clear_all();
  free_items_.clear();
  for (std::size_t i = pool_.size(); i-- > 0;) {
    free_items_.push_back(static_cast<std::uint16_t>(i));
  }
  items_ = 0;
  next_seq_ = 0;
  for (TableEntry& e : table_) e = TableEntry{};
  free_ids_.clear();
  for (unsigned i = 0; i < cfg_.table_size; ++i) {
    free_ids_.push_back(cfg_.table_size - 1 - i);
  }
  live_bursts_ = 0;
}

void BurstSender::attach_stats(StatsRegistry& reg, const std::string& prefix) {
  bursts_sent_ = reg.counter(prefix + ".bursts_sent");
  burst_words_ = reg.counter(prefix + ".burst_words");
  strided_bursts_sent_ = reg.counter(prefix + ".strided_bursts_sent");
  store_bursts_sent_ = reg.counter(prefix + ".store_bursts_sent");
  narrow_sent_ = reg.counter(prefix + ".narrow_remote_words");
  local_words_ = reg.counter(prefix + ".local_words");
  coalesce_splits_ = reg.counter(prefix + ".tile_boundary_splits");
}

std::optional<std::uint32_t> BurstSender::alloc_burst() {
  if (free_ids_.empty()) return std::nullopt;
  const std::uint32_t id = free_ids_.back();
  free_ids_.pop_back();
  ++live_bursts_;
  return id;
}

std::uint16_t BurstSender::stage(const PendingItem& item, unsigned lane) {
  assert(!free_items_.empty() && "BurstSender staging capacity bound violated");
  assert(lane < lanes_.size());
  const std::uint16_t idx = free_items_.back();
  free_items_.pop_back();
  PendingItem& slot = pool_[idx];
  slot = item;
  slot.seq = next_seq_++;
  slot.next = kNil;
  Lane& l = lanes_[lane];
  if (l.tail == kNil) {
    l.head = idx;
    live_lanes_.set(lane);
  } else {
    pool_[l.tail].next = idx;
  }
  l.tail = idx;
  ++items_;
  return idx;
}

void BurstSender::stage_narrow(const WordRequest& w, const AddressMap& map,
                               const Topology& topo, TileId home) {
  PendingItem item;
  item.word = w;
  const DecodedAddr dec = map.decode(w.addr);
  if (dec.tile == home) {
    stage(item, num_classes_ + dec.bank_in_tile);
  } else {
    item.dst_tile = dec.tile;
    stage(item, topo.class_of(home, dec.tile));
  }
}

void BurstSender::pop_lane(unsigned lane) {
  Lane& l = lanes_[lane];
  const std::uint16_t idx = l.head;
  assert(idx != kNil);
  l.head = pool_[idx].next;
  if (l.head == kNil) {
    l.tail = kNil;
    live_lanes_.clear(lane);
  }
  free_items_.push_back(idx);
  --items_;
}

bool BurstSender::try_extend_tail(const WordRequest* run, unsigned n, Addr base, TileId dst,
                                  unsigned stride, bool write, const AddressMap& map) {
  // The newest unsent item is the newest of the lane tails (lanes are FIFOs
  // in staging order).
  std::uint16_t newest = kNil;
  live_lanes_.for_each([&](std::size_t lane) {
    const std::uint16_t t = lanes_[lane].tail;
    if (newest == kNil || pool_[t].seq > pool_[newest].seq) newest = t;
  });
  if (newest == kNil) return false;
  PendingItem& tail = pool_[newest];
  if (!tail.is_burst || tail.dst_tile != dst) return false;
  if (tail.stride != stride || tail.write != write) return false;
  if (tail.base + static_cast<Addr>(tail.len) * stride * kWordBytes != base) return false;
  if (tail.len + n > cfg_.max_burst_len) return false;
  // The extended span's last element must still land inside the tile.
  if (map.bank_in_tile(tail.base) + (tail.len + n - 1) * stride >= map.banks_per_tile()) {
    return false;
  }
  if (write) {
    for (unsigned i = 0; i < n; ++i) wdata_[newest][tail.len + i] = run[i].wdata;
  } else {
    TableEntry& e = table_[tail.burst_id];
    assert(e.valid);
    for (unsigned i = 0; i < n; ++i) {
      e.words[tail.len + i] = BurstWord{run[i].port, run[i].rob_slot};
    }
    e.len = static_cast<std::uint8_t>(tail.len + n);
  }
  tail.len = static_cast<std::uint8_t>(tail.len + n);
  return true;
}

bool BurstSender::accept_beat(const BeatRequest& beat, const AddressMap& map,
                              const Topology& topo, TileId home_tile) {
  assert(can_accept_beat());
  assert(topo.num_classes() == num_classes_);
  assert(num_classes_ + map.banks_per_tile() <= lanes_.size());

  // A 1-word-stride vlse32 is semantically a vle32; the extension detects
  // it and rides the plain unit-stride burst path (the paper's baseline
  // design keys on the VLE opcode only).
  const bool unit_load = cfg_.enable_bursts && beat.unit_stride_load;
  const bool strided_load = cfg_.enable_bursts && cfg_.enable_strided_bursts &&
                            beat.strided_load && beat.stride_words >= 1 &&
                            beat.stride_words < map.banks_per_tile();
  const bool unit_store =
      cfg_.enable_bursts && cfg_.enable_store_bursts && beat.unit_stride_store;
  if (!unit_load && !strided_load && !unit_store) {
    for (const WordRequest& w : beat.words) stage_narrow(w, map, topo, home_tile);
    return true;
  }
  const unsigned stride = strided_load ? beat.stride_words : 1;
  const bool write = unit_store;

  // Burst-eligible: the words are equidistant addresses in element order.
  // Split into runs that stay within one tile (and one max-length burst).
  std::size_t i = 0;
  const std::size_t n = beat.words.size();
  bool split_seen = false;
  while (i < n) {
    const Addr base = beat.words[i].addr;
    const DecodedAddr dec = map.decode(base);
    const TileId dst = dec.tile;
    std::size_t run = 1;
    while (i + run < n && run < cfg_.max_burst_len &&
           dec.bank_in_tile + run * stride < map.banks_per_tile()) {
      assert(beat.words[i + run].addr == base + run * stride * kWordBytes);
      ++run;
    }
    if (i + run < n) split_seen = true;

    if (dst == home_tile || run == 1) {
      // Local runs use the full-width tile crossbar; single words stay narrow.
      for (std::size_t j = 0; j < run; ++j) {
        stage_narrow(beat.words[i + j], map, topo, home_tile);
      }
    } else if (try_extend_tail(&beat.words[i], static_cast<unsigned>(run), base, dst,
                               stride, write, map)) {
      // Coalesced into the still-staged previous burst (max_burst_len > K).
    } else if (write) {
      // Write bursts carry their payload and need no reorder table: the
      // serving banks acknowledge each word out of band.
      PendingItem item;
      item.is_burst = true;
      item.write = true;
      item.base = base;
      item.len = static_cast<std::uint8_t>(run);
      item.stride = 1;
      item.dst_tile = dst;
      const std::uint16_t idx = stage(item, topo.class_of(home_tile, dst));
      for (std::size_t j = 0; j < run; ++j) wdata_[idx][j] = beat.words[i + j].wdata;
    } else {
      const auto id = alloc_burst();
      if (!id.has_value()) {
        // Table exhausted: degrade gracefully to narrow requests. Performance
        // falls back to baseline behaviour; correctness is unaffected.
        for (std::size_t j = 0; j < run; ++j) {
          stage_narrow(beat.words[i + j], map, topo, home_tile);
        }
      } else {
        TableEntry& e = table_[*id];
        e.valid = true;
        e.len = static_cast<std::uint8_t>(run);
        e.resolved = 0;
        for (std::size_t j = 0; j < run; ++j) {
          e.words[j] = BurstWord{beat.words[i + j].port, beat.words[i + j].rob_slot};
        }
        PendingItem item;
        item.is_burst = true;
        item.base = base;
        item.len = static_cast<std::uint8_t>(run);
        item.stride = static_cast<std::uint8_t>(stride);
        item.burst_id = *id;
        item.dst_tile = dst;
        stage(item, topo.class_of(home_tile, dst));
      }
    }
    i += run;
  }
  if (split_seen) coalesce_splits_.inc();
  return true;
}

void BurstSender::send_remote(std::uint8_t cls, Cycle now, TileId home, HierNetwork& net) {
  const std::uint16_t idx = lanes_[cls].head;
  const PendingItem& it = pool_[idx];
  TcdmReq req;
  req.src_tile = home;
  if (!it.is_burst) {
    const WordRequest& w = it.word;
    req.addr = w.addr;
    req.len = 1;
    req.write = w.write;
    req.wdata = w.wdata;
    req.tag.owner = ReqOwner::kVecNarrow;
    req.tag.port = w.port;
    req.tag.rob_slot = w.rob_slot;
    narrow_sent_.inc();
  } else {
    req.addr = it.base;
    req.len = it.len;
    req.stride = it.stride;
    req.write = it.write;
    req.tag.owner = ReqOwner::kBurst;
    req.tag.id = it.burst_id;
    if (it.write) req.payload = net.stash_payload({wdata_[idx].data(), it.len});
    bursts_sent_.inc();
    burst_words_.inc(it.len);
    if (it.stride > 1) strided_bursts_sent_.inc();
    if (it.write) store_bursts_sent_.inc();
  }
  net.send_req(home, it.dst_tile, req, now);
}

void BurstSender::dispatch(Cycle now, TileServices& tile) {
  if (items_ == 0) return;
  const AddressMap& map = tile.map();
  const TileId home = tile.tile_id();
  HierNetwork& net = tile.net();

  // Every lane offers its head; items behind a blocked head wait for the
  // next cycle, while other lanes go on (the per-port ROBs make retirement
  // order-independent; kernels never issue overlapping same-address
  // accesses inside this small window). Bit-identical to attempting every
  // staged item in staging order, because within the core phase
  // (docs/ARCHITECTURE.md, "The simulated cycle"):
  //  * only this tile sends on its master ports and nothing pops them, so a
  //    class port found busy or just used stays unusable for the rest of
  //    this call;
  //  * a bank input queue that rejected a push stays full until phase 3;
  //  * different classes and banks touch disjoint wait-lists and queues, so
  //    the order in which lanes are served is unobservable.
  live_lanes_.for_each_live([&](std::size_t lane) {
    if (lane < num_classes_) {
      const auto cls = static_cast<std::uint8_t>(lane);
      if (!net.can_send_req(home, cls, now)) return;
      send_remote(cls, now, home, net);
      pop_lane(static_cast<unsigned>(lane));
      assert(!net.can_send_req(home, cls, now));
      return;
    }
    const auto bank = static_cast<unsigned>(lane - num_classes_);
    for (std::uint16_t idx = lanes_[lane].head; idx != kNil; idx = lanes_[lane].head) {
      const WordRequest& w = pool_[idx].word;
      BankReq br;
      br.row = map.row_of(w.addr);
      br.write = w.write;
      br.wdata = w.wdata;
      br.route.kind = RouteKind::kLocalVector;
      br.route.port = w.port;
      br.route.rob_slot = w.rob_slot;
      br.route.src_tile = home;
      if (!tile.try_local_push(bank, br)) return;
      local_words_.inc();
      pop_lane(static_cast<unsigned>(lane));
    }
  });
}

BurstSender::BurstWord BurstSender::lookup(std::uint32_t id, unsigned word_offset) const {
  const TableEntry& e = table_.at(id);
  assert(e.valid && word_offset < e.len);
  return e.words[word_offset];
}

void BurstSender::note_resolved(std::uint32_t id, unsigned n) {
  TableEntry& e = table_.at(id);
  assert(e.valid);
  e.resolved = static_cast<std::uint8_t>(e.resolved + n);
  assert(e.resolved <= e.len);
  if (e.resolved == e.len) {
    e.valid = false;
    free_ids_.push_back(id);
    assert(live_bursts_ > 0);
    --live_bursts_;
  }
}

}  // namespace tcdm
