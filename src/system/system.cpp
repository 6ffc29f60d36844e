#include "src/system/system.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace tcdm {

namespace {

/// FNV-1a over delivered words; order-sensitive, so duplicated, dropped or
/// reordered DMA words all change the digest.
void fnv_word(std::uint64_t& h, Word w) {
  for (unsigned b = 0; b < kWordBytes; ++b) {
    h ^= (w >> (8 * b)) & 0xffU;
    h *= 1099511628211ULL;
  }
}

/// Latency unit of the global barrier: the central kind's release latency,
/// the per-link latency of the tree/butterfly kinds.
constexpr unsigned kBarrierLinkLatency = 8;
/// Payload words per cycle one cluster's NoC link can stream.
constexpr unsigned kNocLinkWords = 4;
/// Global L2 words/cycle budget shared by all concurrently streaming clusters.
constexpr unsigned kL2BandwidthWords = 32;

const SystemConfig& validated(const SystemConfig& sys) {
  sys.validate();
  return sys;
}

}  // namespace

System::System(const SystemConfig& sys, const ClusterConfig& cluster_cfg,
               const SimOptions& sim)
    : cfg_(validated(sys)),
      stepping_(sim.stepping),
      global_barrier_(cfg_.barrier_kind, cfg_.num_clusters, kBarrierLinkLatency,
                      cfg_.barrier_radix),
      watchdog_(100'000) {
  cfg_.check_fits(cluster_cfg, cfg_.name);
  clusters_.reserve(cfg_.num_clusters);
  for (unsigned c = 0; c < cfg_.num_clusters; ++c) {
    clusters_.push_back(std::make_unique<Cluster>(cluster_cfg, sim));
  }
  dma_.resize(cfg_.num_clusters);
  kernel_arrived_.assign(cfg_.num_clusters, 0);
  cluster_event_.assign(cfg_.num_clusters, 0);
}

void System::set_watchdog_window(Cycle window) {
  for (auto& c : clusters_) c->set_watchdog_window(window);
  watchdog_.set_window(window);
}

void System::start_dma(Cycle now) {
  dma_started_ = true;
  const unsigned n = num_clusters();
  for (unsigned c = 0; c < n; ++c) {
    DmaEngine& d = dma_[c];
    if (cfg_.dma_words == 0) {
      d.state = DmaEngine::State::kDone;
      global_barrier_.arrive(c, now);
      continue;
    }
    // Golden checksum of the source range, read up front: the source
    // cluster halted before the generation-0 release, so its TCDM is
    // static for the whole DMA phase and any digest mismatch at the end
    // isolates a transfer-bookkeeping bug, not a data race.
    const unsigned src = (c + 1) % n;
    for (unsigned w = 0; w < cfg_.dma_words; ++w) {
      fnv_word(d.golden, clusters_[src]->read_word(static_cast<Addr>(w) * kWordBytes));
    }
    d.state = DmaEngine::State::kHeader;
    d.header_done_at = now + cfg_.burst_header_latency();
  }
}

void System::dma_cycle(Cycle now) {
  if (!dma_started_ || done_) return;
  // One shared L2 budget per cycle; grant priority rotates with the cycle
  // number (cycle-derived arbitration, the in-cluster D2 idiom) so no
  // cluster starves and the outcome is a pure function of (now, state).
  unsigned budget = kL2BandwidthWords;
  const unsigned n = num_clusters();
  for (unsigned k = 0; k < n; ++k) {
    const unsigned c = (static_cast<unsigned>(now % n) + k) % n;
    DmaEngine& d = dma_[c];
    if (d.state == DmaEngine::State::kHeader && now >= d.header_done_at) {
      d.state = DmaEngine::State::kStream;
    }
    if (d.state != DmaEngine::State::kStream || budget == 0) continue;
    const unsigned src = (c + 1) % n;
    const unsigned in_burst = cfg_.dma_burst_len - (d.words_done % cfg_.dma_burst_len);
    unsigned grant = std::min(std::min(budget, kNocLinkWords),
                              std::min(in_burst, cfg_.dma_words - d.words_done));
    budget -= grant;
    while (grant-- > 0) {
      fnv_word(d.checksum, clusters_[src]->read_word(
                               static_cast<Addr>(d.words_done) * kWordBytes));
      ++d.words_done;
      ++words_delivered_;
    }
    if (d.words_done == cfg_.dma_words) {
      d.state = DmaEngine::State::kDone;
      global_barrier_.arrive(c, now);
    } else if (d.words_done % cfg_.dma_burst_len == 0) {
      d.state = DmaEngine::State::kHeader;
      d.header_done_at = now + cfg_.burst_header_latency();
    }
  }
}

Cycle System::dma_next_event() const {
  if (!dma_started_ || done_) return kNoCycle;
  Cycle e = kNoCycle;
  for (const DmaEngine& d : dma_) {
    if (d.state == DmaEngine::State::kStream) return now_;  // streams every cycle
    if (d.state == DmaEngine::State::kHeader) e = std::min(e, d.header_done_at);
  }
  return e;
}

bool System::dma_streaming() const {
  if (!dma_started_ || done_) return false;
  for (const DmaEngine& d : dma_) {
    if (d.state == DmaEngine::State::kStream) return true;
  }
  return false;
}

bool System::step() {
  const Cycle now = now_;
  // Phase 1 — every cluster advances one cycle (a halted cluster's step is
  // a cheap no-op), in ascending cluster index.
  for (auto& c : clusters_) c->step();

  // Phase 2 — kernel-completion arrivals at the global barrier, in
  // ascending cluster index.
  const unsigned n = num_clusters();
  for (unsigned c = 0; c < n; ++c) {
    if (!kernel_arrived_[c] && clusters_[c]->all_halted()) {
      global_barrier_.arrive(c, now);
      kernel_arrived_[c] = 1;
    }
  }

  // Phase 3 — DMA/NoC streaming under the shared L2 budget.
  dma_cycle(now);

  // Phase 4 — global barrier release, run-phase transitions, watchdog.
  global_barrier_.cycle(now);
  if (!dma_started_ && global_barrier_.generation() == 1) start_dma(now);
  if (global_barrier_.generation() >= 2) done_ = true;

  // The system watchdog guards the sync/DMA machinery once every cluster
  // halted (halted clusters stop checking their own); while any cluster
  // runs, its in-cluster watchdog owns deadlock detection.
  bool any_running = false;
  for (auto& c : clusters_) {
    if (!c->all_halted()) {
      any_running = true;
      break;
    }
  }
  const double token = static_cast<double>(words_delivered_) +
                       1048576.0 * global_barrier_.generation() +
                       1024.0 * global_barrier_.arrived();
  if (any_running || token != last_progress_token_) {
    last_progress_token_ = token;
    watchdog_.note_progress(now);
  }
  if (!done_) watchdog_.check(now);

  ++now_;
  return done_;
}

RunOutcome System::run(Cycle max_cycles) {
  // N == 1: no NoC, no DMA, no global barrier — exactly the single-cluster
  // simulation, cycle- and stats-identical to Cluster::run.
  if (num_clusters() == 1) {
    RunOutcome out = clusters_.front()->run(max_cycles);
    now_ = clusters_.front()->now();
    done_ = out.all_halted;
    return out;
  }

  RunOutcome out;
  const Cycle start = now_;
  const Cycle budget_end = max_cycles > kNoCycle - start ? kNoCycle : start + max_cycles;
  while (now_ < budget_end) {
    if (step()) {
      out.all_halted = true;
      break;
    }
    if (stepping_ == SteppingMode::kCycleByCycle) continue;
    const Cycle now = now_;
    if (now >= budget_end) break;
    // May-probe gate, one level up from Cluster::run's: while any cluster's
    // memory phase streams or any DMA engine streams, next cycle has work.
    bool active = dma_streaming();
    for (auto& c : clusters_) active = active || c->mem_phase_active();
    if (active) continue;

    // One global skip decision: the earliest event over every cluster
    // (each fills its own SkipPlan), the DMA engines and a pending global
    // barrier release.
    Cycle event = dma_next_event();
    for (unsigned c = 0; c < num_clusters(); ++c) {
      cluster_event_[c] = clusters_[c]->next_event();
      event = std::min(event, cluster_event_[c]);
    }
    if (global_barrier_.release_pending()) {
      event = std::min(event, global_barrier_.release_at());
    }
    if (event <= now) continue;
    Cycle jump = std::min(std::min(event, watchdog_.deadline()), budget_end);
    for (auto& c : clusters_) {
      // A halted cluster's watchdog is frozen by design (it stopped
      // checking); only running clusters' deadlines cap the jump.
      if (!c->all_halted()) jump = std::min(jump, c->watchdog_deadline());
    }
    if (jump <= now) continue;

    // Skip application touches only the owning cluster (bulk counter
    // application resp. reference-stepping the quiet span). kCrossCheck:
    // clusters are independent over a quiet span (DMA is waiting on a header
    // timestamp and the global barrier on a release cycle, both >= jump), so
    // each cluster reference-steps its span alone; halted clusters have
    // nothing to verify — empty plan, no-op steps — and just advance.
    for (unsigned c = 0; c < num_clusters(); ++c) {
      if (stepping_ == SteppingMode::kEventDriven || clusters_[c]->all_halted()) {
        clusters_[c]->skip_to(jump);
      } else {
        clusters_[c]->cross_check_to(cluster_event_[c], jump);
      }
    }
    now_ = jump;
  }
  out.cycles = now_ - start;
  return out;
}

double System::total_flops() const {
  double sum = 0.0;
  for (const auto& c : clusters_) sum += c->total_flops();
  return sum;
}

double System::bytes_accessed() const {
  double sum = 0.0;
  for (const auto& c : clusters_) sum += c->bytes_accessed();
  return sum;
}

double System::cycles_skipped() const {
  double sum = 0.0;
  for (const auto& c : clusters_) sum += c->cycles_skipped();
  return sum;
}

bool System::dma_checksums_ok() const {
  if (num_clusters() == 1 || !dma_started_ || cfg_.dma_words == 0) return true;
  for (const DmaEngine& d : dma_) {
    if (d.state != DmaEngine::State::kDone || d.checksum != d.golden) return false;
  }
  return true;
}

}  // namespace tcdm
