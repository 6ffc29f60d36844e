// The benchmark's metric catalog: every metric name the driver may emit,
// with its unit and direction. BENCHMARK.json declares the same names; the
// self-test checks that the two agree and main.cpp refuses to emit a name
// that is not listed here.
#include "driver/simbench.hpp"

namespace simbench {

const std::vector<MetricDef>& metric_catalog() {
  static const std::vector<MetricDef> catalog = {
      // ---- end to end (untraced run) ----
      {"core_cycles_per_s", "1/s", "higher", false},
      {"setup_s", "s", "lower", false},
      {"peak_rss_mb", "MB", "lower", false},
      {"ok_ratio", "ratio", "higher", false},
      {"paper_gain_mae_pp", "pp", "lower", false},

      // ---- per layer (traced run), host time ----
      {"scenario.traced_pass_s", "s", "lower", true},
      {"scenario.prepare_s", "s", "lower", true},
      {"scenario.other_s", "s", "lower", true},
      {"scenario.other_share", "ratio", "lower", true},
      {"cluster.acquire_s", "s", "lower", true},
      {"cluster.cache_hit_ratio", "ratio", "higher", true},
      {"cluster.run_s", "s", "lower", true},
      {"cluster.step_s", "s", "lower", true},
      {"cluster.ns_per_core_cycle", "ns", "lower", true},
      {"cluster.probe_s", "s", "lower", true},
      {"cluster.skip_s", "s", "lower", true},
      {"kernels.setup_s", "s", "lower", true},
      {"kernels.verify_s", "s", "lower", true},
      {"analytics.metrics_s", "s", "lower", true},
      {"analytics.power_s", "s", "lower", true},
      {"system.build_s", "s", "lower", true},
      {"system.run_s", "s", "lower", true},
      {"trace.overhead_ratio", "ratio", "lower", true},

      // ---- per layer, stepping protocol counts ----
      {"cluster.steps", "count", "lower", true},
      {"cluster.probes", "count", "lower", true},
      {"cluster.skips", "count", "higher", true},
      {"cluster.probe_yield", "ratio", "higher", true},
      {"cluster.skip_share", "ratio", "higher", true},
      {"cluster.cycles", "cycles", "lower", true},

      // ---- per layer, simulated counts from stats() ----
      {"spatz.vfpu_busy_cycles", "cycles", "higher", true},
      {"spatz.chain_stall_cycles", "cycles", "lower", true},
      {"spatz.vlsu_beats", "count", "lower", true},
      {"spatz.vlsu_issue_stall_cycles", "cycles", "lower", true},
      {"spatz.viq_stall_cycles", "cycles", "lower", true},
      {"spatz.barrier_wait_cycles", "cycles", "lower", true},
      {"burst.bursts_sent", "count", "higher", true},
      {"burst.burst_words", "words", "higher", true},
      {"burst.narrow_remote_words", "words", "lower", true},
      {"burst.store_bursts_sent", "count", "higher", true},
      {"burst.strided_bursts_sent", "count", "higher", true},
      {"burst.coverage", "ratio", "higher", true},
      {"burst.bm_beats_merged", "count", "higher", true},
      {"burst.bm_fifo_full_events", "count", "lower", true},
      {"interconnect.req_sent", "count", "lower", true},
      {"interconnect.req_hop_words", "words", "lower", true},
      {"interconnect.rsp_beats", "count", "lower", true},
      {"interconnect.egress_blocked_cycles", "cycles", "lower", true},
      {"memory.bank_reads", "count", "lower", true},
      {"memory.bank_writes", "count", "lower", true},
      {"memory.conflict_cycles", "cycles", "lower", true},
      {"memory.conflict_per_access", "ratio", "lower", true},
      {"system.noc_bytes", "B", "higher", true},
  };
  return catalog;
}

const MetricDef* find_metric(std::string_view name) {
  for (const MetricDef& m : metric_catalog()) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

}  // namespace simbench
