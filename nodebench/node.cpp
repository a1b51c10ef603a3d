// Node workloads: the real-thread NodeRuntime driven open loop (its ticker
// offers subframes on a fixed schedule regardless of progress), plus the
// single-thread PHY replay of the same generated subframes that gives the
// phy.* rows of the ledger.
#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "channel/channel.hpp"
#include "common/rng.hpp"
#include "phy/uplink_rx.hpp"
#include "phy/uplink_tx.hpp"
#include "runtime/node_runtime.hpp"

namespace nodebench {
namespace {

using namespace rtopex;

// node_saturated: service capacity with decode and the batching glue doing
// the work. Arrivals (8 BS every 100 us) outrun two workers by an order of
// magnitude, so the backlog never empties; deadlines are off. SNR 14.5 dB
// with MCS 22..26 costs 1-4 turbo iterations per block (mean about 1.1)
// and decodes every generated subframe (no CRC failure over seeds
// 1..1000); with MCS 27, or at 14 dB, some seeds leave a subframe that
// fails CRC (NOTES.md).
runtime::RuntimeConfig saturated(const Options& opt) {
  runtime::RuntimeConfig c;
  c.mode = runtime::RuntimeMode::kGlobal;
  c.num_basestations = 8;
  c.global_cores = 2;
  c.subframes_per_bs = opt.quick ? 8 : 100;
  c.subframe_period = microseconds(100);
  // Deadlines are off: the budget only labels records, and is set past any
  // backlog a repetition can build so no subframe is labelled late.
  c.deadline_budget = milliseconds(60000);
  c.rtt_half = microseconds(50);
  c.enforce_deadlines = false;
  c.snr_db = 14.5;
  c.mcs_cycle = {22, 24, 26};
  c.phy.num_antennas = 2;
  c.throughput.batch = 16;
  c.throughput.numa_pools = true;
  c.throughput.pin_workers = true;
  return c;
}

// node_realtime: per-subframe latency under RT-OPEX subtask migration with
// deadlines enforced at a moderate real-time load, with the runtime's own
// trace and health engine on (as `live_runtime --trace --health` deploys
// it). Four antennas at 30 dB make it FFT-heavy (56 FFT subtasks, one
// turbo iteration); MCS 27 is left out of the cycle because its six
// per-block decodes would outweigh the FFT stage. The 4 ms period stays
// clear of the static-seed drop trap that a 2 ms period triggers
// (NOTES.md, known defect 2).
runtime::RuntimeConfig realtime(const Options& opt) {
  runtime::RuntimeConfig c;
  c.mode = runtime::RuntimeMode::kRtOpex;
  c.num_basestations = 1;
  c.cores_per_bs = 3;
  c.subframes_per_bs = opt.quick ? 60 : 500;
  c.subframe_period = milliseconds(4);
  c.deadline_budget = 2 * c.subframe_period;
  c.rtt_half = microseconds(500);
  c.enforce_deadlines = true;
  c.snr_db = 30.0;
  c.mcs_cycle = {4, 10, 16};
  c.phy.num_antennas = 4;
  c.pin_threads = true;
  c.trace.enabled = true;
  c.health.enabled = true;
  // Health windows are specified per 1 ms subframe; stretch them by the
  // period so they span the same number of subframes.
  const Duration scale = c.subframe_period / milliseconds(1);
  c.health.eval_period *= scale;
  for (obs::health::BurnRateRule* rule :
       {&c.health.fast_burn, &c.health.slow_burn}) {
    rule->short_window *= scale;
    rule->long_window *= scale;
    rule->clear_hold *= scale;
  }
  c.health.min_window_samples = 4;
  return c;
}

std::string config_json(const runtime::RuntimeConfig& c) {
  const bool global = c.mode == runtime::RuntimeMode::kGlobal;
  std::string mcs = "[";
  for (std::size_t i = 0; i < c.mcs_cycle.size(); ++i) {
    if (i) mcs += ",";
    mcs += std::to_string(c.mcs_cycle[i]);
  }
  mcs += "]";
  return std::string("{\"mode\":") + (global ? "\"global\"" : "\"rtopex\"") +
         ",\"basestations\":" + std::to_string(c.num_basestations) +
         ",\"workers\":" +
         std::to_string(global ? c.global_cores
                               : c.num_basestations * c.cores_per_bs) +
         ",\"subframes_per_bs_per_rep\":" + std::to_string(c.subframes_per_bs) +
         ",\"period_us\":" + json_number(to_us(c.subframe_period)) +
         ",\"budget_us\":" + json_number(to_us(c.deadline_budget)) +
         ",\"rtt_half_us\":" + json_number(to_us(c.rtt_half)) +
         ",\"antennas\":" + std::to_string(c.phy.num_antennas) +
         ",\"mcs_cycle\":" + mcs + ",\"snr_db\":" + json_number(c.snr_db) +
         ",\"deadlines\":" + (c.enforce_deadlines ? "true" : "false") +
         ",\"batch\":" + std::to_string(c.throughput.batch) +
         ",\"numa_pools\":" + (c.throughput.numa_pools ? "true" : "false") +
         ",\"runtime_trace\":" + (c.trace.enabled ? "true" : "false") +
         ",\"health\":" + (c.health.enabled ? "true" : "false") + "}";
}

/// What a run of repetitions measured. Each repetition constructs a fresh
/// NodeRuntime (set-up) and runs its whole schedule (measured phase).
struct NodePhase {
  std::vector<double> setup_s;
  std::vector<double> throughput;   ///< completed subframes / wall s.
  std::vector<double> cpu_us_per_sf;
  std::vector<double> rep_latency_p50_us;
  std::vector<double> latency_us;   ///< pooled arrival -> completion.
  std::vector<double> queue_us;     ///< pooled arrival -> start.
  double fft_ns = 0.0, demod_ns = 0.0, decode_ns = 0.0;
  std::size_t records = 0, processed = 0;
  std::size_t drops = 0, crc_failures = 0;
  std::size_t migrations = 0, recoveries = 0, batched = 0;
  std::size_t trace_events = 0, trace_drops = 0, alerts = 0;
  /// Turbo iterations the runtime reported, per (basestation, MCS).
  std::map<std::pair<unsigned, unsigned>, std::set<unsigned>> iterations;
};

/// Checks one report's conservation law and folds it into the phase:
/// offered == processed + dropped + late + lost, each (bs, index) exactly
/// once, and the report's counters agree with its records. A processed
/// subframe that failed CRC is a failed operation and a correctness
/// failure, because every generated subframe decodes in the single-thread
/// reference (the traced run checks that). A subframe that missed its
/// deadline (dropped, arrived late or completed late) or was lost counts as
/// missed: the host's timing decides those, not the seed.
void account(const runtime::RuntimeConfig& cfg,
             const runtime::RuntimeReport& rep, NodePhase& ph, Report& out) {
  const std::size_t offered = cfg.num_basestations * cfg.subframes_per_bs;
  std::size_t processed = 0, dropped = 0, late = 0, lost = 0, crc = 0;
  std::size_t missed = 0, missed_or_lost = 0;
  std::set<std::pair<unsigned, std::uint32_t>> seen;
  for (const runtime::SubframeRecord& r : rep.records) {
    seen.emplace(r.bs, r.index);
    const int classes = int(r.dropped) + int(r.late_arrival) + int(r.lost);
    if (classes > 1) out.fail("a subframe record has more than one outcome");
    missed += r.deadline_missed;
    missed_or_lost += r.deadline_missed || r.lost;
    if (r.dropped) {
      ++dropped;
    } else if (r.late_arrival) {
      ++late;
    } else if (r.lost) {
      ++lost;
    } else {
      ++processed;
      if (!r.crc_ok) ++crc;
      ph.latency_us.push_back(to_us(r.completion - r.arrival));
      ph.queue_us.push_back(to_us(r.start - r.arrival));
      ph.fft_ns += static_cast<double>(r.timing.fft);
      ph.demod_ns += static_cast<double>(r.timing.demod);
      ph.decode_ns += static_cast<double>(r.timing.decode);
      ph.iterations[{r.bs, r.mcs}].insert(r.iterations);
    }
  }
  if (rep.records.size() != offered || seen.size() != offered ||
      processed + dropped + late + lost != offered)
    out.fail("conservation: offered " + std::to_string(offered) +
             " != processed " + std::to_string(processed) + " + dropped " +
             std::to_string(dropped) + " + late " + std::to_string(late) +
             " + lost " + std::to_string(lost) + " (" +
             std::to_string(rep.records.size()) + " records)");
  if (rep.deadline_misses != missed || rep.dropped != dropped ||
      rep.resilience.late_arrivals != late ||
      rep.resilience.lost_subframes != lost || rep.crc_failures != crc)
    out.fail("runtime report counters disagree with its records");
  if (crc > 0)
    out.fail(std::to_string(crc) + " processed subframes failed CRC");
  out.attempted += offered;
  out.failed += crc;
  out.missed += missed_or_lost;

  ph.records += rep.records.size();
  ph.processed += processed;
  ph.drops += dropped;
  ph.crc_failures += crc;
  ph.migrations += rep.migrations;
  ph.recoveries += rep.recoveries;
  ph.batched += rep.batched_subframes;
  ph.trace_events += rep.trace.events.size();
  ph.trace_drops += rep.trace.total_drops();
  ph.alerts += rep.alerts.size();
}

/// One repetition: a fresh NodeRuntime (set-up), then its whole schedule
/// (the measured phase).
void run_rep(const runtime::RuntimeConfig& cfg, NodePhase& ph, Report& out) {
  const double t0 = now_s();
  runtime::NodeRuntime node(cfg);
  ph.setup_s.push_back(now_s() - t0);

  const double c0 = process_cpu_s();
  const double w0 = now_s();
  const runtime::RuntimeReport report = node.run();
  const double wall = now_s() - w0;
  const double cpu = process_cpu_s() - c0;

  const std::size_t before = ph.processed;
  const std::size_t first_latency = ph.latency_us.size();
  account(cfg, report, ph, out);
  const double completed = static_cast<double>(ph.processed - before);
  ph.throughput.push_back(completed / wall);
  ph.cpu_us_per_sf.push_back(completed > 0 ? 1e6 * cpu / completed : 0.0);
  ph.rep_latency_p50_us.push_back(percentile(
      std::vector<double>(ph.latency_us.begin() + first_latency,
                          ph.latency_us.end()),
      0.5));
}

// ---- single-thread PHY replay ----------------------------------------------

/// One generated received subframe, built exactly as NodeRuntime builds its
/// per-(basestation, MCS) variants from RuntimeConfig::seed, plus the
/// transmitted payload to check the decode against.
struct Variant {
  unsigned bs = 0;
  unsigned mcs = 0;
  std::uint32_t tx_index = 0;
  phy::BitVector payload;
  std::vector<phy::IqVector> samples;
};

std::vector<Variant> make_variants(const runtime::RuntimeConfig& cfg,
                                   bool zero_iq) {
  const phy::UplinkTransmitter tx(cfg.phy);
  Rng rng(cfg.seed);
  std::vector<unsigned> distinct = cfg.mcs_cycle;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  std::vector<Variant> out;
  for (unsigned bs = 0; bs < cfg.num_basestations; ++bs) {
    for (const unsigned mcs : distinct) {
      Variant v;
      v.bs = bs;
      v.mcs = mcs;
      v.tx_index = bs;
      const phy::TxSubframe sf = tx.transmit(mcs, v.tx_index, rng.next());
      channel::ChannelConfig ch;
      ch.snr_db = cfg.snr_db;
      ch.num_rx_antennas = cfg.phy.num_antennas;
      v.samples = channel::pass_through_channel(sf.samples, ch, rng.next());
      if (zero_iq)
        for (phy::IqVector& ant : v.samples)
          std::fill(ant.begin(), ant.end(), phy::Complex{});
      v.payload = sf.payload;
      out.push_back(std::move(v));
    }
  }
  return out;
}

/// Stage times and turbo work of a stretch of replayed subframes.
struct PhyLedger {
  double fft_ns = 0.0, demod_ns = 0.0, decode_ns = 0.0, finalize_ns = 0.0;
  std::size_t subframes = 0, blocks = 0, iterations = 0;

  void add(const PhyLedger& o) {
    fft_ns += o.fft_ns;
    demod_ns += o.demod_ns;
    decode_ns += o.decode_ns;
    finalize_ns += o.finalize_ns;
    subframes += o.subframes;
    blocks += o.blocks;
    iterations += o.iterations;
  }
  /// Sum of the four stage rows, per subframe.
  double total_us() const {
    return per(fft_ns + demod_ns + decode_ns + finalize_ns, subframes) / 1e3;
  }
};

double since_ns(double t0) { return 1e9 * (now_s() - t0); }

/// Replays the workload's own subframe sequence (tick-major, the runtime's
/// MCS rotation) through the public stage calls on the calling thread, in
/// the order a NodeRuntime worker runs a pass: FFT, demod and decode
/// prepare per subframe, then the decode (one cross-subframe batch in
/// throughput mode, per-code-block subtasks otherwise), then finalize per
/// subframe. Timing brackets each stage's calls.
class Replayer {
 public:
  Replayer(const runtime::RuntimeConfig& cfg, bool zero_iq)
      : cfg_(cfg),
        variants_(make_variants(cfg, zero_iq)),
        rx_(cfg.phy),
        group_size_(cfg.throughput.batch) {
    for (std::size_t i = 0; i < group_size_; ++i)
      jobs_.push_back(rx_.make_job());
    PhyLedger warm_up;  // untimed: grows the workspace, warms the caches
    replay_group(warm_up);
  }

  /// Replays at least `subframes` more subframes (whole groups).
  PhyLedger run(std::size_t subframes) {
    PhyLedger led;
    for (std::size_t n = 0; n < subframes; n += group_size_)
      replay_group(led);
    return led;
  }

  /// Subframes that failed CRC or decoded to the wrong payload.
  std::size_t failures() const { return failures_; }
  /// Max turbo iterations over the code blocks, per (basestation, MCS).
  const std::map<std::pair<unsigned, unsigned>, unsigned>& max_iterations()
      const {
    return max_iterations_;
  }

 private:
  const Variant& next() {
    const auto tick = static_cast<unsigned>(seq_ / cfg_.num_basestations);
    const auto bs = static_cast<unsigned>(seq_ % cfg_.num_basestations);
    ++seq_;
    const unsigned mcs = cfg_.mcs_cycle[(tick + bs) % cfg_.mcs_cycle.size()];
    for (const Variant& v : variants_)
      if (v.bs == bs && v.mcs == mcs) return v;
    throw std::logic_error("no variant for this MCS");
  }

  void replay_group(PhyLedger& led) {
    std::vector<const Variant*> group;
    for (std::size_t i = 0; i < group_size_; ++i) group.push_back(&next());
    const std::size_t n = group.size();

    for (std::size_t i = 0; i < n; ++i) {
      double t = now_s();
      rx_.begin(jobs_[i], group[i]->samples, group[i]->mcs,
                group[i]->tx_index);
      for (std::size_t k = 0; k < rx_.fft_subtask_count(); ++k)
        rx_.run_fft_subtask(jobs_[i], k, ws_);
      led.fft_ns += since_ns(t);

      t = now_s();
      rx_.demod_prepare(jobs_[i]);
      for (std::size_t k = 0; k < rx_.demod_subtask_count(); ++k)
        rx_.run_demod_subtask(jobs_[i], k);
      led.demod_ns += since_ns(t);

      t = now_s();
      rx_.decode_prepare(jobs_[i], ws_);
      led.decode_ns += since_ns(t);
    }

    double t = now_s();
    if (group_size_ > 1) {
      std::vector<phy::UplinkRxJob*> ptrs;
      for (std::size_t i = 0; i < n; ++i) ptrs.push_back(&jobs_[i]);
      rx_.run_decode_batch(ptrs, ws_);
    } else {
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t k = 0; k < rx_.decode_subtask_count(jobs_[i]); ++k)
          rx_.run_decode_subtask(jobs_[i], k, ws_);
    }
    led.decode_ns += since_ns(t);

    t = now_s();
    for (std::size_t i = 0; i < n; ++i) {
      rx_.finalize_into(jobs_[i], ws_, result_);
      failures_ += !result_.crc_ok || result_.payload != group[i]->payload;
      max_iterations_[{group[i]->bs, group[i]->mcs}] = result_.iterations;
    }
    led.finalize_ns += since_ns(t);

    led.subframes += n;
    for (std::size_t i = 0; i < n; ++i)
      for (const auto& cb : jobs_[i].cb_results) {
        ++led.blocks;
        led.iterations += cb.iterations;
      }
  }

  const runtime::RuntimeConfig cfg_;
  const std::vector<Variant> variants_;
  const phy::UplinkRxProcessor rx_;
  const std::size_t group_size_;
  std::vector<phy::UplinkRxJob> jobs_;
  phy::DecodeWorkspace ws_;
  phy::UplinkRxResult result_;
  std::size_t seq_ = 0;
  std::size_t failures_ = 0;
  std::map<std::pair<unsigned, unsigned>, unsigned> max_iterations_;
};

/// The replay must see the runtime's own inputs: decoding is deterministic,
/// so every (basestation, MCS) subframe the runtime decoded took exactly
/// the iterations the replay's copy takes, and every copy decodes.
void check_replay(const NodePhase& ph, const Replayer& replayer,
                  Report& out) {
  if (replayer.failures() > 0) {
    out.fail(std::to_string(replayer.failures()) +
             " replayed subframes did not decode to their payload");
    out.failed += replayer.failures();
  }
  for (const auto& [key, seen] : ph.iterations) {
    const auto it = replayer.max_iterations().find(key);
    if (it == replayer.max_iterations().end() || seen != std::set{it->second})
      out.fail("the PHY replay does not reproduce the runtime's subframe "
               "for basestation " + std::to_string(key.first) + ", MCS " +
               std::to_string(key.second));
  }
}

}  // namespace

void run_node(const Options& opt, Report& out) {
  runtime::RuntimeConfig cfg =
      opt.workload == "node_saturated" ? saturated(opt) : realtime(opt);
  cfg.seed = opt.seed;
  // Corrupted input for the runtime: the signal buried 30 dB under the
  // noise, so every decode must fail its CRC.
  if (opt.corrupt) cfg.snr_db = -30.0;
  out.meta("config", config_json(cfg));
  const bool saturated_load = cfg.mode == runtime::RuntimeMode::kGlobal;

  if (!opt.trace) {
    NodePhase ph;
    const double t_end = now_s() + opt.seconds;
    for (unsigned r = 0; r < (opt.quick ? 1u : 3u) || now_s() < t_end; ++r)
      run_rep(cfg, ph, out);
    out.set("setup_s", median(ph.setup_s));
    out.set("throughput_sf_per_s", median(ph.throughput));
    out.set("cpu_us_per_sf", median(ph.cpu_us_per_sf));
    out.set("latency_p50_us", percentile(ph.latency_us, 0.50));
    out.set("latency_p99_us", percentile(ph.latency_us, 0.99));
    out.meta("latency_samples", std::to_string(ph.latency_us.size()));
    out.meta("repetitions", std::to_string(ph.setup_s.size()));
    return;
  }

  // Traced run, in rounds so that host-speed drift hits every part alike:
  // one repetition of the untraced end-to-end configuration (the overhead
  // baseline and the CPU figure the ledger subtracts from), one with the
  // runtime's event tracer on (per-layer runtime/obs rows), then a slice
  // of the single-thread PHY replay (phy rows).
  runtime::RuntimeConfig traced_cfg = cfg;
  traced_cfg.trace.enabled = true;
  Replayer replayer(cfg, opt.corrupt);
  const std::size_t slice =
      std::max<std::size_t>(1, cfg.num_basestations * cfg.subframes_per_bs / 5);
  NodePhase base, ph;
  PhyLedger led;
  std::vector<double> unattributed, overhead;
  const double t_end = now_s() + opt.seconds;
  for (unsigned r = 0; r < 1 || now_s() < t_end; ++r) {
    run_rep(cfg, base, out);
    run_rep(traced_cfg, ph, out);
    const PhyLedger round = replayer.run(slice);
    led.add(round);
    unattributed.push_back(base.cpu_us_per_sf.back() - round.total_us());
    // Saturated: tracing costs CPU per subframe. Real-time: the end-to-end
    // configuration already traces, so this compares the median latency of
    // two identical configurations and reads as run-to-run noise.
    const double a = saturated_load ? base.cpu_us_per_sf.back()
                                    : base.rep_latency_p50_us.back();
    const double b = saturated_load ? ph.cpu_us_per_sf.back()
                                    : ph.rep_latency_p50_us.back();
    overhead.push_back(a > 0.0 ? 100.0 * (b - a) / a : 0.0);
  }
  check_replay(ph, replayer, out);
  out.attempted += led.subframes;

  out.set("phy.fft_us", per(led.fft_ns, led.subframes) / 1e3);
  out.set("phy.demod_us", per(led.demod_ns, led.subframes) / 1e3);
  out.set("phy.decode_us", per(led.decode_ns, led.subframes) / 1e3);
  out.set("phy.finalize_us", per(led.finalize_ns, led.subframes) / 1e3);
  out.set("phy.turbo_iterations_mean",
          per(static_cast<double>(led.iterations), led.blocks));

  out.set("runtime.stage_fft_us", per(ph.fft_ns, ph.processed) / 1e3);
  out.set("runtime.stage_demod_us", per(ph.demod_ns, ph.processed) / 1e3);
  out.set("runtime.stage_decode_us", per(ph.decode_ns, ph.processed) / 1e3);
  out.set("runtime.queue_wait_p50_us", percentile(ph.queue_us, 0.50));
  out.set("runtime.queue_wait_p99_us", percentile(ph.queue_us, 0.99));
  out.set("runtime.migrations_per_sf",
          per(static_cast<double>(ph.migrations), ph.records));
  out.set("runtime.recovery_ratio",
          per(static_cast<double>(ph.recoveries), ph.migrations));
  out.set("runtime.batched_share",
          per(static_cast<double>(ph.batched), ph.records));
  out.set("runtime.unattributed_us_per_sf", median(unattributed));
  out.set("runtime.drops", static_cast<double>(ph.drops));
  out.set("runtime.crc_failures", static_cast<double>(ph.crc_failures));
  out.set("obs.trace_events_per_sf",
          per(static_cast<double>(ph.trace_events), ph.records));
  out.set("obs.trace_drops", static_cast<double>(ph.trace_drops));
  out.set("obs.alerts", static_cast<double>(ph.alerts));
  out.set("bench.trace_overhead_pct", median(overhead));
  out.meta("rounds", std::to_string(overhead.size()));
}

}  // namespace nodebench
