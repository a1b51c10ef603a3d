// sim_postmortem: the virtual-time substrate that regenerates the paper's
// figures, with no PHY and no threads. One trace-driven workload runs
// through partitioned, global and RT-OPEX scheduling, each with static and
// adaptive estimators; every run is traced and then explained with the
// postmortem analyzer and the health scan, the offline use of the obs
// layer that node_realtime uses online.
#include <array>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "obs/analysis/analysis.hpp"
#include "obs/analysis/replay.hpp"
#include "obs/health/health.hpp"

namespace nodebench {
namespace {

using namespace rtopex;
namespace analysis = rtopex::obs::analysis;

struct PolicyRun {
  core::SchedulerKind kind;
  bool adaptive;
  const char* name;  ///< metric infix: sched.<name>.run_us_per_sf
};

constexpr std::array<PolicyRun, 6> kRuns = {{
    {core::SchedulerKind::kPartitioned, false, "partitioned.static"},
    {core::SchedulerKind::kPartitioned, true, "partitioned.adaptive"},
    {core::SchedulerKind::kGlobal, false, "global.static"},
    {core::SchedulerKind::kGlobal, true, "global.adaptive"},
    {core::SchedulerKind::kRtOpex, false, "rtopex.static"},
    {core::SchedulerKind::kRtOpex, true, "rtopex.adaptive"},
}};

// Every policy gets 8 cores for 4 basestations (partitioned and RT-OPEX
// derive 2 per basestation from the 500 us RTT/2).
constexpr unsigned kCores = 8;
constexpr std::size_t kRingCapacity = 1 << 12;
constexpr std::size_t kMaxStoredEvents = 1 << 21;

// Mean load 0.5 with adaptive estimators is where the censored-feedback
// collapse shows (NOTES.md, known defect 1); it must stay visible here.
core::ExperimentConfig sim_config(const Options& opt) {
  core::ExperimentConfig c;
  c.workload.num_basestations = 4;
  c.workload.subframes_per_bs = opt.quick ? 300 : 2000;
  c.workload.mean_load_override = 0.5;
  c.rtt_half = microseconds(500);
  c.stochastic_transport = true;
  c.global.num_cores = kCores;
  return c;
}

struct SimTotals {
  std::vector<double> setup_s, gen_s, throughput, cpu_us_per_sf;
  std::vector<double> latency_p50_us, latency_p99_us;  ///< per repetition
  std::size_t latency_samples = 0;
  std::array<double, kRuns.size()> run_ns{};
  std::array<std::size_t, kRuns.size()> misses{};
  std::array<std::size_t, kRuns.size()> offered{};
  double analyze_ns = 0.0, health_ns = 0.0;
  double est_err_us = 0.0;
  std::size_t est_samples = 0;
  std::size_t subframes = 0;       ///< workload subframes, all repetitions.
  std::size_t subframe_runs = 0;   ///< (subframe, policy run) pairs.
  std::size_t events = 0, drops = 0, alerts = 0, unknown = 0;
};

/// One repetition: set-up (workload generation and tracer allocation), then
/// the six traced policy runs, each analysed and health-scanned. A
/// workload subframe counts as completed once all six are done with it.
void repetition(core::ExperimentConfig cfg, bool spans, SimTotals& tot,
                Report& out) {
  const double t0 = now_s();
  const std::vector<sim::SubframeWork> work = core::make_workload(cfg);
  const double gen = now_s() - t0;
  obs::Tracer tracer(kCores, kRingCapacity, kMaxStoredEvents);
  tot.setup_s.push_back(now_s() - t0);
  tot.gen_s.push_back(gen);

  analysis::AnalyzerOptions aopts;
  aopts.nominal_transport = cfg.rtt_half;
  obs::health::HealthConfig hcfg;
  hcfg.enabled = true;
  obs::health::Topology topo;
  topo.num_basestations = cfg.workload.num_basestations;
  topo.node_cores = {kCores};

  std::vector<double> latencies;
  const double c0 = process_cpu_s();
  const double w0 = now_s();
  for (std::size_t i = 0; i < kRuns.size(); ++i) {
    cfg.scheduler = kRuns[i].kind;
    cfg.adaptive.enabled = kRuns[i].adaptive;
    cfg.tracer = &tracer;

    double t = spans ? now_s() : 0.0;
    const core::ExperimentResult res = core::run_scheduler(cfg, work);
    if (spans) tot.run_ns[i] += 1e9 * (now_s() - t);
    const obs::TraceStore store = tracer.take();

    t = spans ? now_s() : 0.0;
    const analysis::AnalysisReport rep = analysis::analyze(store, aopts);
    if (spans) tot.analyze_ns += 1e9 * (now_s() - t);

    t = spans ? now_s() : 0.0;
    const auto monitor = obs::health::scan_store(store, hcfg, topo);
    if (spans) tot.health_ns += 1e9 * (now_s() - t);

    const sim::SchedulerMetrics& m = res.metrics;
    const std::string who = std::string("sim ") + kRuns[i].name + ": ";
    if (m.total_subframes != work.size() || rep.subframes != work.size())
      out.fail(who + "simulated " + std::to_string(m.total_subframes) +
               " / analysed " + std::to_string(rep.subframes) + " of " +
               std::to_string(work.size()) + " subframes");
    if (rep.misses != m.deadline_misses)
      out.fail(who + "analyzer counts " + std::to_string(rep.misses) +
               " misses, the scheduler " + std::to_string(m.deadline_misses));
    if (store.total_drops() != 0)
      out.fail(who + std::to_string(store.total_drops()) +
               " trace events dropped");
    if (rep.unknown() != 0)
      out.fail(who + std::to_string(rep.unknown()) +
               " misses without an attributed cause");

    // A virtual-time miss is the simulation's correct output, so it counts
    // as missed; a subframe the postmortem fold got wrong (counted twice,
    // not at all, or with no cause) is a failed operation.
    const std::size_t missed = m.deadline_misses + m.decode_failures +
                               m.resilience.lost_subframes +
                               m.resilience.late_arrivals;
    const auto gap = [](std::size_t a, std::size_t b) {
      return a > b ? a - b : b - a;
    };
    tot.misses[i] += missed;
    tot.offered[i] += work.size();
    out.attempted += work.size();
    out.failed += gap(rep.subframes, work.size()) +
                  gap(rep.misses, m.deadline_misses) + rep.unknown();
    out.missed += missed;
    tot.subframe_runs += work.size();
    tot.events += store.events.size();
    tot.drops += store.total_drops();
    tot.unknown += rep.unknown();
    tot.alerts += monitor->alerts().size();
    tot.est_err_us += m.decode_est_used_abs_err_us;
    tot.est_samples += m.decode_est_samples;
    for (const analysis::SubframeAnalysis& s : rep.detail)
      if (!s.missed && !s.lost && s.end >= 0)
        latencies.push_back(to_us(s.end - s.arrival));
  }
  const double wall = now_s() - w0;
  const double cpu = process_cpu_s() - c0;
  tot.subframes += work.size();
  const double n = static_cast<double>(work.size());
  tot.throughput.push_back(n / wall);
  tot.cpu_us_per_sf.push_back(1e6 * cpu / n);
  tot.latency_samples += latencies.size();
  tot.latency_p50_us.push_back(percentile(latencies, 0.50));
  tot.latency_p99_us.push_back(percentile(latencies, 0.99));
}

/// The postmortem fold verified as well as timed: one static policy run
/// (rotating with the seed) captures its offered workload into the trace,
/// and replaying that capture under the same policy must reproduce the
/// analyzer's report exactly.
void check_self_replay(const Options& opt, core::ExperimentConfig cfg,
                       Report& out) {
  const std::size_t pick = static_cast<std::size_t>(opt.seed % 3);
  const core::SchedulerKind kinds[] = {core::SchedulerKind::kPartitioned,
                                       core::SchedulerKind::kGlobal,
                                       core::SchedulerKind::kRtOpex};
  const analysis::ReplayConfig::Policy policies[] = {
      analysis::ReplayConfig::Policy::kPartitioned,
      analysis::ReplayConfig::Policy::kGlobal,
      analysis::ReplayConfig::Policy::kRtOpex};

  const std::vector<sim::SubframeWork> work = core::make_workload(cfg);
  obs::Tracer tracer(kCores, 1 << 15, 4 << 20);
  analysis::capture_workload(tracer, work);
  cfg.scheduler = kinds[pick];
  cfg.tracer = &tracer;
  core::run_scheduler(cfg, work);
  obs::TraceStore captured = tracer.take();
  if (opt.corrupt) {
    // Tampered capture: every recorded decode cost quadrupled.
    for (obs::TraceEvent& ev : captured.events)
      if (ev.kind == obs::EventKind::kJobSpec &&
          ev.a == static_cast<std::uint32_t>(
                      analysis::JobSpecField::kDecodeNs))
        ev.b *= 4;
  }

  analysis::ReplayConfig rcfg;
  rcfg.policy = policies[pick];
  rcfg.partitioned.rtt_half = cfg.rtt_half;
  rcfg.global = cfg.global;
  rcfg.rtopex = cfg.rtopex;
  rcfg.rtopex.rtt_half = cfg.rtt_half;
  rcfg.analyzer.nominal_transport = cfg.rtt_half;
  const analysis::AnalysisReport original =
      analysis::analyze(captured, rcfg.analyzer);
  const analysis::ReplayResult same = analysis::replay(captured, rcfg);
  const analysis::ReportDelta delta =
      analysis::diff_reports(original, same.report);
  out.meta("self_replay", "{\"policy\":" +
                              json_string(analysis::to_string(rcfg.policy)) +
                              ",\"exact\":" +
                              (delta.empty() ? "true" : "false") + "}");
  if (!delta.empty())
    out.fail("self-replay identity broken under " +
             std::string(analysis::to_string(rcfg.policy)) + ": " +
             analysis::delta_json(delta));
}

}  // namespace

void run_sim(const Options& opt, Report& out) {
  const core::ExperimentConfig cfg = sim_config(opt);
  out.meta("config",
           "{\"basestations\":" +
               std::to_string(cfg.workload.num_basestations) +
               ",\"subframes_per_bs_per_rep\":" +
               std::to_string(cfg.workload.subframes_per_bs) +
               ",\"mean_load\":" +
               json_number(cfg.workload.mean_load_override) +
               ",\"rtt_half_us\":" + json_number(to_us(cfg.rtt_half)) +
               ",\"stochastic_transport\":true,\"cores\":" +
               std::to_string(kCores) +
               ",\"policies\":[\"partitioned\",\"global\",\"rtopex\"]"
               ",\"estimators\":[\"static\",\"adaptive\"]}");
  const unsigned min_reps = opt.quick ? 1 : 3;

  // Repetition r generates its workload from the r-th draw of a stream
  // seeded with --seed: whether the adaptive estimators collapse depends
  // on the workload seed, so every run samples many workloads.
  Rng seeds(opt.seed);
  core::ExperimentConfig c = cfg;
  const double t_end = now_s() + opt.seconds;
  SimTotals base;
  if (!opt.trace) {
    for (unsigned r = 0; r < min_reps || now_s() < t_end; ++r) {
      c.workload.seed = seeds.next();
      repetition(c, false, base, out);
    }
    out.set("setup_s", median(base.setup_s));
    out.set("throughput_sf_per_s", median(base.throughput));
    out.set("cpu_us_per_sf", median(base.cpu_us_per_sf));
    out.set("latency_p50_us", median(base.latency_p50_us));
    out.set("latency_p99_us", median(base.latency_p99_us));
    out.meta("repetitions", std::to_string(base.setup_s.size()));
    out.meta("latency_samples", std::to_string(base.latency_samples));
  } else {
    // Traced run, in rounds: each workload once as in the end-to-end run
    // (the overhead baseline), then again with spans around every layer
    // call. Times are per workload subframe, so the six sched rows sum to
    // the scheduling time one subframe costs.
    SimTotals tr;
    std::vector<double> overhead;
    for (unsigned r = 0; r < 1 || now_s() < t_end; ++r) {
      c.workload.seed = seeds.next();
      repetition(c, false, base, out);
      repetition(c, true, tr, out);
      overhead.push_back(
          100.0 * (base.throughput.back() / tr.throughput.back() - 1.0));
    }
    double sched_us = 0.0;
    for (std::size_t i = 0; i < kRuns.size(); ++i) {
      const std::string name = std::string("sched.") + kRuns[i].name;
      const double us = per(tr.run_ns[i], tr.subframes) / 1e3;
      out.set(name + ".run_us_per_sf", us);
      out.set(name + ".miss_rate",
              per(static_cast<double>(tr.misses[i]), tr.offered[i]));
      sched_us += us;
    }
    const double analyze_us = per(tr.analyze_ns, tr.subframes) / 1e3;
    const double health_us = per(tr.health_ns, tr.subframes) / 1e3;
    out.set("obs.analyze_us_per_sf", analyze_us);
    out.set("obs.health_us_per_sf", health_us);
    out.set("obs.analysis_unknown", static_cast<double>(tr.unknown));
    // Per traced subframe run, comparable with the node workloads.
    out.set("obs.trace_events_per_sf",
            per(static_cast<double>(tr.events), tr.subframe_runs));
    out.set("obs.trace_drops", static_cast<double>(tr.drops));
    out.set("obs.alerts", static_cast<double>(tr.alerts));
    out.set("model.decode_est_err_us", per(tr.est_err_us, tr.est_samples));
    out.set("sim.workload_gen_s", median(tr.gen_s));
    out.set("runtime.unattributed_us_per_sf",
            median(tr.cpu_us_per_sf) - (sched_us + analyze_us + health_us));
    out.set("bench.trace_overhead_pct", median(overhead));
    out.meta("rounds", std::to_string(overhead.size()));
  }
  core::ExperimentConfig replay_cfg = cfg;
  replay_cfg.workload.seed = Rng(opt.seed).next();
  check_self_replay(opt, replay_cfg, out);
}

}  // namespace nodebench
