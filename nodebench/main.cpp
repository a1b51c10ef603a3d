// Node benchmark: runs one workload through the repository's public
// APIs and prints every metric by name with its unit, then a one-line JSON
// result as the last line of standard output.
//
//   nodebench --workload node_saturated|node_realtime|sim_postmortem
//             --seed N --seconds S --trace 0|1 [--quick] [--corrupt-input]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that reports the per-layer metrics. The exit code is 0 only
// when every correctness check passed. NOTES.md explains the workloads.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <string>

#include "bench.hpp"

namespace nodebench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"throughput_sf_per_s", "1/s"},
      {"cpu_us_per_sf", "us"},
      {"latency_p50_us", "us"},
      {"latency_p99_us", "us"},
      {"peak_rss_mb", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"phy.fft_us", "us"},
        {"phy.demod_us", "us"},
        {"phy.decode_us", "us"},
        {"phy.finalize_us", "us"},
        {"phy.turbo_iterations_mean", "iterations"},
        {"runtime.stage_fft_us", "us"},
        {"runtime.stage_demod_us", "us"},
        {"runtime.stage_decode_us", "us"},
        {"runtime.queue_wait_p50_us", "us"},
        {"runtime.queue_wait_p99_us", "us"},
        {"runtime.migrations_per_sf", "count"},
        {"runtime.recovery_ratio", "ratio"},
        {"runtime.batched_share", "ratio"},
        {"runtime.unattributed_us_per_sf", "us"},
        {"runtime.drops", "count"},
        {"runtime.crc_failures", "count"},
        {"obs.trace_events_per_sf", "count"},
        {"obs.trace_drops", "count"},
        {"obs.alerts", "count"},
        {"obs.analyze_us_per_sf", "us"},
        {"obs.health_us_per_sf", "us"},
        {"obs.analysis_unknown", "count"},
    };
    for (const char* policy : {"partitioned", "global", "rtopex"}) {
      for (const char* est : {"static", "adaptive"}) {
        const std::string base = std::string("sched.") + policy + "." + est;
        s.push_back({base + ".run_us_per_sf", "us"});
        s.push_back({base + ".miss_rate", "ratio"});
      }
    }
    s.push_back({"model.decode_est_err_us", "us"});
    s.push_back({"sim.workload_gen_s", "s"});
    s.push_back({"bench.trace_overhead_pct", "%"});
    s.push_back({"bench.miss_rate", "ratio"});
    return s;
  }();
  return specs;
}

void Report::set(const std::string& name, double value) {
  values_[name] = value;
}

void Report::fail(const std::string& why) { failures_.push_back(why); }

void Report::meta(const std::string& key, const std::string& json) {
  meta_.emplace_back(key, json);
}

int Report::print(bool trace) {
  const auto& specs = trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricSpec& m : specs) {
    const auto it = values_.find(m.name);
    if (it == values_.end()) {
      // A per-layer row of a layer this workload does not exercise is a
      // measured zero; an end-to-end metric must always be measured.
      if (trace)
        values_[m.name] = 0.0;
      else
        fail("end-to-end metric " + m.name + " was not measured");
    } else if (!std::isfinite(it->second)) {
      fail("metric " + m.name + " is not finite");
    }
  }
  if (attempted == 0) fail("no operation was attempted");

  std::printf("operations %llu attempted, %llu failed, %llu missed their "
              "deadline (miss_rate %.6f)\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(missed),
              per(static_cast<double>(missed), attempted));
  std::string meta = "{";
  for (std::size_t i = 0; i < meta_.size(); ++i)
    meta += (i ? "," : "") + json_string(meta_[i].first) + ":" +
            meta_[i].second;
  std::printf("meta %s}\n", meta.c_str());
  for (const MetricSpec& m : specs)
    std::printf("metric %-36s %16.6f %s\n", m.name.c_str(), values_[m.name],
                m.unit.c_str());
  for (const std::string& why : failures_)
    std::printf("CHECK FAILED: %s\n", why.c_str());

  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const double v = values_[specs[i].name];
    out += (i ? ", " : "") + json_string(specs[i].name) +
           ": {\"value\": " + json_number(std::isfinite(v) ? v : 0.0) +
           ", \"unit\": " + json_string(specs[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload node_saturated|node_realtime|"
               "sim_postmortem --seed N --seconds S --trace 0|1 [--quick] "
               "[--corrupt-input]\n",
               argv0);
  return 2;
}

int run(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) != "0";
    } else if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--corrupt-input") {
      opt.corrupt = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (!(opt.seconds > 0.0)) return usage(argv[0]);
  const bool node =
      opt.workload == "node_saturated" || opt.workload == "node_realtime";
  if (!node && opt.workload != "sim_postmortem") return usage(argv[0]);

  Report report;
  report.meta("workload", json_string(opt.workload));
  report.meta("seed", std::to_string(opt.seed));
  report.meta("seconds", json_number(opt.seconds));
  report.meta("trace", opt.trace ? "1" : "0");
  report.meta("build_type", json_string(NODEBENCH_BUILD_TYPE));
#ifdef RTOPEX_SIMD
  report.meta("rtopex_simd", "true");
#else
  report.meta("rtopex_simd", "false");
#endif
  report.meta("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  report.meta("quick", opt.quick ? "true" : "false");
  report.meta("corrupt_input", opt.corrupt ? "true" : "false");

  if (node)
    run_node(opt, report);
  else
    run_sim(opt, report);
  report.set("peak_rss_mb", peak_rss_mb());
  // The deadline-miss share: dropped, late, lost or late-completing
  // subframes (virtual-time misses in the sim).
  report.set("bench.miss_rate",
             per(static_cast<double>(report.missed), report.attempted));
  return report.print(opt.trace);
}

}  // namespace
}  // namespace nodebench

int main(int argc, char** argv) {
  try {
    return nodebench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nodebench: %s\n", e.what());
    return 2;
  }
}
