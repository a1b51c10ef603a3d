// Shared pieces of the node benchmark: command-line options, the metric
// tables, and the run report every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nodebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small per-repetition sizes for the benchmark's own tests.
  bool quick = false;
  /// Feed deliberately corrupted inputs (zeroed / noise-buried IQ, a
  /// tampered workload capture) so the correctness checks must fire.
  bool corrupt = false;
};

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Every end-to-end metric, reported by every workload when tracing is off.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Every per-layer metric, reported by every workload when tracing is on.
/// A layer a workload does not exercise reads 0 there.
const std::vector<MetricSpec>& per_layer_metrics();

/// Result of one invocation: metric values, the correctness verdict, the
/// operation counts and the run metadata.
class Report {
 public:
  void set(const std::string& name, double value);
  /// Records a failed correctness check (the run then exits non-zero).
  void fail(const std::string& why);
  /// Adds `key: value` to the metadata object; `json` is a JSON literal.
  void meta(const std::string& key, const std::string& json);

  bool correct() const { return failures_.empty(); }

  /// Operations run, and those whose output a check found wrong (a
  /// subframe that decoded wrongly, a subframe the postmortem fold got
  /// wrong). Both depend only on the seed and the amount of work, never on
  /// timing.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Operations whose output was right but missed its deadline (dropped,
  /// late, lost or completed late; virtual time in the sim). A scheduling
  /// outcome that timing decides, reported as bench.miss_rate.
  std::uint64_t missed = 0;

  /// Prints the failed and missed counts, the metadata, one "metric" line per value and,
  /// last, the one-line JSON result. Returns the process exit code.
  int print(bool trace);

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::string>> meta_;
};

void run_node(const Options& opt, Report& report);
void run_sim(const Options& opt, Report& report);

// ---- helpers --------------------------------------------------------------

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of every thread of the process, in seconds.
double process_cpu_s();
/// Peak resident set size of the process, in MiB.
double peak_rss_mb();

/// total / n, or 0 when n is 0.
inline double per(double total, std::size_t n) {
  return n ? total / static_cast<double>(n) : 0.0;
}

/// Median of the values (0 for none).
double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 1] (0 for no samples).
double percentile(std::vector<double> v, double p);

std::string json_number(double v);
std::string json_string(const std::string& s);

}  // namespace nodebench
