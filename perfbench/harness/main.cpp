// hyrd_perfbench: runs one benchmark workload against the HyRD client stack
// and prints its metrics, one per line with its unit, then one JSON object
// as the last line of standard output.
//
//   hyrd_perfbench --workload small_files --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures untraced runs, cycling through the workload's seeds,
// for --seconds and reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics of a traced run plus layer replays. Either way one
// traced run follows the untraced ones, and every correctness check runs:
// the read-back oracle, exact agreement of every deterministic count
// between all runs, complete op accounting, and the workload-config guard.
// The exit code is 0 only when every check passes.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/config.h"
#include "harness/reference.h"
#include "harness/replay.h"
#include "harness/stack.h"
#include "harness/workloads.h"

namespace {

using perfbench::Ledger;
using perfbench::Outcome;
using perfbench::RunResult;

// Set-up takes a few to a few tens of milliseconds and varies by +-20%
// between consecutive samples: take many, for at least kSetupSeconds.
constexpr std::size_t kSetupSamples = 15;
constexpr std::size_t kMaxSetupSamples = 101;
constexpr double kSetupSeconds = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
      continue;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      a.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else {
      return false;
    }
    if (end == value.c_str() || *end != '\0') return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 &&
         (a.trace == 0 || a.trace == 1);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile of exact samples.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

double resident_mb() {
  long pages = 0;
  long resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// Peak resident set of the process, less `kernel_mb`: the reference
// kernel's memory, resident from before the first run.
double peak_rss_mb(double kernel_mb) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0 - kernel_mb;  // KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Check {
  std::string name;
  std::uint64_t failures;
  std::string detail;
};

std::uint64_t counter(const Outcome& o, const std::string& name) {
  const auto it = o.counters.find(name);
  return it == o.counters.end() ? 0 : it->second;
}

// Pools the deterministic metrics over the first `seeds` runs (one per
// seed); ops_per_s is the median over every untraced run.
//
// ops_per_s divides by the CPU time the process spent in the event loop
// (all threads), not by its wall time, and expresses that CPU time in
// reference-speed seconds (RunResult::loop_ref_s). On the single-threaded
// workloads CPU and wall time are equal. On large_files the erasure
// pipeline runs on the session pool, and on a shared VM the wall time of a
// parallel section depends on how many vCPUs the host grants at that
// moment; CPU time does not. How fast each CPU second goes still depends on
// the host's load, which the reference kernel tracks (harness/reference.h).
std::vector<Metric> end_to_end(const std::vector<RunResult>& plain,
                               std::size_t seeds,
                               const std::vector<double>& setup_s,
                               double rss_mb) {
  std::vector<double> ops_per_s;
  for (const auto& r : plain) {
    ops_per_s.push_back(
        ratio(static_cast<double>(r.outcome.ops_ok), r.loop_ref_s));
  }
  Outcome pooled;
  double ops = 0;
  double ok = 0;
  double retries = 0;
  double virtual_s = 0;
  double usd = 0;
  double stored = 0;
  double live = 0;
  for (std::size_t i = 0; i < seeds; ++i) {
    const Outcome& o = plain[i].outcome;
    pooled.latency_ms.merge(o.latency_ms);
    pooled.put_ms.merge(o.put_ms);
    pooled.get_ms.merge(o.get_ms);
    ops += static_cast<double>(o.ops());
    ok += static_cast<double>(o.ops_ok);
    retries += static_cast<double>(o.retries);
    virtual_s += o.virtual_seconds;
    usd += o.usd;
    stored += static_cast<double>(o.stored_bytes);
    live += static_cast<double>(o.live_user_bytes);
  }
  return {
      {"ops_per_s", median(ops_per_s), "1/s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"virt_p50_ms", pooled.latency_ms.percentile(50.0), "ms"},
      {"virt_p99_ms", pooled.latency_ms.percentile(99.0), "ms"},
      {"virt_put_mean_ms", pooled.put_ms.mean(), "ms"},
      {"virt_get_mean_ms", pooled.get_ms.mean(), "ms"},
      {"ok_op_ratio", ratio(ok, ops), "ratio"},
      {"goodput_ops_per_vs", ratio(ok, virtual_s), "1/vs"},
      {"retry_amplification", ratio(ops + retries, ops), "ratio"},
      {"usd_per_kop", ratio(usd * 1000.0, ops), "USD"},
      {"storage_overhead", ratio(stored, live), "ratio"},
  };
}

struct LayerCost {
  std::string layer;
  double ns_per_op;
};

std::vector<Metric> per_layer(const hyrd::sim::ScaleoutConfig& config,
                              const std::vector<RunResult>& plain,
                              const RunResult& traced,
                              std::vector<LayerCost>& layers) {
  const Outcome& o = traced.outcome;
  const Ledger& l = *traced.ledger;
  const auto ops = static_cast<double>(o.ops());
  auto per_op = [&](double x) { return ratio(x, ops); };
  auto per_op_counter = [&](const char* name) {
    return per_op(static_cast<double>(counter(o, name)));
  };

  perfbench::ReplayShape shape;
  shape.object_bytes = config.tenant.object_bytes;
  shape.provider_object_bytes = static_cast<std::uint64_t>(
      ratio(static_cast<double>(o.provider_bytes_written),
            static_cast<double>(o.provider_puts)));
  shape.store_keys = o.provider_objects_max;
  shape.flows = config.tenants;
  shape.queue_depth = o.peak_queue_depth;
  shape.pending_events = config.tenants;
  shape.provider_put_share =
      ratio(static_cast<double>(o.provider_puts),
            static_cast<double>(o.provider_puts + o.provider_gets));
  shape.mean_think = config.tenant.mean_think;
  shape.congestion = config.congestion;
  const hyrd::erasure::StripeGeometry geometry = hyrd::core::HyRDConfig{}.geometry;
  shape.stripe_k = geometry.k;
  shape.stripe_m = geometry.m;
  const perfbench::ReplayCosts c = perfbench::run_replays(shape);

  std::vector<double> plain_ns_per_op;
  std::vector<double> plain_ops_per_s;
  for (const auto& r : plain) {
    plain_ns_per_op.push_back(r.loop_cpu_s * 1e9 /
                              static_cast<double>(r.outcome.ops()));
    plain_ops_per_s.push_back(static_cast<double>(r.outcome.ops_ok) /
                              r.loop_ref_s);
  }
  const double e2e_ns_per_op = median(plain_ns_per_op);

  // The meta.* histograms sample one call in 64.
  const double lookups = per_op(static_cast<double>(l.lookup_ns.total()) * 64);
  const double upserts = per_op(static_cast<double>(l.upsert_ns.total()) * 64);
  const double lookup_p50 = l.lookup_ns.percentile(50.0);
  const double upsert_p50 = l.upsert_ns.percentile(50.0);
  const double events_per_op = per_op(static_cast<double>(o.events));
  const double encode_bytes = per_op_counter("scheme.encode_bytes");
  const double crc_bytes = per_op_counter("scheme.crc_bytes");
  const double copied_bytes = per_op_counter("common.bytes_copied");
  const double fq_calls =
      per_op_counter("cloud.fq.admitted") + per_op_counter("cloud.fq.throttled");

  layers = {
      {"sim", events_per_op * c.event_ns},
      {"metadata", lookups * lookup_p50 + upserts * upsert_p50},
      {"erasure", encode_bytes * c.encode_ns_per_parity_byte},
      {"common", ratio(crc_bytes, c.crc32c_gbps) +
                     ratio(copied_bytes, c.memcpy_gbps)},
      {"gcsapi", per_op_counter("gcs.ops") * c.envelope_ns},
      {"cloud", fq_calls * c.fq_admit_ns +
                    per_op(static_cast<double>(o.provider_puts)) * c.store_put_ns +
                    per_op(static_cast<double>(o.provider_gets)) * c.store_get_ns},
  };
  double covered = 0;
  for (const auto& layer : layers) covered += layer.ns_per_op;
  layers.push_back({"end_to_end", e2e_ns_per_op});

  const double traced_ops_per_s =
      static_cast<double>(o.ops_ok) / traced.loop_ref_s;
  return {
      {"sim.events_per_op", events_per_op, "count"},
      {"sim.self_us_per_op", per_op((traced.loop_s - l.client_s) * 1e6), "us"},
      {"sim.event_ns", c.event_ns, "ns"},
      {"core.put_us_p50", percentile(l.put_us, 50), "us"},
      {"core.put_us_p99", percentile(l.put_us, 99), "us"},
      {"core.get_us_p50", percentile(l.get_us, 50), "us"},
      {"core.get_us_p99", percentile(l.get_us, 99), "us"},
      {"metadata.lookup_ns_p50", lookup_p50, "ns"},
      {"metadata.upsert_ns_p50", upsert_p50, "ns"},
      {"dist.degraded_reads_per_op",
       per_op(static_cast<double>(o.degraded_reads)), "count"},
      {"erasure.encode_bytes_per_op", encode_bytes, "B"},
      {"erasure.encode_gbps", c.encode_gbps, "GB/s"},
      {"common.crc_bytes_per_op", crc_bytes, "B"},
      {"common.crc32c_gbps", c.crc32c_gbps, "GB/s"},
      {"common.bytes_copied_per_op", copied_bytes, "B"},
      {"common.allocs_per_op", per_op(static_cast<double>(l.allocs.count)),
       "count"},
      {"common.alloc_bytes_per_op", per_op(static_cast<double>(l.allocs.bytes)),
       "B"},
      {"gcsapi.attempts_per_op", per_op_counter("gcs.attempts"), "count"},
      {"gcsapi.batch_ops_per_op", per_op_counter("gcs.batch.ops"), "count"},
      {"gcsapi.envelope_ns", c.envelope_ns, "ns"},
      {"gcsapi.retries_per_op", per_op_counter("gcs.retries"), "count"},
      {"gcsapi.backoff_ms_per_op", per_op_counter("gcs.backoff_ns") / 1e6,
       "ms"},
      {"cloud.fq_admit_ns", c.fq_admit_ns, "ns"},
      {"cloud.store_put_ns", c.store_put_ns, "ns"},
      {"cloud.store_get_ns", c.store_get_ns, "ns"},
      {"cloud.provider_ops_per_op", per_op(static_cast<double>(o.provider_ops)),
       "count"},
      {"cloud.fq_queued_ratio",
       ratio(static_cast<double>(counter(o, "cloud.fq.queued")),
             static_cast<double>(counter(o, "cloud.fq.admitted"))),
       "ratio"},
      {"cloud.fq_wait_ms_per_op", per_op_counter("cloud.fq.wait_ns") / 1e6,
       "ms"},
      {"cloud.fq_throttled_per_op", per_op_counter("cloud.fq.throttled"),
       "count"},
      {"cloud.peak_queue_depth", static_cast<double>(o.peak_queue_depth),
       "count"},
      {"cloud.bytes_written_per_user_byte",
       ratio(static_cast<double>(o.provider_bytes_written),
             static_cast<double>(l.user_put_bytes)),
       "ratio"},
      {"layers.coverage", ratio(covered, e2e_ns_per_op), "ratio"},
      {"trace.overhead_ratio", ratio(median(plain_ops_per_s), traced_ops_per_s),
       "ratio"},
      {"failed_op_ratio", per_op(static_cast<double>(o.ops_failed)), "ratio"},
      {"recovery_vs", o.recovery_vs, "vs"},
  };
}

std::vector<Check> run_checks(const hyrd::sim::ScaleoutConfig& config,
                              std::size_t seeds,
                              const std::vector<RunResult>& plain,
                              const RunResult& traced) {
  std::vector<Check> checks;

  // Same seed, same counts: each untraced run against the first run of its
  // seed, and the traced run against the untraced run of the first seed.
  Check same{"deterministic_counts_agree", 0, ""};
  auto compare = [&same](const RunResult& a, const RunResult& b) {
    const auto diff = perfbench::outcome_diff(a.outcome, b.outcome);
    same.failures += diff.size();
    for (const auto& name : diff) same.detail += " " + name;
  };
  for (std::size_t i = seeds; i < plain.size(); ++i) {
    compare(plain[i % seeds], plain[i]);
  }
  compare(plain.front(), traced);
  checks.push_back(same);

  const std::uint64_t expected =
      static_cast<std::uint64_t>(config.tenants) * config.tenant.ops;
  Check accounted{"every_op_accounted", 0, ""};
  Check resurrected{"no_provider_resurrected", 0, ""};
  for (const auto& r : plain) {
    if (r.outcome.ops() != expected) ++accounted.failures;
    resurrected.failures += r.outcome.resurrected;
  }
  checks.push_back(accounted);
  checks.push_back(resurrected);

  const Ledger& l = *traced.ledger;
  checks.push_back({"read_back_oracle",
                    l.oracle_checked == 0 ? 1 : l.oracle_failed,
                    std::to_string(l.oracle_checked) + " paths read back"});
  return checks;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = correct ? "{\"correct\": true" : "{\"correct\": false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("# %s\n", title);
  for (const auto& m : metrics) {
    std::printf("%-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: hyrd_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  std::vector<hyrd::sim::ScaleoutConfig> configs;
  for (const std::uint64_t seed :
       perfbench::run_seeds(args.workload, args.seed)) {
    const auto config = perfbench::make_workload(args.workload, seed);
    if (!config) {
      std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
      return 2;
    }
    configs.push_back(*config);
  }
  const hyrd::sim::ScaleoutConfig& first = configs.front();
  const std::size_t seeds = configs.size();
  std::printf("# workload %s, seed %llu (%zu seeds pooled), %zu pool threads\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), seeds,
              perfbench::pool_threads());
  for (const auto& c : configs) {
    if (const std::string why = perfbench::validate_workload(c); !why.empty()) {
      std::printf("check %-30s FAILED 1 %s\n", "workload_config_guard",
                  why.c_str());
      print_result(false, 1, 1, {});
      return 1;
    }
  }

  // Built before anything is timed or measured.
  const double rss_before_kernel = resident_mb();
  perfbench::reference_kernel();
  const double kernel_mb = resident_mb() - rss_before_kernel;
  auto since = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  std::vector<double> setup_s;
  const auto setup_start = std::chrono::steady_clock::now();
  while (setup_s.size() < kSetupSamples ||
         (setup_s.size() < kMaxSetupSamples &&
          since(setup_start) < kSetupSeconds)) {
    setup_s.push_back(perfbench::setup_once(first));
  }
  // Untraced runs, cycling through the seeds: one per seed with --trace 1,
  // and on until --seconds have passed with --trace 0.
  std::vector<RunResult> plain;
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] { return since(start); };
  while (plain.size() < seeds || (args.trace == 0 && elapsed() < args.seconds)) {
    plain.push_back(
        perfbench::run_once(configs[plain.size() % seeds], /*traced=*/false));
    setup_s.push_back(plain.back().setup_ref_s);
  }
  const double rss_mb = peak_rss_mb(kernel_mb);
  std::printf(
      "# untraced runs (set-up s, loop wall s, loop cpu s, loop reference-speed"
      " s, median reference slice ms):");
  for (const auto& r : plain) {
    std::printf(" (%.4f, %.3f, %.3f, %.3f, %.3f)", r.setup_s, r.loop_s,
                r.loop_cpu_s, r.loop_ref_s, median(r.reference_slices) * 1e3);
  }
  std::printf("\n# %zu set-up samples, reference-speed s, median %.5f",
              setup_s.size(), median(setup_s));
  std::printf("\n");
  const RunResult traced = perfbench::run_once(first, /*traced=*/true);

  const std::vector<Metric> e2e = end_to_end(plain, seeds, setup_s, rss_mb);
  print_metrics("end-to-end", e2e);
  std::vector<Metric> layer_metrics;
  if (args.trace == 1) {
    std::vector<LayerCost> layers;
    layer_metrics = per_layer(first, plain, traced, layers);
    print_metrics("per-layer", layer_metrics);
    std::printf("# replayed ns per client op\n");
    for (const auto& layer : layers) {
      std::printf("%-36s %18.1f ns\n", layer.layer.c_str(), layer.ns_per_op);
    }
  }

  bool correct = true;
  for (const auto& check : run_checks(first, seeds, plain, traced)) {
    correct = correct && check.failures == 0;
    std::printf("check %-30s %s %llu%s%s\n", check.name.c_str(),
                check.failures ? "FAILED" : "ok",
                static_cast<unsigned long long>(check.failures),
                check.detail.empty() ? "" : " ", check.detail.c_str());
  }
  std::uint64_t attempted = traced.outcome.ops();
  std::uint64_t failed = traced.outcome.ops_failed;
  for (const auto& r : plain) {
    attempted += r.outcome.ops();
    failed += r.outcome.ops_failed;
  }
  print_result(correct, attempted, failed,
               args.trace == 1 ? layer_metrics : e2e);
  return correct ? 0 : 1;
}
