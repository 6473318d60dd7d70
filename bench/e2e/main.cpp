// cvsafe_e2e: one process = one workload, one mode.
//
//   cvsafe_e2e --workload NAME --seed S --threads-nt T --out DIR
//              [--seconds S] [--trace 0|1] [--setup-only] [--quick]
//
// --trace 0 times the untraced production calls on one thread: set-up,
// episodes/min, the scalar-oracle control step and peak RSS. --trace 1
// interleaves untraced production reps at 1 and T worker threads with the
// traced replica (replica.hpp) for the per-layer numbers and writes the last
// replica rep's spans to DIR/<workload>.trace.json. --setup-only stops
// where the first timed rep would start. Every mode checks outputs and
// exits 1 on a mismatch. Results go to DIR/<workload>.<mode>.json for
// run.py; a summary goes to stdout.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "replica.hpp"
#include "workloads.hpp"

namespace {

using namespace cvsafe_e2e;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t threads_nt = 1;
  std::string out_dir;
  double seconds = 10.0;
  int trace = 0;
  bool setup_only = false;
  bool quick = false;
};

Options parse_options(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      opt.setup_only = true;
      continue;
    }
    if (arg == "--quick") {
      opt.quick = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
      have_seed = true;
    } else if (arg == "--threads-nt") {
      opt.threads_nt = std::stoul(value);
    } else if (arg == "--out") {
      opt.out_dir = value;
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (arg == "--trace") {
      opt.trace = std::stoi(value);
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  if (opt.workload.empty() || opt.out_dir.empty() || !have_seed ||
      opt.threads_nt == 0 || !(opt.seconds >= 0.0) ||
      (opt.trace != 0 && opt.trace != 1)) {
    throw std::invalid_argument(
        "usage: cvsafe_e2e --workload NAME --seed S --threads-nt T --out DIR "
        "[--seconds S] [--trace 0|1] [--setup-only] [--quick]");
  }
  return opt;
}

struct MetricSpec {
  std::string name;
  std::string unit;
};

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> kSpecs = {
      {"episodes_per_min_1t", "ep/min"},
      {"control_step_p50_us", "us"},
      {"control_step_p99_us", "us"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"}};
  return kSpecs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> kSpecs = [] {
    std::vector<MetricSpec> s = {
        {"sim.episodes_per_min_nt", "ep/min"},
        {"sim.nt_speedup", "ratio"},
        {"comm.pump_ns_per_lane_step", "ns"},
        {"filter.deliver_ns_per_lane_step", "ns"},
        {"filter.estimate_ns_per_lane_step", "ns"},
        {"filter.reach_ns_per_lane_step", "ns"},
        {"scenario.build_ns_per_lane_step", "ns"},
        {"core.gate_ns_per_lane_step", "ns"},
        {"nn.infer_ns_per_lane_step", "ns"},
        {"nn.infer_ns_per_row", "ns"},
        {"nn.rows_per_call", "count"},
        {"vehicle.advance_ns_per_lane_step", "ns"},
        {"sim.retire_ns_per_episode", "ns"},
        {"sim.pool_build_ms", "ms"},
        {"obs.dump_ns_per_episode", "ns"},
        {"obs.telemetry_ns_per_episode", "ns"},
        {"obs.dump_bytes_per_episode", "bytes"},
        {"obs.triggered_frac", "fraction"}};
    const std::vector<std::string>& scenarios = campaign_scenarios();
    for (const std::string& sc : scenarios) {
      s.push_back({"sim.cell_ns_per_episode." + sc, "ns"});
    }
    for (std::size_t i = 1; i < scenarios.size(); ++i) {
      s.push_back({"sim.observe_ns_per_lane_step." + scenarios[i], "ns"});
    }
    for (const std::string& sc : scenarios) {
      s.push_back({"core.plan_ns_per_lane_step." + sc, "ns"});
    }
    const std::vector<MetricSpec> tail = {
        {"adv.ask_tell_us_per_iter", "us"},
        {"adv.decode_us_per_candidate", "us"},
        {"sim.cell_us_per_candidate", "us"},
        {"sim.lane_steps", "count"},
        {"sim.idle_lane_frac", "fraction"},
        {"core.emergency_frac", "fraction"},
        {"filter.reject_frac", "fraction"},
        {"comm.messages_per_lane_step", "count"},
        {"adv.admissible_frac", "fraction"},
        {"sim.unsafe_frac", "fraction"},
        {"sim.replica_ratio", "ratio"},
        {"sim.layer_sum_ratio", "ratio"}};
    s.insert(s.end(), tail.begin(), tail.end());
    return s;
  }();
  return kSpecs;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank quantile of \p v (0 < q <= 1).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  auto k = static_cast<std::size_t>(rank);
  k = std::clamp<std::size_t>(k, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return f.good();
}

/// VmHWM in MB (0 when /proc is unavailable).
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// Calls rep() (which returns the seconds it timed) until \p budget_s
/// of wall time has passed and at least \p min_reps ran, at most
/// \p max_reps times.
template <typename Rep>
std::vector<double> repeat(Rep&& rep, double budget_s, std::size_t min_reps,
                           std::size_t max_reps) {
  std::vector<double> secs;
  const Clock::time_point t0 = Clock::now();
  while (secs.size() < max_reps &&
         (secs.size() < min_reps || seconds_since(t0) < budget_s)) {
    secs.push_back(rep());
  }
  return secs;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Digest of a rep's output, for cross-process comparison by run.py.
std::string output_digest(const Output& out) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv1a(h, out.csv.data(), out.csv.size());
  for (const cvsafe::sim::FleetRecord& r : out.records) {
    h = fnv1a(h, &r.eta, sizeof r.eta);
    h = fnv1a(h, &r.reach_time, sizeof r.reach_time);
    h = fnv1a(h, &r.steps, sizeof r.steps);
    h = fnv1a(h, &r.emergency_steps, sizeof r.emergency_steps);
    h = fnv1a(h, r.ladder_steps.data(), sizeof r.ladder_steps);
    h = fnv1a(h, &r.ladder_transitions, sizeof r.ladder_transitions);
    h = fnv1a(h, &r.messages_accepted, sizeof r.messages_accepted);
    h = fnv1a(h, &r.messages_rejected, sizeof r.messages_rejected);
    h = fnv1a(h, r.rejection_reasons.data(), sizeof r.rejection_reasons);
    const unsigned char flags =
        static_cast<unsigned char>((r.collided ? 1 : 0) | (r.reached ? 2 : 0));
    h = fnv1a(h, &flags, 1);
  }
  h = fnv1a(h, &out.dump_digest, sizeof out.dump_digest);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// What one process measured and checked.
struct Result {
  std::string mode;
  std::map<std::string, std::vector<double>> metrics;  ///< per round
  /// The reported value, where it is not one of the rounds' values.
  std::map<std::string, double> value;
  std::vector<std::string> failures;
  std::size_t attempted = 0;
  std::map<std::string, std::string> info;

  void check(const std::string& what, const std::string& why) {
    if (!why.empty()) failures.push_back(what + ": " + why);
  }
};

void write_result(const Options& opt, const Result& res,
                  const std::vector<MetricSpec>& specs) {
  std::ostringstream os;
  os << "{\n  \"workload\": \"" << json_escape(opt.workload) << "\",\n"
     << "  \"mode\": \"" << res.mode << "\",\n"
     << "  \"seed\": " << opt.seed << ",\n"
     << "  \"threads_nt\": " << opt.threads_nt << ",\n"
     << "  \"quick\": " << (opt.quick ? "true" : "false") << ",\n"
     << "  \"correct\": " << (res.failures.empty() ? "true" : "false")
     << ",\n  \"attempted\": " << res.attempted << ",\n  \"failed\": 0,\n"
     << "  \"failures\": [";
  for (std::size_t i = 0; i < res.failures.size(); ++i) {
    os << (i ? ", " : "") << '"' << json_escape(res.failures[i]) << '"';
  }
  os << "],\n  \"info\": {";
  bool first = true;
  for (const auto& [key, value] : res.info) {
    os << (first ? "" : ", ") << '"' << key << "\": \"" << json_escape(value)
       << '"';
    first = false;
  }
  os << "},\n  \"metrics\": {";
  first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = res.metrics.find(spec.name);
    if (it == res.metrics.end()) continue;
    os << (first ? "\n" : ",\n") << "    \"" << spec.name
       << "\": {\"unit\": \"" << spec.unit << "\", ";
    const auto value = res.value.find(spec.name);
    if (value != res.value.end()) {
      os << "\"value\": " << json_number(value->second) << ", ";
    }
    os << "\"values\": [";
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      os << (i ? ", " : "") << json_number(it->second[i]);
    }
    os << "]}";
    first = false;
  }
  os << "\n  }\n}\n";
  const std::filesystem::path path = std::filesystem::path(opt.out_dir) /
                                     (opt.workload + "." + res.mode + ".json");
  std::ofstream f(path, std::ios::binary);
  f << os.str();
  if (!f.good()) throw std::runtime_error("cannot write " + path.string());
}

void print_summary(const Options& opt, const Result& res,
                   const std::vector<MetricSpec>& specs) {
  std::printf("%s [%s, seed %llu, nt %zu]\n", opt.workload.c_str(),
              res.mode.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.threads_nt);
  for (const MetricSpec& spec : specs) {
    const auto it = res.metrics.find(spec.name);
    if (it == res.metrics.end()) continue;
    const std::vector<double>& v = it->second;
    const auto value = res.value.find(spec.name);
    std::printf("  %-40s %14.6g %-8s (n=%zu, q1 %.6g, q3 %.6g)\n",
                spec.name.c_str(),
                value != res.value.end() ? value->second : quantile(v, 0.5),
                spec.unit.c_str(), v.size(), quantile(v, 0.25),
                quantile(v, 0.75));
  }
  for (const std::string& f : res.failures) {
    std::printf("  CHECK FAILED: %s\n", f.c_str());
  }
}

/// Folds \p v into \p best element by element, keeping the minimum.
void fold_min(std::vector<double>& best, const std::vector<double>& v) {
  if (best.empty()) {
    best = v;
    return;
  }
  if (best.size() != v.size()) {
    throw std::logic_error("a rep's parts differ from the previous rep's");
  }
  for (std::size_t i = 0; i < v.size(); ++i) best[i] = std::min(best[i], v[i]);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// Pins the calling thread to each CPU it may run on in turn, one per
/// next() call; restores the original CPU set when destroyed. A host slows
/// its vCPUs unevenly and for long spells, and a thread left alone stays
/// on one of them. Does nothing where the set cannot be read.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof all_, &all_) != 0) return;
    for (std::size_t c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation() {
    if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof all_, &all_);
  }

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t all_;
  std::vector<std::size_t> cpus_;
  std::size_t next_ = 0;
};

/// Untraced production, one thread: set-up, throughput, oracle step, RSS.
///
/// Every round repeats the same work: the same production calls and the
/// same oracle steps. Other tenants of the host only ever slow a piece of
/// work down, in spells of a fraction of a second to many seconds, so a
/// reported value composes each piece's fastest time over the rounds (each
/// production call's, each oracle step's) rather than picking one whole
/// round, and each round runs pinned to the next CPU, so every piece meets
/// every vCPU. The per-round values are kept alongside for the spread.
void run_end_to_end(const Options& opt, Workload& wl, Result& res,
                    Clock::time_point t_start) {
  const std::size_t min_reps = opt.quick ? 1 : 5;
  const std::size_t max_reps = opt.quick ? 1 : 100;
  const double budget = opt.quick ? 0.0 : opt.seconds;

  // The 1t warm-up is the reference output every later rep must match.
  const Output ref = wl.production(1);
  res.metrics["setup_s"] = {seconds_since(t_start)};
  if (opt.setup_only) return;
  res.info["peak_rss_reset"] = reset_peak_rss() ? "yes" : "no";
  res.info["output_digest"] = output_digest(ref);
  res.info["unsafe_episodes"] = std::to_string(ref.counts.unsafe);
  res.info["episodes_per_rep_1t"] = std::to_string(wl.episodes(1));

  const std::size_t steps = opt.quick ? 25000 : 250000;
  std::vector<double> samples;
  samples.reserve(steps);
  if (!opt.quick) wl.oracle(steps, samples);
  res.info["oracle_steps_per_rep"] = std::to_string(steps);

  // One round = one rep of each series, so both series sample the whole
  // run and a slow spell of the host hits them alike.
  std::vector<double> best_part;
  std::vector<double> best_step;
  const auto per_min = [&](double s) {
    return static_cast<double>(wl.episodes(1)) / s * 60.0;
  };
  std::vector<double>& per_min_1t = res.metrics["episodes_per_min_1t"];
  std::vector<double>& p50 = res.metrics["control_step_p50_us"];
  std::vector<double>& p99 = res.metrics["control_step_p99_us"];
  CpuRotation cpus;
  const std::size_t rounds = repeat(
      [&] {
        cpus.next();
        std::vector<double> part_s;
        const Output out = wl.production(1, &part_s);
        res.attempted += out.counts.episodes;
        res.check("1t rep", compare_outputs(ref, out, false));
        fold_min(best_part, part_s);
        per_min_1t.push_back(per_min(sum(part_s)));
        samples.clear();
        const Clock::time_point t0 = Clock::now();
        wl.oracle(steps, samples);
        const double so = seconds_since(t0);
        fold_min(best_step, samples);
        p50.push_back(quantile(samples, 0.50) / 1e3);
        p99.push_back(quantile(samples, 0.99) / 1e3);
        return sum(part_s) + so;
      },
      budget, min_reps, max_reps).size();
  res.info["rounds"] = std::to_string(rounds);
  res.info["parts_per_rep"] = std::to_string(best_part.size());

  res.value["episodes_per_min_1t"] = per_min(sum(best_part));
  res.value["control_step_p50_us"] = quantile(best_step, 0.50) / 1e3;
  res.value["control_step_p99_us"] = quantile(best_step, 0.99) / 1e3;
  res.metrics["peak_rss_mb"] = {peak_rss_mb()};
  res.check("scalar oracle", wl.check_scalar(ref));
}

/// Per-layer: untraced 1t production reps interleaved with traced replica
/// reps of the same input, and untraced nt production reps.
void run_layers(const Options& opt, Workload& wl, Result& res) {
  const std::size_t min_reps = opt.quick ? 1 : 5;
  const std::size_t max_reps = opt.quick ? 1 : 50;
  const double budget = opt.quick ? 0.0 : opt.seconds;

  const Output ref = wl.production(1);
  res.info["output_digest"] = output_digest(ref);
  res.info["episodes_per_rep_nt"] = std::to_string(wl.episodes(opt.threads_nt));
  Tracer tr;
  if (!opt.quick) {
    tr.reset();
    LayerValues warm;
    res.check("replica warm-up",
              compare_outputs(ref, wl.replica(tr, warm), false));
    res.check("nt warm-up",
              compare_outputs(ref, wl.production(opt.threads_nt), true));
  }

  std::size_t pair = 0;
  repeat(
      [&] {
        // The nt rep's records must extend the 1t rep's.
        const Clock::time_point t_nt = Clock::now();
        const Output nt = wl.production(opt.threads_nt);
        const double nt_s = seconds_since(t_nt);
        res.attempted += nt.counts.episodes;
        res.check("nt rep", compare_outputs(ref, nt, true));
        const auto time_production = [&] {
          const Clock::time_point t0 = Clock::now();
          const Output out = wl.production(1);
          const double s = seconds_since(t0);
          res.attempted += out.counts.episodes;
          res.check("1t rep", compare_outputs(ref, out, false));
          return s;
        };
        LayerValues layer;
        Output replica;
        const auto time_replica = [&] {
          tr.reset();
          const Clock::time_point t0 = Clock::now();
          replica = wl.replica(tr, layer);
          return seconds_since(t0);
        };
        // Alternate which side runs first so drift hits both equally.
        double production_s = 0.0;
        double replica_s = 0.0;
        if (pair++ % 2 == 0) {
          production_s = time_production();
          replica_s = time_replica();
        } else {
          replica_s = time_replica();
          production_s = time_production();
        }
        res.attempted += replica.counts.episodes;
        res.check("replica", compare_outputs(ref, replica, false));
        const Tally& t = tr.tally();
        if (t.lane_steps() != replica.counts.steps) {
          res.check("replica", "lapped lane-steps differ from record steps");
        }
        std::uint64_t leaf_ns = 0;
        for (std::uint32_t k = 0; k < kCell; ++k) leaf_ns += t.ns[k];
        layer["sim.replica_ratio"] = replica_s / production_s;
        layer["sim.layer_sum_ratio"] =
            static_cast<double>(leaf_ns) / 1e9 / production_s;
        layer["sim.episodes_per_min_nt"] =
            static_cast<double>(wl.episodes(opt.threads_nt)) / nt_s * 60.0;
        layer["sim.nt_speedup"] =
            layer["sim.episodes_per_min_nt"] /
            (static_cast<double>(wl.episodes(1)) / production_s * 60.0);
        for (const MetricSpec& spec : per_layer_specs()) {
          const auto it = layer.find(spec.name);
          res.metrics[spec.name].push_back(it == layer.end() ? 0.0
                                                             : it->second);
        }
        return nt_s + production_s + replica_s;
      },
      budget, min_reps, max_reps);

  const std::filesystem::path trace_path =
      std::filesystem::path(opt.out_dir) / (opt.workload + ".trace.json");
  std::ofstream f(trace_path, std::ios::binary);
  tr.write_chrome_json(f);
  if (!f.good()) {
    throw std::runtime_error("cannot write " + trace_path.string());
  }
  res.info["trace"] = trace_path.string();
  res.info["unsafe_episodes"] = std::to_string(ref.counts.unsafe);
  res.check("scalar oracle", wl.check_scalar(ref));
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point t_start = Clock::now();
  Options opt;
  try {
    opt = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cvsafe_e2e: %s\n", e.what());
    return 2;
  }
  try {
    const std::unique_ptr<Workload> wl =
        make_workload(opt.workload, opt.seed, opt.quick);
    if (!wl) {
      std::fprintf(stderr, "cvsafe_e2e: unknown workload %s\n",
                   opt.workload.c_str());
      return 2;
    }
    std::filesystem::create_directories(opt.out_dir);
    wl->setup();
    Result res;
    res.mode = opt.setup_only ? "setup" : (opt.trace == 0 ? "e2e" : "layers");
    const std::vector<MetricSpec>& specs =
        res.mode == "layers" ? per_layer_specs() : end_to_end_specs();
    if (opt.trace == 0 || opt.setup_only) {
      run_end_to_end(opt, *wl, res, t_start);
    } else {
      run_layers(opt, *wl, res);
    }
    write_result(opt, res, specs);
    print_summary(opt, res, specs);
    return res.failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cvsafe_e2e: %s\n", e.what());
    return 3;
  }
}
