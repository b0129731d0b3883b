// One benchmark run in one process: builds a named workload, runs the
// cooperative engine over it through the library's public calls
// (MakeWorkload, MakeScheduler, RunScheduler), and prints a single JSON
// line with the run's deterministic result and its host-time spans.
//
//   perfbench_run --workload updates|fanout|mixed --seed N --traced 0|1
//                 [--run_threads N] [--smoke]
//   perfbench_run --stamp            # compiler / build type, as JSON
//   perfbench_run --probe            # host memory-speed probe, as JSON
//
// Spans are taken from outside the engine: a forwarding Scheduler wrapper
// timestamps the harness's calls into the engine (Initialize,
// OnObjectUpdate, Tick, OnMeasurementStart, Finalize, TakeObsOutput). An
// untraced run stamps only the Initialize and Finalize boundaries; a traced
// run also times every per-object and per-tick call and attaches the public
// PhaseTimer hook. Neither changes what the engine computes, so both print
// the same "result".
//
// perfbench/run.py drives this binary, repeats it, checks the results and
// aggregates the metrics.

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/system.h"
#include "data/workload.h"
#include "divergence/metric.h"
#include "exp/experiment.h"
#include "obs/trace.h"
#include "util/phase_timer.h"

namespace besync {
namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One "<key>: <n> kB" field of /proc/self/status, in bytes (0 if absent).
int64_t ReadProcStatusBytes(const char* key) {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return 0;
  const size_t key_len = std::strlen(key);
  int64_t bytes = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      bytes = std::atoll(line + key_len + 1) * 1024;
      break;
    }
  }
  std::fclose(file);
  return bytes;
}

constexpr double kMiB = 1024.0 * 1024.0;

/// Forwards every Scheduler call to the engine and timestamps the calls at
/// the boundary. A traced run (non-null `phase_timer`, the one attached to
/// the engine) adds the per-call spans; the boundary stamps (Initialize,
/// Finalize, TakeObsOutput) are taken either way.
class TimedScheduler : public Scheduler {
 public:
  TimedScheduler(Scheduler* inner, const PhaseTimer* phase_timer)
      : inner_(inner), traced_(phase_timer != nullptr), phase_timer_(phase_timer) {}

  std::string name() const override { return inner_->name(); }

  void Initialize(Harness* harness) override {
    init_begin_ = NowNanos();
    if (traced_) rss_init_begin_ = ReadProcStatusBytes("VmRSS");
    inner_->Initialize(harness);
    if (traced_) rss_init_end_ = ReadProcStatusBytes("VmRSS");
    init_end_ = NowNanos();
  }

  void OnObjectUpdate(ObjectIndex index, double t) override {
    ++updates_;
    if (!traced_) {
      inner_->OnObjectUpdate(index, t);
      return;
    }
    const int64_t start = NowNanos();
    inner_->OnObjectUpdate(index, t);
    update_nanos_ += NowNanos() - start;
  }

  void Tick(double t) override {
    ++ticks_;
    if (!traced_) {
      inner_->Tick(t);
      return;
    }
    const int64_t start = NowNanos();
    inner_->Tick(t);
    const int64_t nanos = NowNanos() - start;
    tick_nanos_ += nanos;
    tick_durations_.push_back(nanos);
  }

  void OnMeasurementStart(double t) override {
    inner_->OnMeasurementStart(t);
    if (traced_) measure_start_phases_ = phase_timer_->TakeSnapshot();
  }

  void Finalize(double t) override {
    finalize_begin_ = NowNanos();
    inner_->Finalize(t);
    finalize_end_ = NowNanos();
  }

  SchedulerStats stats() const override { return inner_->stats(); }

  std::shared_ptr<ObsOutput> TakeObsOutput() override {
    const int64_t start = NowNanos();
    std::shared_ptr<ObsOutput> output = inner_->TakeObsOutput();
    take_obs_nanos_ = NowNanos() - start;
    return output;
  }

  int64_t init_begin() const { return init_begin_; }
  int64_t init_end() const { return init_end_; }
  int64_t finalize_begin() const { return finalize_begin_; }
  int64_t finalize_end() const { return finalize_end_; }
  int64_t take_obs_nanos() const { return take_obs_nanos_; }
  int64_t update_nanos() const { return update_nanos_; }
  int64_t tick_nanos() const { return tick_nanos_; }
  int64_t updates() const { return updates_; }
  int64_t ticks() const { return ticks_; }
  int64_t rss_init_begin() const { return rss_init_begin_; }
  int64_t rss_init_end() const { return rss_init_end_; }
  const std::vector<int64_t>& tick_durations() const { return tick_durations_; }
  const PhaseTimer::Snapshot& measure_start_phases() const {
    return measure_start_phases_;
  }

 private:
  Scheduler* inner_;
  const bool traced_;
  const PhaseTimer* phase_timer_;
  int64_t init_begin_ = 0;
  int64_t init_end_ = 0;
  int64_t finalize_begin_ = 0;
  int64_t finalize_end_ = 0;
  int64_t take_obs_nanos_ = 0;
  int64_t update_nanos_ = 0;
  int64_t tick_nanos_ = 0;
  int64_t updates_ = 0;
  int64_t ticks_ = 0;
  int64_t rss_init_begin_ = 0;
  int64_t rss_init_end_ = 0;
  std::vector<int64_t> tick_durations_;
  PhaseTimer::Snapshot measure_start_phases_;
};

/// The benchmark's workloads. `smoke` shrinks every size (same code path)
/// for the benchmark's own tests. Every stream the run draws from is seeded
/// from `seed`.
Result<ExperimentConfig> WorkloadConfigFor(const std::string& name, uint64_t seed,
                                           bool smoke) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kCooperative;
  config.metric = MetricKind::kValueDeviation;
  WorkloadConfig& workload = config.workload;
  workload.seed = seed;
  workload.read.seed = seed + 1000003;
  workload.fault.seed = seed + 2000003;
  config.harness.seed = seed + 3000017;
  workload.rate_lo = 0.0;
  if (name == "updates") {
    // Update dispatch and setup dominate: 500k objects, one replica each.
    workload.num_sources = smoke ? 10 : 1000;
    workload.objects_per_source = smoke ? 20 : 500;
    workload.num_caches = smoke ? 10 : 1000;
    workload.interest_pattern = InterestPattern::kPartitionedBySource;
    workload.rate_hi = 0.02;
    config.cache_bandwidth_avg = 4.0;
    config.source_bandwidth_avg = 2.0;
    config.harness.warmup = 10.0;
    config.harness.measure = smoke ? 30.0 : 60.0;
    config.run_threads = 1;
  } else if (name == "fanout") {
    // The sharded tick: ~24 replicas per object over 128 caches.
    workload.num_sources = smoke ? 8 : 128;
    workload.objects_per_source = smoke ? 10 : 40;
    workload.num_caches = smoke ? 8 : 128;
    workload.interest_pattern = InterestPattern::kZipfOverlap;
    workload.rate_hi = 0.2;
    config.cache_bandwidth_avg = 40.0;
    config.harness.warmup = 10.0;
    config.harness.measure = smoke ? 30.0 : 150.0;
    config.run_threads = 4;
  } else if (name == "mixed") {
    // Reads, invalidations, relays, faults and observability together.
    workload.num_sources = smoke ? 8 : 40;
    workload.objects_per_source = smoke ? 25 : 250;
    workload.num_caches = smoke ? 8 : 32;
    workload.interest_pattern = InterestPattern::kZipfOverlap;
    workload.rate_hi = 0.1;
    workload.relay_tiers = 2;
    workload.relay_fanout = 4;
    workload.relay_bandwidth_factor = 4.0;
    workload.read.read_rate = 5.0;
    workload.read.zipf_exponent = 0.8;
    workload.read.capacity = smoke ? 40 : 1500;
    workload.read.eviction = EvictionPolicy::kLru;
    config.harness.warmup = 20.0;
    config.harness.measure = smoke ? 60.0 : 600.0;
    FaultScheduleConfig& fault = workload.fault;
    fault.cache_crashes = 3;
    fault.crash_duration = 20.0;
    fault.relay_failures = 2;
    fault.relay_fail_duration = 20.0;
    fault.link_flaps = 2;
    fault.flap_duration = 10.0;
    fault.window_start = config.harness.warmup;
    fault.window_end = config.harness.warmup + config.harness.measure * 0.6;
    config.cache_bandwidth_avg = 20.0;
    config.source_bandwidth_avg = 20.0;
    config.protocol.kind = SyncProtocolKind::kInvalidation;
    config.protocol.max_invalidate_batch = 4;
    config.recovery_policy = RecoveryPolicy::kRecoveryPriority;
    config.obs.enabled = true;
    config.obs.trace = true;
    config.obs.trace_start = config.harness.warmup;
    config.obs.trace_end = config.harness.warmup + 60.0;
    config.run_threads = 1;
  } else {
    return Status::InvalidArgument("unknown workload '", name,
                                   "' (expected updates, fanout or mixed)");
  }
  return config;
}

/// Appends `"key": value` pairs to a JSON object body.
class JsonFields {
 public:
  void Int(const char* key, int64_t value) {
    Key(key);
    body_ += std::to_string(value);
  }
  void Double(const char* key, double value) {
    Key(key);
    if (!std::isfinite(value)) {
      body_ += "null";
      return;
    }
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    body_ += buffer;
  }
  void Seconds(const char* key, int64_t nanos) {
    Double(key, static_cast<double>(nanos) * 1e-9);
  }
  void Raw(const char* key, const std::string& json) {
    Key(key);
    body_ += json;
  }
  std::string Object() const { return "{" + body_ + "}"; }

 private:
  void Key(const char* key) {
    if (!body_.empty()) body_ += ", ";
    body_ += '"';
    body_ += key;
    body_ += "\": ";
  }
  std::string body_;
};

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// The run's deterministic outcome: what the engine computed, independent
/// of host time, tracing and lane count. The result check compares it.
std::string ResultJson(const RunResult& run, const TimedScheduler& timed) {
  const SchedulerStats& s = run.scheduler;
  JsonFields f;
  f.Double("total_weighted_divergence", run.total_weighted_divergence);
  f.Double("per_object_weighted", run.per_object_weighted);
  f.Double("per_object_unweighted", run.per_object_unweighted);
  f.Int("total_replicas", run.total_replicas);
  f.Int("updates", timed.updates());
  f.Int("ticks", timed.ticks());
  f.Int("refreshes_sent", s.refreshes_sent);
  f.Int("refreshes_delivered", s.refreshes_delivered);
  f.Int("feedback_sent", s.feedback_sent);
  f.Double("cache_utilization", s.cache_utilization);
  f.Double("mean_threshold", s.mean_threshold);
  f.Int("relays_forwarded", s.relays_forwarded);
  f.Int("max_relay_store", s.max_relay_store);
  f.Int("reads_total", s.reads_total);
  f.Int("read_hits", s.read_hits);
  f.Int("pull_requests_sent", s.pull_requests_sent);
  f.Int("pulls_delivered", s.pulls_delivered);
  f.Int("cache_evictions", s.cache_evictions);
  f.Double("read_staleness_p95", s.read_staleness_p95);
  f.Double("pull_bandwidth_share", s.pull_bandwidth_share);
  f.Int("invalidations_sent", s.invalidations_sent);
  f.Int("invalidations_received", s.invalidations_received);
  f.Int("cache_crashes", s.cache_crashes);
  f.Int("relay_failures", s.relay_failures);
  f.Int("link_down_events", s.link_down_events);
  f.Int("resync_deliveries", s.resync_deliveries);
  f.Int("resync_pending", s.resync_pending);
  f.Double("time_to_resync_p95", s.time_to_resync_p95);
  f.Int("obs_trace_events",
        run.obs ? static_cast<int64_t>(run.obs->trace.size()) : 0);
  f.Int("obs_trace_dropped", run.obs ? run.obs->trace_dropped : 0);
  f.Int("obs_series_rows",
        run.obs ? static_cast<int64_t>(run.obs->series.rows().size()) : 0);
  return f.Object();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  bool traced = false;
  int run_threads = 0;  // 0 = the workload's own lane count
  bool smoke = false;
  bool stamp = false;
  bool probe = false;
};

/// Parses a whole decimal number in [0, max]; false on anything else.
bool ParseUint(const char* text, uint64_t max, uint64_t* out) {
  if (*text < '0' || *text > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || value > max) return false;
  *out = value;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (flag == "--stamp") {
      args->stamp = true;
      continue;
    }
    if (flag == "--probe") {
      args->probe = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, UINT64_MAX, &args->seed)) return false;
    } else if (flag == "--traced") {
      uint64_t traced = 0;
      if (!ParseUint(value, 1, &traced)) return false;
      args->traced = traced == 1;
    } else if (flag == "--run_threads") {
      uint64_t lanes = 0;
      if (!ParseUint(value, 256, &lanes)) return false;
      args->run_threads = static_cast<int>(lanes);
    } else {
      return false;
    }
  }
  return args->stamp || args->probe || !args->workload.empty();
}

/// Times a fixed, engine-independent mix of the memory work the engine's
/// runs do: random swaps over 32 MiB (Sattolo's shuffle, which builds one
/// random cycle), a dependent walk along that cycle, inserts and lookups in
/// a node-based tree, and a streaming pass over 64 MiB. How long it takes
/// tracks how fast this host serves cache misses and allocations at the
/// moment; run.py scales run times by it. No single part tracked the
/// engine's drift as well as their sum.
int RunProbe() {
  uint64_t state = 0x5DEECE66DULL;
  auto next_random = [&state] {  // splitmix64
    state += 0x9E3779B97F4A7C15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  uint64_t checksum = 0;
  const int64_t start = NowNanos();

  constexpr uint32_t kSlots = uint32_t{1} << 23;
  std::vector<uint32_t> cycle(kSlots);
  for (uint32_t i = 0; i < kSlots; ++i) cycle[i] = i;
  for (uint32_t i = kSlots - 1; i > 0; --i) {
    std::swap(cycle[i], cycle[next_random() % i]);
  }
  const int64_t shuffled = NowNanos();

  uint32_t at = 0;
  for (int step = 0; step < (1 << 19); ++step) {
    at = cycle[at];
    checksum += at;
  }
  const int64_t walked = NowNanos();

  std::map<uint64_t, uint64_t> tree;
  constexpr int kTreeKeys = 200000;
  for (int i = 0; i < kTreeKeys; ++i) tree[next_random()] = i;
  for (int i = 0; i < kTreeKeys; ++i) {
    checksum += tree.lower_bound(next_random()) != tree.end() ? 1 : 0;
  }
  const int64_t treed = NowNanos();

  std::vector<uint64_t> stream(size_t{1} << 23, 1);
  for (int pass = 0; pass < 2; ++pass) {
    for (const uint64_t value : stream) checksum += value;
  }
  const int64_t end = NowNanos();

  JsonFields f;
  f.Seconds("probe_s", end - start);
  f.Seconds("shuffle_s", shuffled - start);
  f.Seconds("walk_s", walked - shuffled);
  f.Seconds("tree_s", treed - walked);
  f.Seconds("stream_s", end - treed);
  f.Int("checksum", static_cast<int64_t>(checksum));
  std::printf("%s\n", f.Object().c_str());
  return 0;
}

int PrintFailure(const Status& status) {
  std::printf("{\"status\": %s}\n", JsonString(status.ToString()).c_str());
  return 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_run --workload NAME --seed N --traced 0|1 "
                 "[--run_threads N] [--smoke] | --stamp | --probe\n");
    return 2;
  }
  if (args.probe) return RunProbe();
  if (args.stamp) {
    JsonFields f;
#if defined(__clang__)
    f.Raw("compiler", JsonString(std::string("clang ") + __clang_version__));
#elif defined(__GNUC__)
    f.Raw("compiler", JsonString(std::string("gcc ") + __VERSION__));
#else
    f.Raw("compiler", JsonString("unknown"));
#endif
    f.Raw("build_type", JsonString(PERFBENCH_BUILD_TYPE));
    std::printf("%s\n", f.Object().c_str());
    return 0;
  }

  Result<ExperimentConfig> made = WorkloadConfigFor(args.workload, args.seed, args.smoke);
  if (!made.ok()) return PrintFailure(made.status());
  ExperimentConfig config = *made;
  if (args.run_threads > 0) config.run_threads = args.run_threads;
  PhaseTimer phase_timer;
  if (args.traced) config.phase_timer = &phase_timer;
  const std::unique_ptr<DivergenceMetric> metric = MakeMetric(config.metric);

  // --- the measured run: MakeWorkload through RunScheduler returning ---
  const int64_t rss_begin = args.traced ? ReadProcStatusBytes("VmRSS") : 0;
  const int64_t t_begin = NowNanos();
  Result<Workload> built = MakeWorkload(config.workload);
  const int64_t t_built = NowNanos();
  const int64_t rss_built = args.traced ? ReadProcStatusBytes("VmRSS") : 0;
  if (!built.ok()) return PrintFailure(built.status());
  const Workload& workload = *built;
  if (!workload.topology.flat()) {
    const Status status = workload.topology.Validate(workload.num_caches);
    if (!status.ok()) return PrintFailure(status);
  }
  if (!workload.faults.empty()) {
    const Status status = workload.faults.Validate(workload.topology, workload.num_caches);
    if (!status.ok()) return PrintFailure(status);
  }
  const std::unique_ptr<Scheduler> engine = MakeScheduler(config);
  TimedScheduler timed(engine.get(), config.phase_timer);
  const int64_t t_run = NowNanos();
  Result<RunResult> run = RunScheduler(&workload, metric.get(), config.harness, &timed);
  const int64_t t_end = NowNanos();
  if (!run.ok()) return PrintFailure(run.status());

  const double sim_seconds = config.harness.warmup + config.harness.measure;
  JsonFields time;
  time.Seconds("wall_s", t_end - t_begin);
  time.Seconds("setup_s", timed.init_end() - t_begin);
  time.Double("sim_speed",
              sim_seconds / (static_cast<double>(timed.finalize_begin() - timed.init_end()) * 1e-9));
  time.Double("peak_rss_mb", static_cast<double>(ReadProcStatusBytes("VmHWM")) / kMiB);
  if (args.traced) {
    time.Seconds("data.build_s", t_built - t_begin);
    time.Seconds("engine.make_s", t_run - t_built);
    time.Seconds("harness.init_s", timed.init_begin() - t_run);
    time.Seconds("engine.init_s", timed.init_end() - timed.init_begin());
    const int64_t steady = timed.finalize_begin() - timed.init_end();
    time.Seconds("harness.dispatch_s", steady - timed.update_nanos() - timed.tick_nanos());
    time.Seconds("source.on_update_s", timed.update_nanos());
    time.Seconds("tick.s", timed.tick_nanos());
    for (int p = 0; p < PhaseTimer::kNumPhases; ++p) {
      const auto phase = static_cast<PhaseTimer::Phase>(p);
      const std::string key = std::string("tick.") + PhaseTimer::Name(phase) + "_s";
      time.Seconds(key.c_str(), phase_timer.nanos(phase));
    }
    time.Seconds("finalize_s", timed.finalize_end() - timed.finalize_begin());
    time.Seconds("obs.take_s", timed.take_obs_nanos());
    time.Double("mem.build_mb", static_cast<double>(rss_built - rss_begin) / kMiB);
    time.Double("mem.engine_mb",
                static_cast<double>(timed.rss_init_end() - timed.rss_init_begin()) / kMiB);
    // Measurement-window phase cost, the numerator of the per-unit costs
    // (the stats they divide by are reset when measurement starts).
    const PhaseTimer::Snapshot window =
        PhaseTimer::Delta(phase_timer.TakeSnapshot(), timed.measure_start_phases());
    JsonFields phases;
    for (int p = 0; p < PhaseTimer::kNumPhases; ++p) {
      phases.Seconds(PhaseTimer::Name(static_cast<PhaseTimer::Phase>(p)),
                     window.nanos[p]);
    }
    time.Raw("measure_window_phase_s", phases.Object());
  }

  std::string ticks = "[";
  for (size_t i = 0; i < timed.tick_durations().size(); ++i) {
    if (i > 0) ticks += ',';
    ticks += std::to_string(timed.tick_durations()[i]);
  }
  ticks += ']';

  JsonFields out;
  out.Raw("status", "\"OK\"");
  out.Raw("workload", JsonString(args.workload));
  out.Int("seed", static_cast<int64_t>(args.seed));
  out.Int("traced", args.traced ? 1 : 0);
  out.Int("run_threads", config.run_threads);
  out.Double("sim_seconds", sim_seconds);
  out.Raw("result", ResultJson(*run, timed));
  out.Raw("time", time.Object());
  out.Raw("tick_ns", ticks);
  std::printf("%s\n", out.Object().c_str());
  return 0;
}

}  // namespace
}  // namespace besync

int main(int argc, char** argv) { return besync::Main(argc, argv); }
