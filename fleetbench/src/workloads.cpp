#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "collector.h"
#include "data/class_pattern.h"
#include "fleet.h"
#include "kernels/parallel_for.h"
#include "stats.h"
#include "tenant/overlay.h"
#include "trace.h"

namespace fleetbench {

using namespace crisp;

namespace {

// ---- workloads --------------------------------------------------------------
// Rates are absolute, chosen once on a 4-core x86 host (fleet_hot at about
// a third of what its three engines sustain) and never calibrated per run.
// Counts are rate x --seconds, so a run does a fixed amount of work however
// fast the program is. Engines run single-threaded; engines plus the
// operator stay at three threads so the Router's compiler thread, which
// compiles every new tenant, has the fourth core. Reads are single-sample
// requests, uniform over the hot tenants.
struct Spec {
  const char* name;
  std::int64_t hot;             ///< resident tenants the reads target
  std::int64_t max_engines;     ///< router pool (hot + 1 on personalize)
  double open_rate;             ///< open-loop Poisson requests per second
  double open_share;            ///< share of --seconds the open loop spans
  std::int64_t closed_window;   ///< outstanding closed-loop requests (0: none)
  double closed_per_second;     ///< closed-loop requests per --seconds second
  double users_per_second;      ///< paced personalizations per second
};

constexpr Spec kSpecs[] = {
    {"fleet_hot", 3, 3, 1200.0, 0.6, 8, 600.0, 0.0},
    {"personalize", 1, 2, 400.0, 1.0, 0, 0.0, 5.0},
};

/// Cold starts before the measured passes (the last server serves them)
/// and after them, so setup_s samples the host at both ends of the run.
constexpr int kSetupRunsBefore = 5;
constexpr int kSetupRunsAfter = 4;
constexpr int kWaiters = 8;
constexpr std::int64_t kSamplePool = 64;
constexpr std::int64_t kCalibrationPerClass = 4;
constexpr int kReferenceThreads = 4;
constexpr int kProbeUsers = 8;
constexpr int kProbeColdTenants = 16;
/// fleet_hot's delta_bytes and flops_ratio average this many seed-chosen
/// fleet tenants, the hot ones among them.
constexpr std::int64_t kExactSample = 32;
constexpr int kProbeRounds = 5;
/// A traced run first repeats the workload untraced at this scale, for
/// bench.trace_overhead_pct, then runs it traced at full scale.
constexpr double kUntracedShare = 0.25;
/// The read stream is split into windows of this length by due time; the
/// read-latency percentiles pool the windows the host left alone (see
/// quiet_windows()).
constexpr std::chrono::milliseconds kStealWindow{500};

/// Every engine option the workloads depend on, set explicitly.
serve::EngineOptions engine_options() {
  serve::EngineOptions o;
  o.max_batch = 8;
  o.queue_depth = 256;
  o.flush_timeout = std::chrono::microseconds(200);
  o.thread_budget = 1;
  o.overflow = serve::EngineOptions::Overflow::kReject;
  o.admission_watermark = {1.0, 1.0, 1.0};
  o.reject_infeasible = false;
  return o;
}

tenant::RouterOptions router_options(const Spec& spec) {
  tenant::RouterOptions o;
  o.max_engines = spec.max_engines;
  o.engine = engine_options();
  o.cold_queue_depth = 256;
  o.compile_retry_backoff = std::chrono::milliseconds(10);
  return o;
}

tenant::StoreOptions store_options() {
  tenant::StoreOptions o;
  o.compiled_budget_bytes = 16ll << 20;
  return o;
}

// ---- metrics ----------------------------------------------------------------
struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"latency_p50_ms", "ms", "lower"},
    {"latency_p90_ms", "ms", "lower"},
    {"latency_p99_ms", "ms", "lower"},
    {"throughput_rps", "req/s", "higher"},
    {"cpu_ms_per_op", "ms", "lower"},
    {"peak_rss_mib", "MiB", "lower"},
    {"serve_latency_p50_ms", "ms", "lower"},
    {"serve_latency_p99_ms", "ms", "lower"},
    {"delta_bytes", "B", "lower"},
    {"flops_ratio", "ratio", "lower"},
};

constexpr MetricDef kPerLayer[] = {
    {"deploy.load_ms", "ms", "lower"},
    {"deploy.artifact_kib", "KiB", "lower"},
    {"tenant.load_shard_ms", "ms", "lower"},
    {"tenant.warm_ms", "ms", "lower"},
    {"tenant.resident_kib", "KiB", "lower"},
    {"tenant.hot_ratio", "ratio", "higher"},
    {"tenant.router_ms_p50", "ms", "lower"},
    {"tenant.router_ms_p99", "ms", "lower"},
    {"tenant.acquire_cold_ms_p50", "ms", "lower"},
    {"tenant.compiles", "count", "lower"},
    {"tenant.evictions", "count", "lower"},
    {"tenant.engines_built", "count", "lower"},
    {"tenant.engines_retired", "count", "lower"},
    {"tenant.from_model_ms_p50", "ms", "lower"},
    {"tenant.register_ms_p50", "ms", "lower"},
    {"tenant.first_response_ms_p50", "ms", "lower"},
    {"serve.queue_ms_p50", "ms", "lower"},
    {"serve.queue_ms_p99", "ms", "lower"},
    {"serve.run_ms_p50", "ms", "lower"},
    {"serve.run_ms_p99", "ms", "lower"},
    {"serve.batch_mean", "req", "higher"},
    {"serve.refused", "count", "lower"},
    {"nn.forward_b1_ms", "ms", "lower"},
    {"nn.forward_b8_ms", "ms", "lower"},
    {"nn.macs_per_sample", "MAC", "lower"},
    {"nn.gmacs_b8", "GMAC/s", "higher"},
    {"sparse.spmm_b1_ms", "ms", "lower"},
    {"sparse.spmm_b8_ms", "ms", "lower"},
    {"sparse.payload_kib", "KiB", "lower"},
    {"core.saliency_ms_p50", "ms", "lower"},
    {"core.saliency_ms_p90", "ms", "lower"},
    {"core.restrict_ms_p50", "ms", "lower"},
    {"bench.lag_ms_p99", "ms", "lower"},
    {"bench.trace_overhead_pct", "%", "lower"},
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile without the support rule, for per-layer
/// diagnostics (they carry no bound).
double pct(const std::vector<double>& v, double q) {
  return v.empty() ? 0.0 : percentile(v, q, 0);
}

// ---- inputs -----------------------------------------------------------------
struct Fleet {
  explicit Fleet(const RunArgs& args)
      : paths(args.inputs),
        manifest(read_manifest(paths.manifest)),
        factory(model_factory(args.seed)),
        users(read_users(paths.users)) {
    if (manifest.seed != args.seed)
      throw std::runtime_error("inputs were prepared for another seed");
    data::ClassPatternConfig dc = data::ClassPatternConfig::cifar100_like();
    dc.num_classes = kClasses;
    dc.image_size = kImageSize;
    dc.train_per_class = kCalibrationPerClass;
    dc.test_per_class = 1;
    dc.seed = args.seed ^ 0xDA7Aull;
    data::TrainTest tt = data::make_class_pattern_dataset(dc);
    std::mt19937_64 rng(args.seed ^ 0x5A3Bull);
    for (std::int64_t i = 0; i < kSamplePool; ++i) {
      const auto pick = static_cast<std::int64_t>(
          uniform_index(rng, static_cast<std::uint64_t>(tt.test.size())));
      samples.push_back(
          tt.test.sample(pick).reshaped({3, kImageSize, kImageSize}));
    }
    calibration = std::move(tt.train);
  }
  InputPaths paths;
  Manifest manifest;
  tenant::ModelFactory factory;
  std::vector<std::vector<std::int64_t>> users;
  std::vector<Tensor> samples;  ///< unbatched (3, S, S) request inputs
  data::Dataset calibration;    ///< per-class samples users calibrate on
};

serve::Request make_request(const Tensor& sample) {
  serve::Request r;
  r.sample = sample;
  r.priority = serve::Priority::kStandard;
  r.deadline = std::chrono::microseconds(0);
  return r;
}

// ---- the server's cold start (what setup_s measures) ------------------------
struct Server {
  std::shared_ptr<const deploy::PackedModel> packed;
  std::shared_ptr<const tenant::BaseArtifact> base;
  std::shared_ptr<tenant::Store> store;
  std::unique_ptr<tenant::Router> router;
  std::shared_ptr<nn::Sequential> op_model;  ///< personalize's base copy
  double seconds = 0.0, load_ms = 0.0, load_shard_ms = 0.0, warm_ms = 0.0;
  std::int64_t artifact_bytes = 0, resident_bytes = 0, loaded = 0;
  std::int64_t quarantined = 0;
  bool clean = true;  ///< shard scanned clean and every warm response kOk

  Server() = default;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server() {
    if (router) router->shutdown();
  }
};

std::unique_ptr<Server> cold_start(const Spec& spec, const Fleet& fleet,
                                   const std::vector<std::string>& hot_ids) {
  auto s = std::make_unique<Server>();
  const auto t0 = Clock::now();
  s->packed = std::make_shared<const deploy::PackedModel>(
      deploy::PackedModel::load(fleet.paths.base));
  const auto t1 = Clock::now();
  s->base = tenant::BaseArtifact::create(s->packed);
  s->store =
      std::make_shared<tenant::Store>(s->base, fleet.factory, store_options());
  const auto t2 = Clock::now();
  const tenant::ShardLoadReport rep =
      s->store->load_shard(fleet.paths.shard, /*repair=*/false);
  const auto t3 = Clock::now();
  s->router = std::make_unique<tenant::Router>(s->store, router_options(spec));
  if (spec.users_per_second > 0.0) {
    s->op_model = fleet.factory();
    s->packed->unpack_into(*s->op_model);
  }
  const auto t4 = Clock::now();
  std::vector<std::future<serve::Response>> warm;
  for (const std::string& id : hot_ids)
    warm.push_back(s->router->submit(id, make_request(fleet.samples[0])));
  for (auto& f : warm)
    if (f.get().status != serve::Response::Status::kOk) s->clean = false;
  const auto t5 = Clock::now();

  s->seconds = ms_between(t0, t5) / 1e3;
  s->load_ms = ms_between(t0, t1);
  s->load_shard_ms = ms_between(t2, t3);
  s->warm_ms = ms_between(t4, t5);
  s->artifact_bytes = static_cast<std::int64_t>(
      std::filesystem::file_size(fleet.paths.base));
  s->resident_bytes = s->store->resident_bytes().total();
  s->loaded = rep.loaded;
  s->quarantined = rep.quarantined;
  s->clean = s->clean && rep.scan.clean();
  return s;
}

// ---- one pass of a workload -------------------------------------------------
struct Plan {
  std::int64_t open = 0;                 ///< open-loop requests (slots first)
  std::int64_t closed = 0;               ///< closed-loop requests after them
  std::vector<double> at;                ///< open-loop send times, s
  std::vector<std::int64_t> tenant;      ///< per slot, fleet index
  std::vector<std::int64_t> sample;      ///< per slot, sample-pool index
  std::vector<std::int64_t> users;       ///< user-list indices, in order
};

Plan make_plan(const Spec& spec, std::uint64_t seed, double seconds,
               const std::vector<std::int64_t>& hot, std::int64_t first_user) {
  Plan p;
  std::mt19937_64 rng(seed);
  p.open = std::llround(spec.open_rate * spec.open_share * seconds);
  p.at = poisson_schedule(rng(), spec.open_rate, p.open);
  if (spec.closed_window > 0)
    p.closed = std::llround(spec.closed_per_second * seconds);
  for (std::int64_t i = 0; i < p.open + p.closed; ++i) {
    p.tenant.push_back(hot[uniform_index(rng, hot.size())]);
    p.sample.push_back(
        static_cast<std::int64_t>(uniform_index(rng, kSamplePool)));
  }
  const std::int64_t users = std::llround(spec.users_per_second * seconds);
  for (std::int64_t u = 0; u < users; ++u) p.users.push_back(first_user + u);
  return p;
}

struct UserResult {
  std::string id;
  std::int64_t sample = 0;
  bool ok = false;
  bool mismatch = false;
  double lag_ms = 0.0;  ///< how late the user started against its due time
  double latency_ms = 0.0, saliency_ms = 0.0, restrict_ms = 0.0;
  double from_model_ms = 0.0, register_ms = 0.0, first_ms = 0.0;
  std::shared_ptr<const tenant::MaskDelta> delta;
  Tensor output;
};

struct PassResult {
  std::vector<Outcome> outcomes;
  std::vector<Clock::time_point> due;  ///< open: scheduled; closed: sent
  std::vector<double> lag_ms;          ///< open loop only
  std::vector<std::int64_t> window_steal;  ///< per kStealWindow of the open loop
  Clock::time_point closed_begin{};
  std::vector<UserResult> users;
  Clock::time_point begin{};
  double cpu_s = 0.0, rss_mib = 0.0;
  tenant::RouterStats router_before, router_after;
  tenant::StoreStats store_before, store_after;
  SpanLog spans;
};

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

/// Reference outputs of the hot tenants, per sample.
using HotRefs = std::map<std::int64_t, std::vector<Tensor>>;

using DeltaMap = std::map<std::int64_t, std::shared_ptr<const tenant::MaskDelta>>;

/// The deltas of fleet tenants `ids`, read from the shard by the
/// benchmark's own scan (not through the server).
DeltaMap read_deltas(const std::string& shard,
                     const std::set<std::int64_t>& ids) {
  DeltaMap out;
  tenant::ShardScanResult scan = tenant::scan_shard(shard);
  for (tenant::ShardRecord& r : scan.records) {
    const std::int64_t t = std::stoll(r.tenant_id.substr(1));
    if (ids.count(t) != 0)
      out[t] = std::make_shared<const tenant::MaskDelta>(std::move(r.delta));
  }
  return out;
}

/// Span ids of request spans, assigned ahead so the generator can parent
/// its submit span before the waiter records the request span.
std::uint64_t request_span_id(std::int64_t slot) {
  return (1ull << 40) + static_cast<std::uint64_t>(slot);
}

/// The saliency every personalization runs: cass over one batch of the
/// user's calibration samples, seeded by the user.
core::SaliencyConfig user_saliency(std::int64_t user) {
  core::SaliencyConfig sc;
  sc.criterion = "cass";
  sc.batch_size = kUserClasses * kCalibrationPerClass;
  sc.max_batches = 1;
  sc.seed = static_cast<std::uint64_t>(user);
  return sc;
}

/// personalize's per-user step, run by the operator: saliency on the
/// user's classes, the least-salient block per row dropped, the delta
/// registered, and the new tenant's first response through the router.
/// With `per_second` > 0 the k-th user starts no earlier than `begin` +
/// k / per_second, so the operator's load spans the whole read stream;
/// with 0 the users run back to back.
void personalize_users(Server& srv, const Fleet& fleet,
                       const std::vector<std::int64_t>& users,
                       const char* id_suffix, Clock::time_point begin,
                       double per_second, Tracer& tracer, SpanLog& log,
                       std::vector<UserResult>& out) {
  const kernels::ScopedThreadBudget budget(1);
  const std::vector<LayerBlocks> layers = survey_blocks(*srv.op_model);
  const std::vector<Tensor> base_masks = copy_masks(*srv.op_model);
  for (std::size_t k = 0; k < users.size(); ++k) {
    const std::int64_t u = users[k];
    UserResult r;
    r.id = "u" + std::to_string(u) + id_suffix;
    r.sample = u % kSamplePool;
    const data::Dataset calib = data::filter_classes(
        fleet.calibration, fleet.users[static_cast<std::size_t>(u)]);
    if (per_second > 0.0) {
      const auto due = begin + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       static_cast<double>(k) / per_second));
      std::this_thread::sleep_until(due);
      r.lag_ms = ms_between(due, Clock::now());
    }

    const auto t0 = Clock::now();
    const core::SaliencyMap sal =
        core::estimate_saliency(*srv.op_model, calib, user_saliency(u));
    const auto t1 = Clock::now();
    drop_least_salient(*srv.op_model, layers, sal);
    const auto t2 = Clock::now();
    r.delta = std::make_shared<const tenant::MaskDelta>(
        tenant::MaskDelta::from_model(*srv.base, *srv.op_model));
    const auto t3 = Clock::now();
    srv.store->register_tenant(r.id, *r.delta);
    const auto t4 = Clock::now();
    serve::Response resp =
        srv.router
            ->submit(r.id, make_request(
                               fleet.samples[static_cast<std::size_t>(r.sample)]))
            .get();
    const auto t5 = Clock::now();
    restore_masks(*srv.op_model, base_masks);

    r.ok = resp.status == serve::Response::Status::kOk;
    r.output = std::move(resp.output);
    r.latency_ms = ms_between(t0, t5);
    r.saliency_ms = ms_between(t0, t1);
    r.restrict_ms = ms_between(t1, t2);
    r.from_model_ms = ms_between(t2, t3);
    r.register_ms = ms_between(t3, t4);
    r.first_ms = ms_between(t4, t5);
    const std::uint64_t top =
        tracer.record(log, "personalize.user", t0, t5, 0, u);
    tracer.record(log, "core.saliency", t0, t1, top, u);
    tracer.record(log, "core.restrict", t1, t2, top, u);
    tracer.record(log, "tenant.from_model", t2, t3, top, u);
    tracer.record(log, "tenant.register", t3, t4, top, u);
    tracer.record(log, "tenant.first_response", t4, t5, top, u);
    out.push_back(std::move(r));
  }
}

PassResult run_pass(const Spec& spec, Server& srv, const Fleet& fleet,
                    const Plan& plan, const HotRefs& refs, bool traced,
                    const char* user_suffix) {
  Tracer tracer(traced);
  PassResult res;
  const std::size_t slots = static_cast<std::size_t>(plan.open + plan.closed);
  res.due.resize(slots);
  res.lag_ms.resize(static_cast<std::size_t>(plan.open));

  Checker check = [&](std::size_t slot, const Tensor& output, Outcome& o,
                      SpanLog& log) {
    if (o.ok)
      o.mismatch = !bitwise_equal(
          output, refs.at(plan.tenant[slot])[static_cast<std::size_t>(
                      plan.sample[slot])]);
    if (tracer.enabled()) {
      const auto id = static_cast<std::int64_t>(slot);
      const auto run = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(o.run_ms));
      const auto queue = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(o.queue_ms));
      log.push_back(Span{"request", request_span_id(id), 0, id, res.due[slot],
                         o.ready});
      tracer.record(log, "serve.run", o.ready - run, o.ready,
                    request_span_id(id), id);
      tracer.record(log, "serve.queue", o.ready - run - queue, o.ready - run,
                    request_span_id(id), id);
    }
  };
  Collector collector(slots, kWaiters, check);
  SpanLog generator_log, operator_log;

  res.router_before = srv.router->stats();
  res.store_before = srv.store->stats();
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  res.begin = t0;
  StealSampler steal(t0, kStealWindow);

  auto submit = [&](std::size_t slot) {
    const auto sent = Clock::now();
    auto f = srv.router->submit(
        tenant_id(plan.tenant[slot]),
        make_request(fleet.samples[static_cast<std::size_t>(plan.sample[slot])]));
    tracer.record(generator_log, "router.submit", sent, Clock::now(),
                  request_span_id(static_cast<std::int64_t>(slot)),
                  static_cast<std::int64_t>(slot));
    collector.track(slot, std::move(f));
  };
  auto generate = [&] {
    for (std::int64_t i = 0; i < plan.open; ++i) {
      const auto slot = static_cast<std::size_t>(i);
      const auto due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(plan.at[slot]));
      std::this_thread::sleep_until(due);
      res.due[slot] = due;
      res.lag_ms[slot] = ms_between(due, Clock::now());
      submit(slot);
    }
    collector.drain();
    res.window_steal = steal.stop();
    res.closed_begin = Clock::now();
    for (std::int64_t i = plan.open; i < plan.open + plan.closed; ++i) {
      const auto slot = static_cast<std::size_t>(i);
      collector.wait_below(spec.closed_window);
      res.due[slot] = Clock::now();
      submit(slot);
    }
    collector.drain();
  };

  if (plan.users.empty()) {
    generate();
  } else {
    // The read stream runs on its own thread beside the operator.
    std::exception_ptr generator_error;
    std::thread reader([&] {
      try {
        generate();
      } catch (...) {
        generator_error = std::current_exception();
      }
    });
    std::exception_ptr operator_error;
    try {
      personalize_users(srv, fleet, plan.users, user_suffix, t0,
                        spec.users_per_second, tracer, operator_log,
                        res.users);
    } catch (...) {
      operator_error = std::current_exception();
    }
    reader.join();
    if (generator_error) std::rethrow_exception(generator_error);
    if (operator_error) std::rethrow_exception(operator_error);
  }
  collector.finish();
  res.cpu_s = process_cpu_seconds() - cpu0;
  res.rss_mib = peak_rss_mib();
  res.router_after = srv.router->stats();
  res.store_after = srv.store->stats();
  res.outcomes = std::move(collector.outcomes());
  if (traced) {
    for (SpanLog* l : {&generator_log, &operator_log})
      res.spans.insert(res.spans.end(), l->begin(), l->end());
    for (SpanLog& l : collector.logs())
      res.spans.insert(res.spans.end(), l.begin(), l.end());
  }
  return res;
}

/// Runs fn(i) for i in [0, n) on kReferenceThreads threads.
void parallel_each(std::int64_t n, const std::function<void(std::int64_t)>& fn) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(kReferenceThreads);
  for (int w = 0; w < kReferenceThreads; ++w)
    threads.emplace_back([&, w] {
      try {
        for (std::int64_t i = w; i < n; i += kReferenceThreads) fn(i);
      } catch (...) {
        errors[static_cast<std::size_t>(w)] = std::current_exception();
      }
    });
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

Tensor run_b1(const serve::CompiledModel& m, const Tensor& sample) {
  Tensor out = m.run(sample.reshaped({1, 3, kImageSize, kImageSize}));
  return out.reshaped({out.numel()});
}

std::string serialized(const tenant::MaskDelta& d) {
  std::ostringstream os;
  d.write(os);
  return os.str();
}

// ---- the traced run's layer probe -------------------------------------------
struct Probe {
  double acquire_cold_ms_p50 = 0.0;
  double forward_b1_ms = 0.0, forward_b8_ms = 0.0;
  double spmm_b1_ms = 0.0, spmm_b8_ms = 0.0;
  double macs = 0.0, payload_kib = 0.0;
};

/// Times single layer calls from the benchmark's own code, one thread,
/// after the measured passes. `cold` are tenants no pass touched.
Probe probe_layers(Server& srv, const Fleet& fleet,
                   const std::vector<std::int64_t>& cold, const DeltaMap& deltas,
                   SpanLog& log, Tracer& tracer) {
  const kernels::ScopedThreadBudget budget(1);
  Probe p;
  std::vector<double> acquire;
  std::shared_ptr<const serve::CompiledModel> cm;
  for (const std::int64_t t : cold) {
    const auto a = Clock::now();
    cm = srv.store->acquire(tenant_id(t));
    const auto b = Clock::now();
    tracer.record(log, "tenant.acquire_cold", a, b, 0, t);
    acquire.push_back(ms_between(a, b));
  }
  p.acquire_cold_ms_p50 = median(acquire);

  const Tensor& s = fleet.samples[0];
  Tensor x1 = s.reshaped({1, 3, kImageSize, kImageSize});
  Tensor x8({8, 3, kImageSize, kImageSize});
  for (std::int64_t i = 0; i < 8; ++i)
    std::memcpy(x8.data() + i * s.numel(),
                fleet.samples[static_cast<std::size_t>(i)].data(),
                sizeof(float) * static_cast<std::size_t>(s.numel()));
  std::vector<double> b1, b8;
  for (int r = 0; r < kProbeRounds; ++r) {
    const auto a = Clock::now();
    for (int i = 0; i < 40; ++i) cm->run(x1);
    const auto b = Clock::now();
    for (int i = 0; i < 10; ++i) cm->run(x8);
    const auto c = Clock::now();
    tracer.record(log, "nn.forward_b1x40", a, b);
    tracer.record(log, "nn.forward_b8x10", b, c);
    b1.push_back(ms_between(a, b) / 40);
    b8.push_back(ms_between(b, c) / 10);
  }
  p.forward_b1_ms = median(b1);
  p.forward_b8_ms = median(b8);

  // The probe tenant's overlay kernels at each layer's activation width
  // (from its FLOPs report: dense MACs / (rows x cols) at batch 1).
  const tenant::MaskDelta& delta = *deltas.at(cold.back());
  const Standalone ref = standalone(*srv.base, delta, fleet.factory);
  p.macs = static_cast<double>(ref.flops.sparse_total);
  p.payload_kib = ref.payload_kib;
  std::map<std::string, std::int64_t> dense_macs;
  for (const nn::LayerFlops& lf : ref.flops.layers)
    dense_macs[lf.name] = lf.dense_macs;
  std::shared_ptr<nn::Sequential> model = fleet.factory();
  srv.packed->unpack_into(*model);
  const tenant::OverlayCompile oc = tenant::compile_overlay(
      model, srv.base, std::make_shared<const tenant::MaskDelta>(delta));
  struct Call {
    const tenant::OverlayMatrix* k;
    std::int64_t p;
  };
  std::vector<Call> calls;
  std::size_t oi = 0;
  for (const deploy::PackedEntry& e : srv.base->packed().entries()) {
    if (delta.find(e.name) == nullptr) continue;
    const tenant::OverlayMatrix* k = oc.overlays.at(oi++).get();
    const std::string layer = e.name.substr(0, e.name.rfind('.'));
    const std::int64_t p1 = dense_macs.at(layer) / (k->rows() * k->cols());
    calls.push_back({k, p1});
  }
  auto time_spmm = [&](std::int64_t batch) {
    std::vector<double> rounds;
    for (int r = 0; r < kProbeRounds; ++r) {
      double total = 0.0;
      for (const Call& c : calls) {
        Tensor x({c.k->cols(), c.p * batch});
        for (std::int64_t i = 0; i < x.numel(); ++i)
          x.data()[i] = static_cast<float>((i * 7919) % 97) / 97.0f - 0.5f;
        Tensor y({c.k->rows(), c.p * batch});
        const auto a = Clock::now();
        c.k->spmm(ConstMatrixView(x.data(), c.k->cols(), c.p * batch),
                  MatrixView{y.data(), c.k->rows(), c.p * batch});
        const auto b = Clock::now();
        tracer.record(log, batch == 1 ? "sparse.spmm_b1" : "sparse.spmm_b8",
                      a, b);
        total += ms_between(a, b);
      }
      rounds.push_back(total);
    }
    return median(rounds);
  };
  p.spmm_b1_ms = time_spmm(1);
  p.spmm_b8_ms = time_spmm(8);
  return p;
}

// ---- after the passes -------------------------------------------------------
double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Open-loop latencies from due time to ready, in send order; a failed or
/// mismatched request is +inf.
std::vector<double> open_latencies(const PassResult& pr, const Plan& plan) {
  std::vector<double> v;
  for (std::int64_t s = 0; s < plan.open; ++s) {
    const Outcome& o = pr.outcomes[static_cast<std::size_t>(s)];
    v.push_back(o.done && o.ok && !o.mismatch
                    ? ms_between(pr.due[static_cast<std::size_t>(s)], o.ready)
                    : kFailedLatency);
  }
  return v;
}

/// The open-loop latencies of the reads due in the pass's quiet windows.
std::vector<double> quiet_latencies(const PassResult& pr, const Plan& plan) {
  const std::vector<double> all = open_latencies(pr, plan);
  const std::vector<bool> keep = quiet_windows(pr.window_steal);
  std::vector<double> v;
  for (std::size_t s = 0; s < all.size(); ++s) {
    const auto w = static_cast<std::size_t>((pr.due[s] - pr.begin) / kStealWindow);
    if (keep.empty() || keep[std::min(w, keep.size() - 1)]) v.push_back(all[s]);
  }
  return v;
}

std::vector<double> user_latencies(const PassResult& pr) {
  std::vector<double> v;
  for (const UserResult& u : pr.users)
    v.push_back(u.ok && !u.mismatch ? u.latency_ms : kFailedLatency);
  return v;
}

/// What verify_pass() found: operation counts, and the exact values of the
/// new tenants it checked.
struct Checked {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;  ///< failed, refused or mismatched
  std::vector<double> flops, delta_bytes;
};

/// Counts the pass's operations and compares every new tenant's first
/// response with its standalone reference, in parallel.
Checked verify_pass(PassResult& pr, const tenant::BaseArtifact& base,
                    const Fleet& fleet) {
  Checked c;
  c.flops.resize(pr.users.size());
  parallel_each(static_cast<std::int64_t>(pr.users.size()), [&](std::int64_t k) {
    UserResult& u = pr.users[static_cast<std::size_t>(k)];
    const Standalone ref = standalone(base, *u.delta, fleet.factory);
    c.flops[static_cast<std::size_t>(k)] = ref.flops.ratio();
    u.mismatch =
        u.ok && !bitwise_equal(u.output,
                               run_b1(*ref.model,
                                      fleet.samples[static_cast<std::size_t>(
                                          u.sample)]));
  });
  for (const UserResult& u : pr.users) {
    c.delta_bytes.push_back(static_cast<double>(u.delta->delta_bytes()));
    ++c.attempted;
    if (!u.ok || u.mismatch) ++c.failed;
  }
  for (const Outcome& o : pr.outcomes) {
    ++c.attempted;
    if (!o.done || !o.ok || o.mismatch) ++c.failed;
  }
  return c;
}

/// personalize must be a pure function of the seed: re-derives `user` on
/// a fresh copy of the base and compares the delta byte for byte.
bool reproducible(const tenant::MaskDelta& registered, std::int64_t user,
                  const Server& srv, const Fleet& fleet) {
  std::shared_ptr<nn::Sequential> model = fleet.factory();
  srv.packed->unpack_into(*model);
  const std::vector<LayerBlocks> layers = survey_blocks(*model);
  const core::SaliencyMap sal = core::estimate_saliency(
      *model,
      data::filter_classes(fleet.calibration,
                           fleet.users[static_cast<std::size_t>(user)]),
      user_saliency(user));
  drop_least_salient(*model, layers, sal);
  return serialized(tenant::MaskDelta::from_model(*srv.base, *model)) ==
         serialized(registered);
}

/// Every end-to-end metric but setup_s, from the last pass. Percentiles
/// are nearest-rank; the reads' pool the reads due in the pass's quiet
/// windows, the users' every user.
std::map<std::string, double> end_to_end(const Spec& spec,
                                         const PassResult& main,
                                         const Plan& plan,
                                         const Checked& checked) {
  std::map<std::string, double> m;
  const std::vector<double> reads = quiet_latencies(main, plan);
  m["serve_latency_p50_ms"] = percentile(reads, 0.50);
  m["serve_latency_p99_ms"] = percentile(reads, 0.99);
  m["latency_p99_ms"] = m["serve_latency_p99_ms"];
  if (spec.users_per_second > 0.0) {
    // Users are paced, so their completion rate is the pacing rate; the
    // throughput is the rate the operator sustains while it works.
    const std::vector<double> users = user_latencies(main);
    m["latency_p50_ms"] = percentile(users, 0.50);
    m["latency_p90_ms"] = percentile(users, 0.90);
    double busy_s = 0.0;
    for (const double l : users) busy_s += l / 1e3;
    m["throughput_rps"] = static_cast<double>(users.size()) / busy_s;
  } else {
    m["latency_p50_ms"] = m["serve_latency_p50_ms"];
    m["latency_p90_ms"] = percentile(reads, 0.90);
    Clock::time_point last = main.closed_begin;
    for (std::int64_t s = plan.open; s < plan.open + plan.closed; ++s)
      last = std::max(last, main.outcomes[static_cast<std::size_t>(s)].ready);
    m["throughput_rps"] = static_cast<double>(plan.closed) /
                          (ms_between(main.closed_begin, last) / 1e3);
  }
  const std::int64_t ops =
      plan.open + plan.closed + static_cast<std::int64_t>(plan.users.size());
  m["cpu_ms_per_op"] = main.cpu_s * 1e3 / static_cast<double>(ops);
  m["peak_rss_mib"] = main.rss_mib;
  m["delta_bytes"] = mean(checked.delta_bytes);
  m["flops_ratio"] = mean(checked.flops);
  return m;
}

/// The traced run's per-layer metrics (the set-up ones are added by the
/// caller): per-request figures from the traced pass, the rest from the
/// probe. Writes the spans to `trace_out` when it is set.
std::map<std::string, double> per_layer(
    const Spec& spec, const std::vector<PassResult>& passes,
    const std::vector<Plan>& plans, Server& srv, const Fleet& fleet,
    const std::vector<std::int64_t>& probe_cold, const DeltaMap& deltas,
    const std::string& trace_out) {
  const PassResult& b = passes.back();
  std::map<std::string, double> t;
  const auto submitted = b.router_after.submitted - b.router_before.submitted;
  t["tenant.hot_ratio"] =
      submitted == 0 ? 0.0
                     : static_cast<double>(b.router_after.hot -
                                           b.router_before.hot) /
                           static_cast<double>(submitted);
  std::vector<double> router_ms, queue_ms, run_ms;
  double batch_sum = 0.0;
  std::int64_t refused = 0;
  for (std::size_t s = 0; s < b.outcomes.size(); ++s) {
    const Outcome& o = b.outcomes[s];
    if (!o.ok) {
      ++refused;
      continue;
    }
    router_ms.push_back(ms_between(b.due[s], o.ready) - o.queue_ms - o.run_ms);
    queue_ms.push_back(o.queue_ms);
    run_ms.push_back(o.run_ms);
    batch_sum += static_cast<double>(o.batch);
  }
  t["tenant.router_ms_p50"] = pct(router_ms, 0.5);
  t["tenant.router_ms_p99"] = pct(router_ms, 0.99);
  t["tenant.compiles"] =
      static_cast<double>(b.store_after.compiles - b.store_before.compiles);
  t["tenant.evictions"] =
      static_cast<double>(b.store_after.evictions - b.store_before.evictions);
  t["tenant.engines_built"] = static_cast<double>(
      b.router_after.engines_built - b.router_before.engines_built);
  t["tenant.engines_retired"] = static_cast<double>(
      b.router_after.engines_retired - b.router_before.engines_retired);
  t["serve.queue_ms_p50"] = pct(queue_ms, 0.5);
  t["serve.queue_ms_p99"] = pct(queue_ms, 0.99);
  t["serve.run_ms_p50"] = pct(run_ms, 0.5);
  t["serve.run_ms_p99"] = pct(run_ms, 0.99);
  t["serve.batch_mean"] =
      queue_ms.empty() ? 0.0 : batch_sum / static_cast<double>(queue_ms.size());
  t["serve.refused"] = static_cast<double>(refused);
  t["bench.lag_ms_p99"] = pct(b.lag_ms, 0.99);
  auto primary_p50 = [&](std::size_t pi) {
    return spec.users_per_second > 0.0
               ? pct(user_latencies(passes[pi]), 0.5)
               : pct(quiet_latencies(passes[pi], plans[pi]), 0.5);
  };
  t["bench.trace_overhead_pct"] =
      100.0 * (primary_p50(passes.size() - 1) / primary_p50(0) - 1.0);

  // Personalization layers: from the traced pass on personalize, from a
  // probe of kProbeUsers users on fleet_hot.
  SpanLog probe_log;
  Tracer tracer(true);
  std::vector<UserResult> probe_users;
  const std::vector<UserResult>* users = &b.users;
  if (users->empty()) {
    srv.op_model = fleet.factory();
    srv.packed->unpack_into(*srv.op_model);
    std::vector<std::int64_t> ids;
    for (int u = 0; u < kProbeUsers; ++u) ids.push_back(u);
    personalize_users(srv, fleet, ids, "p", Clock::now(), 0.0, tracer,
                      probe_log, probe_users);
    users = &probe_users;
  }
  std::vector<double> sal, restrict_ms, from_model, reg, first;
  for (const UserResult& u : *users) {
    sal.push_back(u.saliency_ms);
    restrict_ms.push_back(u.restrict_ms);
    from_model.push_back(u.from_model_ms);
    reg.push_back(u.register_ms);
    first.push_back(u.first_ms);
  }
  t["core.saliency_ms_p50"] = pct(sal, 0.5);
  t["core.saliency_ms_p90"] = pct(sal, 0.9);
  t["core.restrict_ms_p50"] = pct(restrict_ms, 0.5);
  t["tenant.from_model_ms_p50"] = pct(from_model, 0.5);
  t["tenant.register_ms_p50"] = pct(reg, 0.5);
  t["tenant.first_response_ms_p50"] = pct(first, 0.5);

  const Probe p = probe_layers(srv, fleet, probe_cold, deltas, probe_log, tracer);
  t["tenant.acquire_cold_ms_p50"] = p.acquire_cold_ms_p50;
  t["nn.forward_b1_ms"] = p.forward_b1_ms;
  t["nn.forward_b8_ms"] = p.forward_b8_ms;
  t["nn.macs_per_sample"] = p.macs;
  t["nn.gmacs_b8"] = 8.0 * p.macs / (p.forward_b8_ms * 1e-3) / 1e9;
  t["sparse.spmm_b1_ms"] = p.spmm_b1_ms;
  t["sparse.spmm_b8_ms"] = p.spmm_b8_ms;
  t["sparse.payload_kib"] = p.payload_kib;

  if (!trace_out.empty()) {
    SpanLog all = b.spans;
    all.insert(all.end(), probe_log.begin(), probe_log.end());
    write_trace(trace_out, all, b.begin);
  }
  return t;
}

// ---- output -----------------------------------------------------------------
void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::map<std::string, double>& values, bool trace) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  bool first = true;
  auto emit = [&](const MetricDef& m) {
    auto it = values.find(m.name);
    if (it == values.end())
      throw std::logic_error(std::string("metric not computed: ") + m.name);
    const double v = std::isfinite(it->second) ? it->second : 1e300;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name, v, m.unit);
    first = false;
  };
  if (trace)
    for (const MetricDef& m : kPerLayer) emit(m);
  else
    for (const MetricDef& m : kEndToEnd) emit(m);
  std::printf("}}\n");
  std::fflush(stdout);
}

const Spec& find_spec(const std::string& name) {
  for (const Spec& s : kSpecs)
    if (name == s.name) return s;
  throw std::invalid_argument("unknown workload " + name);
}

}  // namespace

void print_metric_table() {
  auto list = [](const char* key, const auto& defs, bool last) {
    std::printf("  \"%s\": [", key);
    bool first = true;
    for (const MetricDef& m : defs) {
      std::printf("%s\n    {\"name\": \"%s\", \"unit\": \"%s\", \"better\": "
                  "\"%s\"}",
                  first ? "" : ",", m.name, m.unit, m.better);
      first = false;
    }
    std::printf("\n  ]%s\n", last ? "" : ",");
  };
  std::printf("{\n  \"workloads\": [");
  bool first = true;
  for (const Spec& s : kSpecs) {
    std::printf("%s\"%s\"", first ? "" : ", ", s.name);
    first = false;
  }
  std::printf("],\n");
  list("end_to_end", kEndToEnd, false);
  list("per_layer", kPerLayer, true);
  std::printf("}\n");
}

int run_workload(const RunArgs& args) {
  const Spec& spec = find_spec(args.workload);
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  const unsigned cores = std::thread::hardware_concurrency();
  const std::int64_t budgeted =
      spec.max_engines + (spec.users_per_second > 0.0 ? 1 : 0);
  if (cores != 0 && budgeted > static_cast<std::int64_t>(cores))
    std::fprintf(stderr,
                 "fleetbench: warning: %lld budgeted threads on %u cores\n",
                 static_cast<long long>(budgeted), cores);

  const Fleet fleet(args);
  std::vector<std::string> problems;

  // Seed-chosen hot set and the passes' plans.
  std::mt19937_64 rng(args.seed ^ 0x407ull);
  std::vector<std::int64_t> hot;
  while (static_cast<std::int64_t>(hot.size()) < spec.hot) {
    const auto t = static_cast<std::int64_t>(uniform_index(rng, kFleetTenants));
    if (std::find(hot.begin(), hot.end(), t) == hot.end()) hot.push_back(t);
  }
  std::vector<std::string> hot_ids;
  for (const std::int64_t t : hot) hot_ids.push_back(tenant_id(t));
  std::vector<Plan> plans;
  std::vector<bool> traced;
  if (args.trace) {
    plans.push_back(make_plan(spec, args.seed, args.seconds * kUntracedShare,
                              hot, 0));
    traced.push_back(false);
  }
  plans.push_back(make_plan(spec, args.seed + 1, args.seconds, hot,
                            plans.empty() ? 0 : 1000));
  traced.push_back(args.trace);
  for (const Plan& p : plans)
    if (!p.users.empty() &&
        p.users.back() >= static_cast<std::int64_t>(fleet.users.size()))
      throw std::invalid_argument("--seconds asks for more users than prepared");

  // The probe's cold tenants (none the passes touch) and fleet_hot's
  // exact sample.
  std::set<std::int64_t> taken(hot.begin(), hot.end());
  std::vector<std::int64_t> probe_cold;
  while (args.trace &&
         static_cast<std::int64_t>(probe_cold.size()) < kProbeColdTenants) {
    const auto t = static_cast<std::int64_t>(uniform_index(rng, kFleetTenants));
    if (taken.insert(t).second) probe_cold.push_back(t);
  }
  std::vector<std::int64_t> exact_sample;
  if (spec.users_per_second == 0.0) {
    exact_sample = hot;
    std::mt19937_64 sample_rng(args.seed ^ 0xE7AC7ull);
    while (static_cast<std::int64_t>(exact_sample.size()) < kExactSample) {
      const auto t =
          static_cast<std::int64_t>(uniform_index(sample_rng, kFleetTenants));
      if (std::find(exact_sample.begin(), exact_sample.end(), t) ==
          exact_sample.end())
        exact_sample.push_back(t);
    }
  }

  // The references' own copy of the base, and the hot tenants' standalone
  // outputs for every sample, built before the server exists. Only the hot
  // deltas are read now: deltas kept from a scan pin heap pages under the
  // measured peak RSS, so the rest are read after the passes.
  const auto ref_base = tenant::BaseArtifact::create(
      std::make_shared<const deploy::PackedModel>(
          deploy::PackedModel::load(fleet.paths.base)));
  HotRefs refs;
  {
    const DeltaMap hot_deltas =
        read_deltas(fleet.paths.shard, {hot.begin(), hot.end()});
    for (const std::int64_t t : hot) {
      const Standalone s = standalone(*ref_base, *hot_deltas.at(t), fleet.factory);
      for (const Tensor& x : fleet.samples) refs[t].push_back(run_b1(*s.model, x));
    }
  }

  // peak_rss_mib covers the server alone: the benchmark's own input
  // handling above is trimmed away and the high-water mark reset.
  malloc_trim(0);
  if (!reset_peak_rss())
    problems.push_back("cannot reset the peak-RSS mark (/proc/self/clear_refs)");

  // Set-up: the cold start, repeated; the last server before the passes
  // serves them.
  std::vector<double> setup_s, load_ms, shard_ms, warm_ms;
  std::int64_t resident_bytes = 0, loaded = 0, artifact_bytes = 0;
  std::unique_ptr<Server> srv;
  auto cold_starts = [&](int runs) {
    for (int r = 0; r < runs; ++r) {
      srv.reset();
      // Each cold start begins from a trimmed heap, as in a fresh process;
      // otherwise the previous server's freed pages stay mapped and every
      // repetition raises the high-water mark.
      malloc_trim(0);
      srv = cold_start(spec, fleet, hot_ids);
      if (!setup_s.empty() && (srv->resident_bytes != resident_bytes ||
                               srv->loaded != loaded ||
                               srv->artifact_bytes != artifact_bytes))
        problems.push_back("cold starts disagree on exact values");
      resident_bytes = srv->resident_bytes;
      loaded = srv->loaded;
      artifact_bytes = srv->artifact_bytes;
      setup_s.push_back(srv->seconds);
      load_ms.push_back(srv->load_ms);
      shard_ms.push_back(srv->load_shard_ms);
      warm_ms.push_back(srv->warm_ms);
      if (!srv->clean) problems.push_back("cold start: unclean shard or warm-up");
    }
  };
  cold_starts(kSetupRunsBefore);
  if (srv->loaded != fleet.manifest.tenants || srv->quarantined != 0)
    problems.push_back("shard: loaded/quarantined counts differ from inputs");
  if (srv->artifact_bytes != fleet.manifest.base_file_bytes)
    problems.push_back("base artifact size differs from inputs");
  if (srv->store->resident_bytes().deltas != fleet.manifest.fleet_delta_bytes)
    problems.push_back("resident delta bytes differ from inputs");

  std::vector<PassResult> passes;
  for (std::size_t i = 0; i < plans.size(); ++i)
    passes.push_back(run_pass(spec, *srv, fleet, plans[i], refs, traced[i],
                              i == 0 ? "" : "b"));
  std::set<std::int64_t> later(probe_cold.begin(), probe_cold.end());
  later.insert(exact_sample.begin(), exact_sample.end());
  const DeltaMap deltas =
      later.empty() ? DeltaMap{} : read_deltas(fleet.paths.shard, later);

  // Post-run checks against standalone references; the last pass's new
  // tenants (the fleet sample on fleet_hot) give the exact-valued metrics.
  std::int64_t attempted = 0, failed = 0;
  Checked checked;
  for (PassResult& pr : passes) {
    checked = verify_pass(pr, *ref_base, fleet);
    attempted += checked.attempted;
    failed += checked.failed;
  }
  if (spec.users_per_second == 0.0) {
    checked.flops.assign(exact_sample.size(), 0.0);
    parallel_each(static_cast<std::int64_t>(exact_sample.size()),
                  [&](std::int64_t k) {
                    const auto i = static_cast<std::size_t>(k);
                    checked.flops[i] = standalone(*ref_base,
                                                  *deltas.at(exact_sample[i]),
                                                  fleet.factory)
                                           .flops.ratio();
                  });
    checked.delta_bytes.clear();
    for (const std::int64_t t : exact_sample)
      checked.delta_bytes.push_back(
          static_cast<double>(deltas.at(t)->delta_bytes()));
  }
  if (failed > 0) {
    std::ostringstream msg;
    msg << failed << " failed or mismatched operations";
    problems.push_back(msg.str());
  }
  const PassResult& main = passes.back();
  const Plan& plan = plans.back();
  if (!main.users.empty() &&
      !reproducible(*main.users.front().delta, plan.users.front(), *srv, fleet))
    problems.push_back("personalization is not reproducible");

  std::map<std::string, double> m;
  try {
    m = end_to_end(spec, main, plan, checked);
  } catch (const std::invalid_argument& e) {
    problems.push_back(std::string("sample too small: ") + e.what());
    for (const MetricDef& d : kEndToEnd) m.emplace(d.name, 0.0);
  }
  if (args.trace)
    m = per_layer(spec, passes, plans, *srv, fleet, probe_cold, deltas,
                  args.trace_out);
  cold_starts(kSetupRunsAfter);
  m["setup_s"] = median(setup_s);
  if (args.trace) {
    m["deploy.load_ms"] = median(load_ms);
    m["deploy.artifact_kib"] = static_cast<double>(artifact_bytes) / 1024.0;
    m["tenant.load_shard_ms"] = median(shard_ms);
    m["tenant.warm_ms"] = median(warm_ms);
    m["tenant.resident_kib"] = static_cast<double>(resident_bytes) / 1024.0;
  }
  const std::int64_t ops = plan.open + plan.closed +
                           static_cast<std::int64_t>(plan.users.size());

  std::int64_t late = 0;
  std::vector<double> open_queue, open_run, user_lag;
  for (std::int64_t s = 0; s < plan.open; ++s) {
    const Outcome& o = main.outcomes[static_cast<std::size_t>(s)];
    late += o.late_pickup ? 1 : 0;
    open_queue.push_back(o.queue_ms);
    open_run.push_back(o.run_ms);
  }
  for (const UserResult& u : main.users) user_lag.push_back(u.lag_ms);
  const std::vector<bool> quiet = quiet_windows(main.window_steal);
  std::int64_t stolen = 0, stolen_kept = 0;
  std::string steal_list;
  for (std::size_t w = 0; w < quiet.size(); ++w) {
    stolen += main.window_steal[w];
    stolen_kept += quiet[w] ? main.window_steal[w] : 0;
    steal_list += (w == 0 ? "" : " ") + std::to_string(main.window_steal[w]);
  }
  std::fprintf(stderr,
               "fleetbench: steal per %lld ms window (ticks): %s; %lld of %zu "
               "windows kept, %lld ticks stolen in all, %lld in those kept\n",
               static_cast<long long>(kStealWindow.count()), steal_list.c_str(),
               static_cast<long long>(std::count(quiet.begin(), quiet.end(), true)),
               quiet.size(), static_cast<long long>(stolen),
               static_cast<long long>(stolen_kept));
  std::fprintf(stderr,
               "fleetbench: open loop p99: all reads %.3f ms, kept %.3f ms; "
               "lag %.3f ms, queue %.3f ms, run %.3f ms; users started late: "
               "p50 %.1f ms, max %.1f ms\n",
               pct(open_latencies(main, plan), 0.99),
               pct(quiet_latencies(main, plan), 0.99), pct(main.lag_ms, 0.99),
               pct(open_queue, 0.99),
               pct(open_run, 0.99), pct(user_lag, 0.5),
               user_lag.empty()
                   ? 0.0
                   : *std::max_element(user_lag.begin(), user_lag.end()));
  std::fprintf(stderr,
               "fleetbench: %s seed %llu: setup %.3f s (%.3f-%.3f; load %.2f "
               "ms, shard %.1f ms, warm %.1f ms), %lld ops, %lld of %lld "
               "open-loop completions picked up late\n",
               spec.name, static_cast<unsigned long long>(args.seed),
               median(setup_s),
               *std::min_element(setup_s.begin(), setup_s.end()),
               *std::max_element(setup_s.begin(), setup_s.end()),
               median(load_ms), median(shard_ms), median(warm_ms),
               static_cast<long long>(ops), static_cast<long long>(late),
               static_cast<long long>(plan.open));
  for (const std::string& p : problems)
    std::fprintf(stderr, "fleetbench: check failed: %s\n", p.c_str());
  print_result(problems.empty(), attempted, failed, m, args.trace);
  return problems.empty() ? 0 : 1;
}

}  // namespace fleetbench
