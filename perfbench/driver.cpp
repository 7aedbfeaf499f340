// perfbench driver: runs one benchmark workload in this process through
// the public scenario and chaos APIs, checks every output, and prints what
// it measured as one JSON line (the last line of stdout).
//
//   perfbench --workload bulk_tcp|paced_mpi|chaos_soak --seed N
//             --seconds S --golden FILE --references FILE
//             [--print-params | --record]
//
// A pass runs every item of the workload once: a catalog scenario is
// built, simulated, checked and exported; a chaos batch is one
// ChaosRunner::runSeeds call. Passes repeat until --seconds is used up (at
// least one pass). wall_s is the sum over items of each item's median
// host time, so one noisy item in one pass does not move it. setup_s is
// the median over kSetupReps repetitions of the whole workload's set-up.
// Both are expressed at the reference host speed measured by HostProbe.
//
// --print-params prints the items the seed draws and exits. --record runs
// every parameter variant (or chaos seed) once and prints reference rows
// for references.txt.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/runner.hpp"
#include "net/buffer.hpp"
#include "obs/export.hpp"
#include "scenario/builder.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "trace.hpp"
#include "util/logging.hpp"

namespace {

using namespace mgq;
namespace trace = perfbench::trace;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// --------------------------------------------------------------------------
// Workloads
// --------------------------------------------------------------------------

/// The seed that runs the catalog specs exactly as registered, so its
/// digests are the golden catalog's rows.
constexpr std::uint64_t kDefaultSeed = 1;
/// Set-up is ~0.1 ms per scenario; repeating it gives a stable median.
constexpr int kSetupReps = 201;

/// One parameter a seed may redraw, over a grid from the paper.
struct Grid {
  std::string key;
  std::vector<double> values;
};

struct CatalogEntry {
  std::string scenario;
  Grid grid;  // empty key: always run as registered
};

/// One catalog run of a pass: a registered scenario plus the parameter
/// value the seed drew for it.
struct Item {
  std::string scenario;
  std::string key;
  double value = 0.0;

  std::string variant() const {
    return key.empty() ? scenario
                       : scenario + "/" + key + "=" +
                             scenario::paramValueLabel(value);
  }
};

// Figure 1 reserves 40 Mb/s for a 50 Mb/s TCP flow; the grid keeps the
// reservation under the offered load. (Any reservation above it, as in
// fig1_adequate, gives byte-identical output, so that one is not drawn.)
const Grid kFig1UnderGrid{"flow_rate_bps", {35e6, 40e6, 45e6}};
// Figure 5's message sizes, 8/40/80/120 Kb.
const Grid kMessageGrid{"message_bytes", {1'000, 5'000, 10'000, 15'000}};
// Figure 6's frame sizes, 5/10/20/30 KB.
const Grid kFrameGrid{"frame_bytes", {5'000, 10'000, 20'000, 30'000}};

const std::vector<CatalogEntry>& catalogWorkload(const std::string& name) {
  // Policed and shaped bulk TCP: payload bytes, checksums, stream rings
  // and RTO churn carry the load.
  static const std::vector<CatalogEntry> bulk_tcp = {
      {"fig1_under", kFig1UnderGrid},
      {"fig1_adequate", {}},
      {"adapt_two_tenant_tradeoff", {}},
  };
  // Small and paced MPI messages under saturating UDP contention: the
  // event kernel and forwarding carry the load; tcp payload is minor.
  static const std::vector<CatalogEntry> paced_mpi = {
      {"fig5_pingpong", kMessageGrid},
      {"fig6_visualization", kFrameGrid},
      {"table1_probe", {}},
      {"fig8_cpu_reservation", {}},
      {"fig9_combined", {}},
      {"ablation_latency_ll", {}},
  };
  static const std::vector<CatalogEntry> none;
  if (name == "bulk_tcp") return bulk_tcp;
  if (name == "paced_mpi") return paced_mpi;
  return none;
}

std::vector<Item> drawItems(const std::vector<CatalogEntry>& entries,
                            std::uint64_t seed) {
  std::vector<Item> items;
  for (const auto& e : entries) {
    Item item{e.scenario, {}, 0.0};
    if (seed != kDefaultSeed && !e.grid.key.empty()) {
      const std::uint64_t h =
          splitmix64(seed ^ obs::fnv1a64(e.scenario + "/" + e.grid.key));
      item.key = e.grid.key;
      item.value = e.grid.values[h % e.grid.values.size()];
    }
    items.push_back(item);
  }
  return items;
}

std::vector<Item> allVariants(const std::vector<CatalogEntry>& entries) {
  std::vector<Item> items;
  for (const auto& e : entries) {
    for (double v : e.grid.values) items.push_back({e.scenario, e.grid.key, v});
  }
  return items;
}

scenario::ScenarioSpec makeSpec(const Item& item) {
  const auto* info = scenario::ScenarioRegistry::paper().find(item.scenario);
  if (info == nullptr) {
    throw std::runtime_error("unknown scenario " + item.scenario);
  }
  auto spec = info->make();
  if (!item.key.empty() && !scenario::applyParam(spec, item.key, item.value)) {
    throw std::runtime_error("parameter does not apply: " + item.variant());
  }
  return spec;
}

// Chaos soak: the crash/restart scenario under the default fault profile
// plus every control-plane and adversarial wire category.
const std::string kChaosScenario = "fault_recovery_crash";
constexpr int kChaosSeeds = 20;
constexpr int kChaosBatch = 5;  // seeds per runSeeds call (one item)
constexpr double kChaosHorizon = 20.0;

chaos::ChaosOptions chaosOptions() {
  chaos::ChaosOptions o;
  o.horizon_seconds = kChaosHorizon;
  o.threads = 1;
  o.profile.agent_crashes_per_100s = 20.0;
  o.profile.renewal_storms_per_100s = 20.0;
  o.profile.corruption_episodes_per_100s = 20.0;
  o.profile.duplicate_episodes_per_100s = 20.0;
  o.profile.reorder_episodes_per_100s = 20.0;
  o.profile.partition_episodes_per_100s = 10.0;
  return o;
}

// --------------------------------------------------------------------------
// References
// --------------------------------------------------------------------------

struct Digest {
  std::uint64_t events = 0;
  std::uint64_t hash = 0;
  bool operator==(const Digest&) const = default;
};

struct References {
  std::map<std::string, Digest> catalog;  // scenario or variant name
  std::map<std::uint64_t, std::uint64_t> chaos;  // chaos seed -> log hash
};

/// Golden rows ("name events hash") and references.txt rows, which add
/// "variant events hash" and "chaos <scenario> <seed> <hash>".
void loadReferences(const std::string& path, References& refs) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string name;
    ss >> name;
    if (name == "chaos") {
      std::string scenario;
      std::uint64_t seed = 0, hash = 0;
      ss >> scenario >> seed >> std::hex >> hash;
      if (!ss.fail() && scenario == kChaosScenario) refs.chaos[seed] = hash;
      continue;
    }
    Digest d;
    ss >> d.events >> std::hex >> d.hash;
    if (!ss.fail()) refs.catalog[name] = d;
  }
}

// --------------------------------------------------------------------------
// Counts read from public stats after each run
// --------------------------------------------------------------------------

struct Counts {
  std::uint64_t events = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t drops_policed = 0;
  std::uint64_t drops_overflow = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_received = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t checksum_drops = 0;
  std::uint64_t resets = 0;
  std::uint64_t pool_allocations = 0;
  std::uint64_t pool_fresh = 0;
  std::int64_t pool_high_water_bytes = 0;
  std::uint64_t injector_fired = 0;
  double export_s = 0.0;
  std::uint64_t export_bytes = 0;

  void add(const Counts& o) {
    events += o.events;
    tx_packets += o.tx_packets;
    drops_policed += o.drops_policed;
    drops_overflow += o.drops_overflow;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    segments_sent += o.segments_sent;
    segments_received += o.segments_received;
    retransmits += o.retransmits;
    timeouts += o.timeouts;
    checksum_drops += o.checksum_drops;
    resets += o.resets;
    pool_allocations += o.pool_allocations;
    pool_fresh += o.pool_fresh;
    pool_high_water_bytes =
        std::max(pool_high_water_bytes, o.pool_high_water_bytes);
    injector_fired += o.injector_fired;
    export_s += o.export_s;
    export_bytes += o.export_bytes;
  }
};

/// Reads the rig's counters while it is still alive. TCP stats cover the
/// sockets a BuiltScenario exposes: MPI world connections, the
/// offered-load receiver and the adaptive tenants' sockets. The
/// offered-load sender lives inside its coroutine; only its timeouts are
/// exposed (BuiltScenario::tcp_timeouts).
Counts snapshot(scenario::BuiltScenario& b,
                const net::BufferPoolStats& pool_before) {
  Counts c;
  c.events = b.rig.sim.eventsExecuted();
  for (const auto& node : b.rig.garnet.network.nodes()) {
    for (const auto& iface : node->interfaces()) {
      const auto& s = iface->stats();
      c.tx_packets += s.tx_packets;
      c.drops_policed += s.drops_policed;
      c.drops_overflow += s.drops_overflow;
      const auto& p = iface->ingressPolicy().stats();
      c.cache_hits += p.cache_hits;
      c.cache_misses += p.cache_misses;
    }
  }
  std::vector<const tcp::TcpSocket*> sockets;
  for (int src = 0; src < 2; ++src) {
    for (int dst = 0; dst < 2; ++dst) {
      if (src == dst) continue;
      if (auto* s = b.rig.world.connectionSocket(src, dst)) sockets.push_back(s);
    }
  }
  if (b.receiver != nullptr) sockets.push_back(b.receiver);
  if (b.adapt != nullptr) {
    for (const auto& t : b.adapt->tenants) {
      if (t->socket != nullptr) sockets.push_back(t->socket.get());
      if (t->receiver != nullptr) sockets.push_back(t->receiver);
    }
  }
  for (const auto* s : sockets) {
    const auto& st = s->stats();
    c.segments_sent += st.segments_sent;
    c.segments_received += st.segments_received;
    c.retransmits += st.retransmits;
    c.timeouts += st.timeouts;
    c.checksum_drops += st.checksum_drops;
    c.resets += st.resets;
  }
  c.timeouts += b.tcp_timeouts;
  const auto& pool = net::BufferPool::local().stats();
  c.pool_allocations = pool.allocations - pool_before.allocations;
  c.pool_fresh = pool.fresh - pool_before.fresh;
  c.pool_high_water_bytes = pool.high_water_bytes;
  return c;
}

// --------------------------------------------------------------------------
// Runs
// --------------------------------------------------------------------------

struct RunOutcome {
  std::string name;  // variant, or "chaos seed N"
  Digest digest;
  bool ok = true;
  std::string why;  // first failed check
  Counts counts;
};

void fail(RunOutcome& r, const std::string& why) {
  if (r.ok) r.why = why;
  r.ok = false;
}

/// Builds, simulates, checks and exports one catalog item.
RunOutcome runCatalogItem(const Item& item, const References& refs) {
  RunOutcome out;
  out.name = item.variant();
  const auto spec = makeSpec(item);
  net::BufferPoolStats pool_before;
  scenario::RunHooks hooks;
  hooks.on_built = [&](scenario::BuiltScenario&) {
    pool_before = net::BufferPool::local().stats();
  };
  hooks.before_teardown = [&](scenario::BuiltScenario& b) {
    out.counts = snapshot(b, pool_before);
  };
  scenario::ScenarioRunner runner;
  {
    const auto result = runner.run(spec, hooks);
    const auto t0 = Clock::now();
    const auto json =
        obs::renderMultiRunJson(item.scenario, scenario::runExports({result}));
    out.counts.export_s = secondsSince(t0);
    out.counts.export_bytes = json.size();
    out.digest = {result.events_executed, obs::fnv1a64(json)};
    if (!result.checksPassed()) fail(out, "a spec check failed");
  }
  if (net::BufferPool::totalLive() != 0) fail(out, "payload buffers leaked");
  const auto ref = refs.catalog.find(out.name);
  if (ref == refs.catalog.end()) {
    fail(out, "no reference digest");
  } else if (!(ref->second == out.digest)) {
    fail(out, "digest differs from its reference");
  }
  return out;
}

/// One runSeeds call over [first, first + count).
std::vector<RunOutcome> runChaosBatch(std::uint64_t first, int count,
                                      const References& refs) {
  // runSeeds exposes no teardown hook, but ScenarioRunner::run reads
  // BuiltScenario::deliveredBytes() once more after its teardown hooks,
  // while the rig is alive: the last call sees each seed's final state.
  std::vector<Counts> per_seed;
  auto options = chaosOptions();
  options.prepare = [&per_seed](scenario::BuiltScenario& b,
                                chaos::ChaosTargets&) {
    const std::size_t index = per_seed.size();
    per_seed.emplace_back();
    auto delivered = std::move(b.delivered_fn);
    const auto pool_before = net::BufferPool::local().stats();
    b.delivered_fn = [&b, &per_seed, index, pool_before,
                      delivered = std::move(delivered)]() -> std::int64_t {
      per_seed[index] = snapshot(b, pool_before);
      return delivered ? delivered() : 0;
    };
  };
  const chaos::ChaosRunner runner;
  const auto outcome = runner.runSeeds(kChaosScenario, first, count, options);

  std::vector<RunOutcome> outs;
  for (std::size_t i = 0; i < outcome.reports.size(); ++i) {
    const auto& report = outcome.reports[i];
    RunOutcome out;
    out.name = "chaos seed " + std::to_string(report.plan.seed);
    out.digest.hash = obs::fnv1a64(report.log);
    if (i < per_seed.size()) out.counts = per_seed[i];
    out.digest.events = out.counts.events;
    out.counts.injector_fired = report.injector_fired;
    if (!report.ok()) fail(out, report.violations.front().name);
    const auto ref = refs.chaos.find(report.plan.seed);
    if (ref != refs.chaos.end() && ref->second != out.digest.hash) {
      fail(out, "chaos log differs from its reference");
    }
    outs.push_back(std::move(out));
  }
  for (int i = static_cast<int>(outs.size()); i < count; ++i) {
    RunOutcome out;  // the sweep stopped at an earlier violation
    out.name = "chaos seed " + std::to_string(first + i);
    fail(out, "not run");
    outs.push_back(std::move(out));
  }
  if (net::BufferPool::totalLive() != 0) {
    for (auto& o : outs) fail(o, "payload buffers leaked");
  }
  return outs;
}

/// Registry lookup, make(), applyParam and ScenarioBuilder::build for
/// every item (chaos: plus plan generation and the chaos spec rewrite).
double setupSeconds(const std::string& workload,
                    const std::vector<Item>& items, std::uint64_t seed) {
  scenario::ScenarioBuilder builder;
  double total = 0.0;
  if (workload != "chaos_soak") {
    for (const auto& item : items) {
      const auto t0 = Clock::now();
      auto built = builder.build(makeSpec(item));
      total += secondsSince(t0);
    }
    return total;
  }
  const auto options = chaosOptions();
  const chaos::ChaosPlanGenerator generator(options.profile);
  for (int i = 0; i < kChaosSeeds; ++i) {
    const auto t0 = Clock::now();
    const auto plan =
        generator.generate(kChaosScenario, seed + i, options.horizon_seconds);
    auto spec = makeSpec({kChaosScenario, {}, 0.0});
    // As ChaosRunner::runPlan prepares it.
    spec.seed = plan.seed;
    spec.faults.clear();
    spec.checks.clear();
    spec.agent_crashes.clear();
    spec.run_until_seconds = plan.horizon_seconds;
    spec.observe = true;
    auto built = builder.build(spec);
    total += secondsSince(t0);
  }
  return total;
}

// --------------------------------------------------------------------------
// Host-speed probe
// --------------------------------------------------------------------------

/// A frozen miniature discrete-event loop: a binary heap of 32K pending
/// events, each of which touches one of 64K 32-byte node records (2 MB),
/// hashes it and schedules a successor. Shared hosts slow down by 10-35%
/// for minutes at a time as neighbours contend for the core's caches, and
/// the simulator slows with them (CPU time equals wall time: no steal).
/// The benchmark runs this loop between items and reports host times at
/// the loop's reference speed. The loop is benchmark code, so no change to
/// the simulator can move it.
class HostProbe {
 public:
  /// Median loop time on the host that recorded the baseline.
  static constexpr double kReferenceSeconds = 0.003;
  static constexpr std::size_t kResidentBytes = (std::size_t{64} << 10) * 32 +
                                                (std::size_t{32} << 10) * 16;

  HostProbe() : nodes_(kNodes) {
    heap_.reserve(kEvents);
    std::uint64_t x = 1;
    for (std::uint32_t i = 0; i < kEvents; ++i) {
      x = splitmix64(x);
      heap_.push_back({x % 1'000'000, static_cast<std::uint32_t>(x >> 40) % kNodes});
    }
    std::make_heap(heap_.begin(), heap_.end(), Later{});
  }

  void sample() {
    for (int r = 0; r < 3; ++r) {
      const auto t0 = Clock::now();
      for (int k = 0; k < kStepsPerSample; ++k) step();
      samples_.push_back(secondsSince(t0));
    }
  }

  /// Multiplier that turns this run's host seconds into reference seconds.
  double scale() const { return kReferenceSeconds / median(samples_); }
  double medianSeconds() const { return median(samples_); }

 private:
  struct Event {
    std::uint64_t at;
    std::uint32_t node;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const { return a.at > b.at; }
  };
  struct Node {
    std::uint64_t state[4];
  };
  static constexpr std::uint32_t kNodes = 64 << 10;
  static constexpr std::uint32_t kEvents = 32 << 10;
  static constexpr int kStepsPerSample = 20'000;

  void step() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event e = heap_.back();
    Node& n = nodes_[e.node];
    const std::uint64_t h = splitmix64(n.state[0] ^ e.at);
    n.state[h & 3] += h;
    e.at += 1 + (h >> 54);
    e.node = static_cast<std::uint32_t>(h >> 8) % kNodes;
    heap_.back() = e;
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  std::vector<Node> nodes_;
  std::vector<Event> heap_;
  std::vector<double> samples_;
};

// --------------------------------------------------------------------------
// Output
// --------------------------------------------------------------------------

std::string hostCpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

double peakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Per-layer numbers from the traced passes, each divided by `passes`.
struct LayerTotals {
  std::map<std::string, double> self_s;  // per layer
  std::map<std::string, double> calls;   // per layer
  std::vector<trace::Cell> cells;        // per boundary, summed
  double collect_s = 0.0;
};

LayerTotals sumTrace(const std::vector<trace::RunRecord>& records,
                     int passes) {
  const auto& bounds = trace::boundaries();
  LayerTotals t;
  t.cells.resize(bounds.size());
  for (const auto& r : records) {
    t.collect_s += r.collect_ns * 1e-9 / passes;
    for (std::size_t i = 0; i < r.cells.size() && i < bounds.size(); ++i) {
      t.cells[i].calls += r.cells[i].calls;
      t.cells[i].incl_ns += r.cells[i].incl_ns;
      t.cells[i].self_ns += r.cells[i].self_ns;
    }
  }
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    t.self_s[bounds[i].layer] += t.cells[i].self_ns * 1e-9 / passes;
    t.calls[bounds[i].layer] += static_cast<double>(t.cells[i].calls) / passes;
  }
  return t;
}

/// Sums over the boundaries whose name starts with one of `prefixes`.
trace::Cell sumCells(const LayerTotals& t,
                     const std::vector<std::string>& prefixes) {
  trace::Cell sum;
  const auto& bounds = trace::boundaries();
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    for (const auto& p : prefixes) {
      if (bounds[i].name.rfind(p, 0) == 0) {
        sum.calls += t.cells[i].calls;
        sum.incl_ns += t.cells[i].incl_ns;
        sum.self_ns += t.cells[i].self_ns;
        break;
      }
    }
  }
  return sum;
}

void printLayerTable(const std::string& workload, const LayerTotals& t,
                     double run_s, double wall_s) {
  std::printf("\nper-layer host time, %s (traced, per pass)\n",
              workload.c_str());
  std::printf("%-9s %14s %10s %8s\n", "layer", "calls", "self_s",
              "of_wall");
  for (const auto& [layer, self] : t.self_s) {
    std::printf("%-9s %14.0f %10.4f %7.1f%%\n", layer.c_str(),
                t.calls.at(layer), self,
                wall_s > 0 ? 100.0 * self / wall_s : 0.0);
  }
  std::printf("(sim.run_s %.4f s; traced pass %.4f s)\n", run_s, wall_s);
  std::printf("%-9s %-38s %14s %10s %10s\n", "layer", "boundary", "calls",
              "incl_s", "self_s");
  const auto& bounds = trace::boundaries();
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (t.cells[i].calls == 0) continue;
    std::printf("%-9s %-38s %14" PRIu64 " %10.4f %10.4f%s\n",
                bounds[i].layer.c_str(), bounds[i].name.c_str(),
                t.cells[i].calls, t.cells[i].incl_ns * 1e-9,
                t.cells[i].self_ns * 1e-9, bounds[i].timed ? "" : " (count)");
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  std::string golden;
  std::string references;
  bool print_params = false;
  bool record = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload bulk_tcp|paced_mpi|chaos_soak --seed N\n"
               "          --seconds S --golden FILE --references FILE\n"
               "          [--print-params | --record]\n",
               argv0);
  return 2;
}

int record(const Args& a, const References& refs) {
  if (a.workload == "chaos_soak") {
    for (const auto& o : runChaosBatch(a.seed, kChaosSeeds, refs)) {
      if (!o.ok && o.why != "chaos log differs from its reference") {
        std::fprintf(stderr, "%s: %s\n", o.name.c_str(), o.why.c_str());
        return 1;
      }
      std::printf("chaos %s %s %016" PRIx64 "\n", kChaosScenario.c_str(),
                  o.name.substr(o.name.rfind(' ') + 1).c_str(), o.digest.hash);
    }
    return 0;
  }
  for (const auto& item : allVariants(catalogWorkload(a.workload))) {
    const auto o = runCatalogItem(item, refs);
    if (!o.ok && o.why != "no reference digest" &&
        o.why != "digest differs from its reference") {
      std::fprintf(stderr, "%s: %s\n", o.name.c_str(), o.why.c_str());
    }
    std::printf("%s %" PRIu64 " %016" PRIx64 "\n", o.name.c_str(),
                o.digest.events, o.digest.hash);
  }
  return 0;
}

int run(const Args& a) {
  References refs;
  loadReferences(a.golden, refs);
  loadReferences(a.references, refs);

  const bool chaos_workload = a.workload == "chaos_soak";
  const auto& entries = catalogWorkload(a.workload);
  if (!chaos_workload && entries.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const auto items = drawItems(entries, a.seed);

  if (a.print_params) {
    if (chaos_workload) {
      std::printf("%s seeds %" PRIu64 "..%" PRIu64 "\n",
                  kChaosScenario.c_str(), a.seed, a.seed + kChaosSeeds - 1);
    }
    for (const auto& item : items) std::printf("%s\n", item.variant().c_str());
    return 0;
  }
  if (a.record) return record(a, refs);

  (void)trace::boundaries();  // traced build: verify the wrap table first

  HostProbe probe;
  probe.sample();

  // Set-up, repeated; the first repetition also warms the registry.
  std::vector<double> setups;
  for (int r = 0; r < kSetupReps; ++r) {
    setups.push_back(setupSeconds(a.workload, items, a.seed));
  }
  const double setup_raw_s = median(setups);
  probe.sample();
  (void)trace::take();  // set-up calls are not part of the passes

  const int item_count =
      chaos_workload ? kChaosSeeds / kChaosBatch : static_cast<int>(items.size());
  std::vector<std::vector<double>> item_seconds(item_count);

  std::map<std::string, Digest> first_digest;
  Counts totals;
  int passes = 0;
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t events_per_pass = 0;
  const auto loop_start = Clock::now();
  for (;;) {
    const auto pass_start = Clock::now();
    std::uint64_t pass_events = 0;
    for (int i = 0; i < item_count; ++i) {
      const auto t0 = Clock::now();
      std::vector<RunOutcome> outs;
      if (chaos_workload) {
        outs = runChaosBatch(a.seed + static_cast<std::uint64_t>(i) * kChaosBatch,
                             kChaosBatch, refs);
      } else {
        outs.push_back(runCatalogItem(items[i], refs));
      }
      item_seconds[i].push_back(secondsSince(t0));
      probe.sample();

      for (auto& o : outs) {
        // Every pass must reproduce the first pass exactly.
        const auto [it, inserted] = first_digest.emplace(o.name, o.digest);
        if (!inserted && !(it->second == o.digest)) {
          fail(o, "differs from an earlier pass");
        }
        ++attempted;
        if (!o.ok) {
          ++failed;
          std::printf("FAIL %s: %s\n", o.name.c_str(), o.why.c_str());
        }
        pass_events += o.counts.events;
        totals.add(o.counts);
      }
    }
    ++passes;
    events_per_pass = pass_events;
    // Stop before a pass that would end past --seconds.
    if (secondsSince(loop_start) + secondsSince(pass_start) > a.seconds) break;
  }
  const auto records = trace::take();

  // A drawn variant can simulate more or fewer events than the registered
  // spec (fig1_under at 35 Mb/s runs 17% fewer). Each catalog item's time
  // is scaled to its registered spec's event count, both taken from the
  // reference tables, so every seed measures the same amount of simulation.
  double raw_wall_s = 0.0;
  std::map<std::string, double> item_medians;
  for (int i = 0; i < item_count; ++i) {
    double scale = 1.0;
    std::string name = "chaos batch " + std::to_string(i);
    if (!chaos_workload) {
      name = items[i].variant();
      const auto base = refs.catalog.find(items[i].scenario);
      const auto drawn = refs.catalog.find(name);
      if (base != refs.catalog.end() && drawn != refs.catalog.end() &&
          drawn->second.events > 0) {
        scale = static_cast<double>(base->second.events) /
                static_cast<double>(drawn->second.events);
      }
    }
    item_medians[name] = median(item_seconds[i]);
    raw_wall_s += scale * item_medians[name];
  }

  std::map<std::string, double> m;
  const double n = passes;
  m["wall_s"] = raw_wall_s * probe.scale();
  m["setup_s"] = setup_raw_s * probe.scale();
  // The probe's tables are resident for the whole run.
  m["peak_rss_mb"] = peakRssMb() - HostProbe::kResidentBytes / 1048576.0;
  m["host.raw_wall_s"] = raw_wall_s;
  m["host.probe_ms"] = probe.medianSeconds() * 1e3;
  m["failed_ratio"] = static_cast<double>(failed) / static_cast<double>(attempted);
  m["sim.events"] = static_cast<double>(events_per_pass);
  m["net.tx_packets"] = totals.tx_packets / n;
  m["net.drops_policed"] = totals.drops_policed / n;
  m["net.drops_overflow"] = totals.drops_overflow / n;
  const double lookups = static_cast<double>(totals.cache_hits + totals.cache_misses);
  m["net.policy_cache_hit_ratio"] = lookups > 0 ? totals.cache_hits / lookups : 0.0;
  m["net.pool_allocations"] = totals.pool_allocations / n;
  m["net.pool_fresh_ratio"] =
      totals.pool_allocations > 0
          ? static_cast<double>(totals.pool_fresh) / totals.pool_allocations
          : 0.0;
  m["net.pool_high_water_bytes"] = static_cast<double>(totals.pool_high_water_bytes);
  m["tcp.segments_sent"] = totals.segments_sent / n;
  m["tcp.segments_received"] = totals.segments_received / n;
  m["tcp.retransmits"] = totals.retransmits / n;
  m["tcp.timeouts"] = totals.timeouts / n;
  m["tcp.checksum_drops"] = totals.checksum_drops / n;
  m["tcp.resets"] = totals.resets / n;
  m["chaos.injector_fired"] = totals.injector_fired / n;
  m["obs.export_s"] = totals.export_s / n;
  m["obs.export_bytes"] = totals.export_bytes / n;

  std::uint64_t pop_mismatches = 0;
  if (trace::enabled()) {
    const auto t = sumTrace(records, passes);
    const auto cell = [&](std::vector<std::string> names) {
      return sumCells(t, names);
    };
    const auto run_until = cell({"Simulator::runUntil"});
    const double run_s = run_until.incl_ns * 1e-9 / n;
    const auto queue = cell({"EventQueue::"});
    m["scenario.build_s"] = cell({"ScenarioBuilder::build"}).incl_ns * 1e-9 / n;
    m["scenario.collect_s"] = t.collect_s;
    m["sim.run_s"] = run_s;
    m["sim.ns_per_event"] =
        events_per_pass > 0 ? run_s * 1e9 / events_per_pass : 0.0;
    m["sim.queue_calls"] = queue.calls / n;
    m["sim.queue_self_s"] = queue.self_ns * 1e-9 / n;
    m["sim.unattributed_s"] = run_until.self_ns * 1e-9 / n;
    const auto pass_through = cell({"DsQdisc::passThrough"});
    const auto enqueue = cell({"DsQdisc::enqueue"});
    const double admissions =
        static_cast<double>(pass_through.calls + enqueue.calls);
    m["net.passthrough_ratio"] =
        admissions > 0 ? pass_through.calls / admissions : 0.0;
    m["net.send_self_s"] =
        cell({"Interface::send", "Host::sendPacket"}).self_ns * 1e-9 / n;
    m["net.policy_self_s"] = cell({"DsPolicy::process"}).self_ns * 1e-9 / n;
    m["net.qdisc_self_s"] = cell({"DsQdisc::"}).self_ns * 1e-9 / n;
    const auto checksum = cell({"tcpWireChecksum"});
    m["tcp.checksum_calls"] = checksum.calls / n;
    m["tcp.checksum_self_s"] = checksum.self_ns * 1e-9 / n;
    m["tcp.ring_self_s"] = cell({"StreamRing::"}).self_ns * 1e-9 / n;
    m["mpi.deliver_calls"] = cell({"MatchingEngine::deliver"}).calls / n;
    m["mpi.self_s"] = t.self_s.count("mpi") ? t.self_s.at("mpi") : 0.0;
    m["cpu.compute_calls"] = cell({"CpuScheduler::compute"}).calls / n;
    m["gara.calls"] = t.calls.count("gara") ? t.calls.at("gara") : 0.0;
    for (const char* layer : {"gara", "gq", "adapt", "resil"}) {
      m[std::string(layer) + ".self_s"] =
          t.self_s.count(layer) ? t.self_s.at(layer) : 0.0;
    }
    m["chaos.generate_s"] =
        cell({"ChaosPlanGenerator::generate"}).incl_ns * 1e-9 / n;
    const auto sweep = cell({"InvariantMonitor::sweep"});
    m["chaos.sweeps"] = sweep.calls / n;
    m["chaos.sweep_self_s"] = sweep.self_ns * 1e-9 / n;
    m["trace.coverage_ratio"] =
        run_until.incl_ns > 0
            ? 1.0 - static_cast<double>(run_until.self_ns) / run_until.incl_ns
            : 0.0;

    // Interposition is faithful only if every executed event was popped
    // through the wrapper exactly once.
    std::size_t pop_index = 0;
    const auto& bounds = trace::boundaries();
    while (pop_index < bounds.size() && bounds[pop_index].name != "EventQueue::pop") {
      ++pop_index;
    }
    for (const auto& r : records) {
      if (r.label.empty()) continue;
      const std::uint64_t pops =
          pop_index < r.cells.size() ? r.cells[pop_index].calls : 0;
      if (pops != r.events) {
        ++pop_mismatches;
        std::printf("FAIL %s: %" PRIu64 " wrapped pops, %" PRIu64 " events\n",
                    r.label.c_str(), pops, r.events);
      }
    }
    failed += pop_mismatches;
    printLayerTable(a.workload, t, run_s, raw_wall_s);
  }

  std::printf("\n%s seed %" PRIu64 ": %d pass(es), %" PRIu64
              " run(s), %" PRIu64 " failed\n",
              a.workload.c_str(), a.seed, passes, attempted, failed);
  std::printf(
      "{\"workload\": %s, \"seed\": %" PRIu64 ", \"traced\": %s, "
      "\"passes\": %d, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"pop_mismatches\": %" PRIu64 ", "
      "\"host\": {\"cpu\": %s, \"compiler\": %s, \"build_type\": %s}, "
      "\"items\": {",
      jsonString(a.workload).c_str(), a.seed,
      trace::enabled() ? "true" : "false", passes, attempted, failed,
      pop_mismatches, jsonString(hostCpuModel()).c_str(),
      jsonString("GCC " __VERSION__).c_str(),
      jsonString(PERFBENCH_BUILD_TYPE).c_str());
  const char* sep = "";
  for (const auto& [name, seconds] : item_medians) {
    std::printf("%s%s: %s", sep, jsonString(name).c_str(),
                jsonNumber(seconds).c_str());
    sep = ", ";
  }
  std::printf("}, \"metrics\": {");
  sep = "";
  for (const auto& [name, value] : m) {
    std::printf("%s%s: %s", sep, jsonString(name).c_str(),
                jsonNumber(value).c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--golden" && has_value) {
      a.golden = argv[++i];
    } else if (arg == "--references" && has_value) {
      a.references = argv[++i];
    } else if (arg == "--print-params") {
      a.print_params = true;
    } else if (arg == "--record") {
      a.record = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (a.workload.empty() || a.golden.empty() || a.references.empty()) {
    return usage(argv[0]);
  }
  // Chaos seeds log hundreds of expected warnings; keep them off the
  // measured path.
  util::setLogLevel(util::LogLevel::kError);
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
