#include "scenario/suites.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "obs/export.hpp"
#include "scenario/catalog.hpp"
#include "scenario/registry.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace mgq::scenario {
namespace {

using Results = std::vector<ScenarioResult>;
using util::Table;

/// The named registry spec; a missing name is a programming error.
ScenarioSpec paperSpec(const std::string& name) {
  const auto* info = ScenarioRegistry::paper().find(name);
  if (info == nullptr) {
    std::cerr << "suite: scenario '" << name << "' is not registered\n";
    std::abort();
  }
  return info->make();
}

/// Prints the runs' bandwidth series side by side, one row per sample.
void printSeries(const std::vector<std::string>& headers, const Results& runs) {
  Table table(headers);
  std::size_t rows = runs.front().series.size();
  for (const auto& r : runs) rows = std::min(rows, r.series.size());
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<std::string> row{
        Table::num(runs.front().series[i].t_seconds, 0)};
    for (const auto& r : runs) row.push_back(Table::num(r.series[i].kbps, 0));
    table.addRow(row);
  }
  table.renderAscii(std::cout);
}

// ---------------------------------------------------------------- Figure 1
// An undersized (40 Mb/s) reservation under a 50 Mb/s offered TCP load
// oscillates as the policer drops out-of-profile packets and TCP backs
// off; an adequate reservation is smooth.

Results fig1(const SweepRunner& pool, CheckReporter& checks) {
  auto results =
      pool.run({paperSpec("fig1_under"), paperSpec("fig1_adequate")});
  const auto& under = results[0];
  const auto& adequate = results[1];
  printSeries({"time_s", "under_reserved_kbps", "adequate_kbps"}, results);

  // Past slow start only.
  auto steady = [](const ScenarioResult& r) {
    std::vector<double> values;
    for (const auto& p : r.series) {
      if (p.t_seconds > 2.0) values.push_back(p.kbps);
    }
    return values;
  };
  const auto under_kbps = steady(under);
  const auto adequate_kbps = steady(adequate);
  const double under_mean = util::mean(under_kbps);
  const double under_cov = util::coefficientOfVariation(under_kbps);
  const double adequate_mean = util::mean(adequate_kbps);
  const double adequate_cov = util::coefficientOfVariation(adequate_kbps);
  std::printf("\nunder-reserved: mean %.1f Mb/s, cov %.3f\n",
              under_mean / 1000, under_cov);
  std::printf("adequate:       mean %.1f Mb/s, cov %.3f\n\n",
              adequate_mean / 1000, adequate_cov);

  double lo = 1e18, hi = 0;
  for (double v : under_kbps) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  checks.check(under_mean < 40e3,
               "under-reserved mean stays below the 40 Mb/s reservation");
  checks.check(hi - lo > 10e3,
               "under-reserved bandwidth oscillates over a >10 Mb/s range");
  checks.check(under_cov > 3 * adequate_cov,
               "oscillation (cov) far larger than with an adequate "
               "reservation");
  checks.check(adequate_mean > 45e3,
               "adequate reservation sustains ~50 Mb/s offered load");
  return results;
}

// ---------------------------------------------------------------- Figure 5
// Ping-pong throughput rises with the reservation until it is adequate
// for the message size, then flattens; larger messages plateau higher.

Results fig5(const SweepRunner& pool, CheckReporter& checks) {
  const std::vector<int> message_kilobits{8, 40, 80, 120};
  const std::vector<double> reservations_kbps{
      500, 1000, 2000, 3000, 4000, 6000, 8000, 10000, 12000, 16000, 20000};
  std::vector<ScenarioSpec> specs;
  for (double resv : reservations_kbps) {
    for (int kilobits : message_kilobits) {
      specs.push_back(pingPongSpec("res" + Table::num(resv, 0) + ".msg" +
                                       std::to_string(kilobits) + "kb",
                                   resv, kilobits * 1000 / 8, 10.0));
    }
  }
  // Paper: "performance is extremely poor" with no reservation at all.
  specs.push_back(pingPongSpec("noresv.msg40kb", 0.0, 40 * 1000 / 8, 10.0));
  auto results = pool.run(specs);

  Table table({"reservation_kbps", "8Kb_msgs", "40Kb_msgs", "80Kb_msgs",
               "120Kb_msgs"});
  // curves[size][reservation index] = achieved one-way throughput.
  std::vector<std::vector<double>> curves(message_kilobits.size());
  std::size_t next = 0;
  for (double resv : reservations_kbps) {
    std::vector<std::string> row{Table::num(resv, 0)};
    for (auto& curve : curves) {
      curve.push_back(results[next++].goodput_kbps);
      row.push_back(Table::num(curve.back(), 0));
    }
    table.addRow(row);
  }
  table.renderAscii(std::cout);
  const double no_resv_40kb = results.back().goodput_kbps;
  std::printf("\nno reservation, 40Kb messages: %.0f kb/s\n\n", no_resv_40kb);

  for (std::size_t m = 0; m < curves.size(); ++m) {
    const auto& c = curves[m];
    const std::string label =
        " (" + std::to_string(message_kilobits[m]) + "Kb messages)";
    checks.check(c.back() > 2.0 * c.front(),
                 "curve rises substantially with reservation" + label);
    checks.check(std::abs(c.back() - c[c.size() - 2]) < 0.30 * c.back(),
                 "curve flattens once the reservation is adequate" + label);
  }
  checks.check(curves[1][0] < 500.0,
               "under-reserved throughput below the reservation itself "
               "(40Kb)");
  checks.check(curves[3].back() > curves[0].back(),
               "120Kb messages plateau above 8Kb messages");
  checks.check(no_resv_40kb < 0.3 * curves[1].back(),
               "no reservation under contention is far below the reserved "
               "case");
  return results;
}

// ---------------------------------------------------------------- Figure 6
// A reservation even a little below the sending rate collapses the
// stream; ~1.06x the rate delivers it.

Results fig6(const SweepRunner& pool, CheckReporter& checks) {
  const std::vector<std::int64_t> frame_bytes{5'000, 10'000, 20'000, 30'000};
  const std::vector<double> fractions{0.5, 0.7, 0.85, 0.95, 1.06, 1.25, 1.5};
  auto target = [](std::int64_t bytes) {
    return static_cast<double>(bytes) * 8.0 * 10.0 / 1000.0;  // at 10 fps
  };
  std::vector<ScenarioSpec> specs;
  for (double frac : fractions) {
    for (std::int64_t bytes : frame_bytes) {
      specs.push_back(visualizationSpec(
          "target" + Table::num(target(bytes), 0) + ".frac" +
              Table::num(frac, 2),
          target(bytes) * frac, 10.0, bytes, 20.0));
    }
  }
  auto results = pool.run(specs);

  Table table({"reservation/target", "400kbps", "800kbps", "1600kbps",
               "2400kbps"});
  std::vector<std::vector<double>> curves(frame_bytes.size());
  std::size_t next = 0;
  for (double frac : fractions) {
    std::vector<std::string> row{Table::num(frac, 2)};
    for (auto& curve : curves) {
      curve.push_back(results[next++].goodput_kbps);
      row.push_back(Table::num(curve.back(), 0));
    }
    table.addRow(row);
  }
  table.renderAscii(std::cout);
  std::cout << "\n(rows are reservation as a fraction of the target rate; "
               "cells are achieved kb/s)\n\n";

  for (std::size_t f = 0; f < frame_bytes.size(); ++f) {
    const double target_kbps = target(frame_bytes[f]);
    const auto& c = curves[f];  // indexed like `fractions`
    const std::string label = " (" + Table::num(target_kbps, 0) + " kb/s)";
    checks.check(c[4] > 0.9 * target_kbps,
                 "1.06x reservation delivers the target" + label);
    checks.check(c[2] < 0.8 * 0.85 * target_kbps,
                 "0.85x reservation collapses below the reserved rate" +
                     label);
    checks.check(c.front() < c.back(),
                 "throughput increases with reservation" + label);
  }
  return results;
}

// ---------------------------------------------------------------- Figure 7
// Equal-rate streams, different burstiness: the sender's sequence trace
// over one steady-state second.

struct BurstTrace {
  std::vector<apps::SequenceTracer::Point> window;  // [2 s, 3 s), re-based
  int bursts = 0;  // clusters separated by >20 ms gaps
  double largest_burst_bytes = 0;
};

BurstTrace burstTrace(const ScenarioResult& r) {
  BurstTrace trace;
  std::uint64_t base_seq = 0;
  for (const auto& p : r.sequence_trace) {
    if (p.t_seconds < 2.0 || p.t_seconds >= 3.0) continue;
    if (trace.window.empty()) base_seq = p.seq;
    auto q = p;
    q.t_seconds -= 2.0;
    q.seq -= base_seq;
    trace.window.push_back(q);
  }
  double burst_bytes = 0;
  double last_t = -1;
  for (const auto& p : trace.window) {
    if (last_t < 0 || p.t_seconds - last_t > 0.020) {
      ++trace.bursts;
      burst_bytes = 0;
    }
    burst_bytes += p.bytes;
    trace.largest_burst_bytes =
        std::max(trace.largest_burst_bytes, burst_bytes);
    last_t = p.t_seconds;
  }
  return trace;
}

void printTrace(const std::string& label, const BurstTrace& trace) {
  std::cout << label << " — (time s, sequence Kb):\n";
  Table table({"t_s", "seq_kb"});
  // At most ~40 points.
  const std::size_t stride = std::max<std::size_t>(1, trace.window.size() / 40);
  for (std::size_t i = 0; i < trace.window.size(); i += stride) {
    const auto& p = trace.window[i];
    table.addRow({Table::num(p.t_seconds, 3),
                  Table::num(static_cast<double>(p.seq) * 8 / 1000.0, 1)});
  }
  table.renderAscii(std::cout);
  std::printf("bursts in 1 s: %d, largest burst: %.1f Kb\n\n", trace.bursts,
              trace.largest_burst_bytes * 8 / 1000.0);
}

Results fig7(const SweepRunner& pool, CheckReporter& checks) {
  auto results = pool.run(
      {paperSpec("fig7_frames_10fps"), paperSpec("fig7_frames_1fps")});
  const auto smooth = burstTrace(results[0]);
  const auto bursty = burstTrace(results[1]);
  printTrace("10 frames/second (top panel)", smooth);
  printTrace("1 frame/second (bottom panel)", bursty);

  checks.check(smooth.bursts >= 8 && smooth.bursts <= 12,
               "10 fps trace shows ~10 evenly spaced small bursts");
  checks.check(bursty.bursts <= 3, "1 fps trace is a single large burst");
  checks.check(bursty.largest_burst_bytes > 5.0 * smooth.largest_burst_bytes,
               "the 1 fps burst is far larger than any 10 fps burst");
  auto total = [](const BurstTrace& t) {
    return t.window.empty() ? 0.0 : static_cast<double>(t.window.back().seq);
  };
  checks.check(std::abs(total(smooth) - total(bursty)) < 0.3 * total(smooth),
               "both programs send ~the same bytes per second (equal rate)");
  return results;
}

// ------------------------------------------------------- Figures 8 and 9
// Single timelines whose phase checks live in the registry specs.

Results fig8(const SweepRunner& pool, CheckReporter&) {
  auto results = pool.run({paperSpec("fig8_cpu_reservation")});
  const auto& r = results[0];
  Table table({"time_s", "bandwidth_kbps"});
  for (const auto& p : r.series) {
    table.addRow({Table::num(p.t_seconds, 0), Table::num(p.kbps, 0)});
  }
  table.renderAscii(std::cout);
  std::printf("\nfree: %.0f kb/s | contended: %.0f kb/s | reserved: %.0f "
              "kb/s\n\n",
              r.meanKbps(2, 10), r.meanKbps(12, 20), r.meanKbps(22, 30));
  return results;
}

Results fig9(const SweepRunner& pool, CheckReporter&) {
  auto results = pool.run({paperSpec("fig9_combined")});
  const auto& r = results[0];
  auto phase = [](double t) {
    if (t <= 10) return "clean";
    if (t <= 21) return "net-congestion";
    if (t <= 31) return "net-reserved";
    if (t <= 41) return "cpu-contention";
    return "net+cpu-reserved";
  };
  Table table({"time_s", "bandwidth_kbps", "phase"});
  for (const auto& p : r.series) {
    table.addRow({Table::num(p.t_seconds, 0), Table::num(p.kbps, 0),
                  phase(p.t_seconds)});
  }
  table.renderAscii(std::cout);
  std::printf("\nclean %.0f | congested %.0f | net-reserved %.0f | "
              "cpu-contended %.0f | both-reserved %.0f (kb/s)\n\n",
              r.meanKbps(2, 10), r.meanKbps(12, 21), r.meanKbps(24, 31),
              r.meanKbps(33, 41), r.meanKbps(44, 50));
  return results;
}

// ----------------------------------------------------------------- Table 1
// The minimum reservation achieving >= 97% of the desired rate, by
// bisection on [desired, 4 x desired]. 97% sits above the ~96.5% ceiling
// a reservation of exactly the application rate reaches (TCP/IP header
// overhead), so "required" always exceeds the rate; a one second
// snapshot grace forgives the final frame's in-flight tail. All twelve
// cells bisect in lockstep: one pool batch per step. Every probe is
// deterministic, so the table does not depend on the batching.

Results table1(const SweepRunner& pool, CheckReporter& checks) {
  struct Cell {
    double desired_kbps;
    double fps;
    double bucket_divisor;
    double lo = 0, hi = 0;  // bisection bracket
    bool done = false;
  };
  const std::vector<double> desired{400, 800, 1600, 2400};
  std::vector<Cell> cells;
  for (double d : desired) {
    cells.push_back({d, 10.0, 40.0});
    cells.push_back({d, 1.0, 40.0});
    cells.push_back({d, 1.0, 4.0});
  }
  auto probe = [](const Cell& c, double reservation_kbps) {
    auto spec = visualizationSpec(
        "table1.probe", reservation_kbps, c.fps,
        static_cast<std::int64_t>(c.desired_kbps * 1000.0 / 8.0 / c.fps),
        20.0, c.bucket_divisor, /*snapshot_grace_seconds=*/1.0);
    spec.observe = false;  // probes feed only the bisection
    return spec;
  };
  auto achieves = [](const Cell& c, const ScenarioResult& r) {
    return r.goodput_kbps >= 0.97 * c.desired_kbps;
  };

  // Step 0 probes both ends: the rate itself never suffices (overheads),
  // 4x is assumed to; a cell outside the bracket is settled at once.
  std::vector<ScenarioSpec> specs;
  for (auto& c : cells) {
    c.lo = c.desired_kbps;
    c.hi = c.desired_kbps * 4.0;
    specs.push_back(probe(c, c.lo));
    specs.push_back(probe(c, c.hi));
  }
  auto ends = pool.run(specs);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    auto& c = cells[i];
    if (achieves(c, ends[2 * i])) {
      c.hi = c.lo;
      c.done = true;
    } else if (!achieves(c, ends[2 * i + 1])) {
      c.hi *= 1.2;  // out-of-range marker
      c.done = true;
    }
  }
  for (int step = 0; step < 6; ++step) {
    specs.clear();
    for (const auto& c : cells) {
      if (!c.done) specs.push_back(probe(c, (c.lo + c.hi) / 2));
    }
    const auto mids = pool.run(specs);
    std::size_t next = 0;
    for (auto& c : cells) {
      if (c.done) continue;
      const double mid = (c.lo + c.hi) / 2;
      if (achieves(c, mids[next++])) {
        c.hi = mid;
      } else {
        c.lo = mid;
      }
    }
  }

  Table table({"desired_kbps", "normal_10fps", "normal_1fps", "large_1fps"});
  for (std::size_t i = 0; i < desired.size(); ++i) {
    table.addRow({Table::num(desired[i], 0), Table::num(cells[3 * i].hi, 0),
                  Table::num(cells[3 * i + 1].hi, 0),
                  Table::num(cells[3 * i + 2].hi, 0)});
  }
  table.renderAscii(std::cout);
  std::cout << "\npaper's values (kb/s):\n"
               "  400: 500 / 750 / 500\n"
               "  800: 900 / 1450 / 900\n"
               " 1600: 1700 / 2700 / 1700\n"
               " 2400: 2500 / 3600 / 2500\n\n";

  for (std::size_t i = 0; i < desired.size(); ++i) {
    const double normal10 = cells[3 * i].hi;
    const double normal1 = cells[3 * i + 1].hi;
    const double large1 = cells[3 * i + 2].hi;
    const std::string label = " (" + Table::num(desired[i], 0) + " kb/s)";
    checks.check(normal10 > desired[i],
                 "smooth traffic still needs > the application rate" + label);
    checks.check(normal1 > 1.2 * normal10,
                 "very bursty traffic needs a much larger reservation with "
                 "the normal bucket" + label);
    checks.check(large1 < 1.15 * normal10,
                 "the large bucket removes the burstiness penalty" + label);
  }
  return {};
}

// --------------------------------------------------------------- Ablations

// Token-bucket depth (§4.3/§5.4): the paper fixes depth = bandwidth/40,
// a compromise between dropping bursts and spending router buffer.
Results ablationBucket(const SweepRunner& pool, CheckReporter& checks) {
  const double desired_kbps = 800.0;
  const double reservation = desired_kbps * 1.3;
  const std::vector<double> divisors{400, 100, 62, 40, 10, 4, 1};
  std::vector<ScenarioSpec> specs;
  for (double d : divisors) {
    specs.push_back(visualizationSpec("divisor" + Table::num(d, 0),
                                      reservation, 1.0, 100'000, 20.0, d,
                                      /*snapshot_grace_seconds=*/1.0));
  }
  auto results = pool.run(specs);

  Table table({"divisor", "depth_bytes", "achieved_kbps", "policer_drops"});
  for (std::size_t i = 0; i < divisors.size(); ++i) {
    table.addRow({Table::num(divisors[i], 0),
                  std::to_string(net::TokenBucket::depthForRate(
                      reservation * 1000, divisors[i])),
                  Table::num(results[i].goodput_kbps, 0),
                  std::to_string(results[i].policer_drops)});
  }
  table.renderAscii(std::cout);
  std::cout << "\n";

  checks.check(results.back().goodput_kbps >= 0.97 * desired_kbps,
               "a bucket deeper than the burst absorbs it entirely "
               "(divisor 1)");
  checks.check(results.front().goodput_kbps < 0.7 * desired_kbps,
               "a very shallow bucket (divisor 400) cripples the bursty "
               "stream");
  bool monotone = true;  // deeper buckets never hurt (within 12%)
  for (std::size_t i = 1; i < results.size(); ++i) {
    if (results[i].goodput_kbps + 0.12 * desired_kbps <
        results[i - 1].goodput_kbps) {
      monotone = false;
    }
  }
  checks.check(monotone,
               "achieved throughput is (weakly) monotone in bucket depth");
  return results;
}

// EF priority queuing (§5.1): the same admission without the PHB starves.
Results ablationPriority(const SweepRunner& pool, CheckReporter& checks) {
  auto results = pool.run(
      {paperSpec("ablation_priority_ef"), paperSpec("ablation_priority_be")});
  const double with_ef = results[0].goodput_kbps;
  const double without_ef = results[1].goodput_kbps;
  Table table({"variant", "goodput_kbps"});
  table.addRow({"EF (priority queue)", Table::num(with_ef, 0)});
  table.addRow({"policed, best-effort queue", Table::num(without_ef, 0)});
  table.renderAscii(std::cout);
  std::cout << "\n";
  checks.check(without_ef < 0.25 * with_ef,
               "the same admission without the EF PHB starves in the "
               "congested best-effort queue");
  return results;
}

// Source shaping (§5.4's proposed alternative to per-application bucket
// sizes): shaped bursts pass a shallow bucket that raw bursts overflow.
Results ablationShaping(const SweepRunner& pool, CheckReporter& checks) {
  auto results = pool.run(
      {paperSpec("ablation_shaping_off"), paperSpec("ablation_shaping_on")});
  const auto& raw = results[0];
  const auto& shaped = results[1];
  Table table({"variant", "goodput_kbps", "policer_drops", "tcp_timeouts"});
  auto row = [&table](const char* variant, const ScenarioResult& r) {
    table.addRow({variant, Table::num(r.goodput_kbps, 0),
                  std::to_string(r.policer_drops),
                  std::to_string(r.tcp_timeouts)});
  };
  row("unshaped", raw);
  row("shaped", shaped);
  table.renderAscii(std::cout);
  std::cout << "\n";
  checks.check(raw.goodput_kbps < 0.75 * shaped.goodput_kbps,
               "unshaped bursts through the shallow bucket lose substantial "
               "throughput");
  checks.check(shaped.policer_drops < raw.policer_drops / 5,
               "shaping eliminates (nearly) all policer drops");
  return results;
}

// The low-latency class (§4.1): small control messages skip the standing
// bulk queue.
Results ablationLatency(const SweepRunner& pool, CheckReporter& checks) {
  auto results = pool.run(
      {paperSpec("ablation_latency_be"), paperSpec("ablation_latency_ll")});
  auto p = [](const ScenarioResult& r, double pct) {
    return util::percentile(r.rtt_ms, pct);
  };
  auto row = [&](const char* variant, const ScenarioResult& r) {
    return std::vector<std::string>{variant, Table::num(p(r, 50), 2),
                                    Table::num(p(r, 99), 2)};
  };
  const auto& be = results[0];
  const auto& ll = results[1];
  Table table({"variant", "median_rtt_ms", "p99_rtt_ms"});
  table.addRow(row("best effort", be));
  table.addRow(row("low-latency class", ll));
  table.renderAscii(std::cout);
  std::cout << "\n";
  checks.check(p(ll, 50) < p(be, 50) / 2,
               "low-latency marking at least halves the median RTT");
  checks.check(p(ll, 99) < p(be, 99) / 2,
               "tail latency improves at least as much");
  return results;
}

// ----------------------------------------------------------- Fault recovery
// A 3 s edge-link flap at t=20 s: with the RecoveryPolicy the agent
// re-reserves once the link is back; without it the stream degrades to
// best effort and starves. A third run replays the first.

Results faultRecovery(const SweepRunner& pool, CheckReporter& checks) {
  auto results = pool.run({paperSpec("fault_recovery_on"),
                           paperSpec("fault_recovery_off"),
                           paperSpec("fault_recovery_on")});
  const ScenarioResult replay = std::move(results.back());
  results.pop_back();
  const auto& with = results[0];
  const auto& without = results[1];
  printSeries({"time_s", "recovery_on_kbps", "recovery_off_kbps"}, results);

  auto pre = [](const ScenarioResult& r) { return r.meanKbps(5.0, 20.0); };
  auto post = [](const ScenarioResult& r) { return r.meanKbps(28.0, 60.0); };
  std::printf("\nrecovery on:  pre-flap %.1f Mb/s, post-flap %.1f Mb/s, "
              "final state %s, %d recovery attempt(s)\n",
              pre(with) / 1000, post(with) / 1000,
              gq::qosRequestStateName(with.qos_state),
              with.recovery_attempts);
  std::printf("recovery off: pre-flap %.1f Mb/s, post-flap %.1f Mb/s, "
              "final state %s\n\n",
              pre(without) / 1000, post(without) / 1000,
              gq::qosRequestStateName(without.qos_state));

  checks.check(post(with) > post(without),
               "post-flap goodput strictly higher with RecoveryPolicy "
               "enabled");
  checks.check(!with.injector_log.empty() &&
                   with.injector_log == replay.injector_log,
               "scenario replay with the same seed gives a byte-identical "
               "injector log");
  return results;
}

}  // namespace

const std::vector<SuiteInfo>& paperSuites() {
  static const std::vector<SuiteInfo> suites{
      {"fig1", "Figure 1: TCP with an undersized premium reservation",
       "Figure 1 (§5): 50 Mb/s offered, 40 Mb/s reserved; the paper shows "
       "oscillation between ~25 and ~52 Mb/s over 100 s",
       fig1},
      {"fig5", "Figure 5: ping-pong throughput vs. reservation",
       "Figure 5 (§5.2): message sizes 8/40/80/120 Kb, one-way reservation "
       "0.5-12 Mb/s, heavy UDP contention",
       fig5},
      {"fig6", "Figure 6: visualization throughput vs. reservation",
       "Figure 6 (§5.3): 10 fps, frames 5/10/20/30 KB (targets 400-2400 "
       "kb/s); the paper finds ~1.06x the sending rate is required",
       fig6},
      {"fig7",
       "Figure 7: sequence-number traces at equal rate, different burstiness",
       "Figure 7 (§5.4): 400 kb/s as 10 fps x 40 Kb frames vs 1 fps x "
       "400 Kb frame; 1 s window",
       fig7},
      {"fig8",
       "Figure 8: visualization bandwidth under CPU contention and a DSRT "
       "reservation",
       "Figure 8 (§5.5): 15 Mb/s stream; CPU hog at t=10 s; 90% CPU "
       "reservation at t=20 s",
       fig8},
      {"fig9", "Figure 9: combined network and CPU reservations",
       "Figure 9 (§5.5): 35 Mb/s stream; net congestion @10s, net "
       "reservation @21s, CPU contention @31s, CPU reservation @41s",
       fig9},
      {"table1", "Table 1: reservation required vs. burstiness and bucket size",
       "Table 1 (§5.4): desired 400/800/1600/2400 kb/s; 10 fps vs 1 fps; "
       "bucket bw/40 vs bw/4",
       table1},
      {"ablation_bucket", "Ablation: token-bucket depth divisor",
       "§4.3/§5.4: 1 fps x 100 KB frames (800 kb/s) with a fixed 1.3x "
       "reservation; depth = reservation/divisor",
       ablationBucket},
      {"ablation_priority", "Ablation: EF priority queuing vs. policing-only",
       "§5.1: identical 5 Mb/s token-bucket admission; EF marking vs. "
       "best-effort marking under saturating contention",
       ablationPriority},
      {"ablation_shaping",
       "Ablation: source shaping vs. raw bursts through a shallow bucket",
       "§5.4: 50 KB bursts at 1.6 Mb/s through a 1.7 Mb/s premium "
       "reservation with the normal (bw/40) bucket",
       ablationShaping},
      {"ablation_latency",
       "Ablation: low-latency class for small-message traffic",
       "§4.1: 256 B request/response under saturating bulk contention; "
       "best-effort vs low-latency marking",
       ablationLatency},
      {"fault_recovery",
       "Fault recovery: link flap during the Figure-1 premium transfer",
       "§4.2: GARA monitoring/state-change callbacks; reservation "
       "preemption treated as the common case in wide-area deployments",
       faultRecovery},
  };
  return suites;
}

const SuiteInfo* findSuite(const std::string& name) {
  for (const auto& suite : paperSuites()) {
    if (suite.name == name) return &suite;
  }
  return nullptr;
}

void runSuite(const SuiteInfo& suite, const SweepRunner& pool,
              CheckReporter& checks, const std::string& json_dir) {
  std::cout << "\n=== " << suite.title << " ===\n";
  std::cout << "paper reference: " << suite.paper_ref << "\n\n";
  const auto results = suite.run(pool, checks);
  if (results.empty()) return;
  for (const auto& r : results) checks.merge(r.checks);
  checks.check(obs::exportMultiRunBenchJson(suite.name, runExports(results),
                                            json_dir),
               "wrote BENCH_" + suite.name + ".json");
}

}  // namespace mgq::scenario
