// Traced build: one __wrap_<symbol> per entry of boundaries.def. The
// linker routes every cross-object call of <symbol> here (-Wl,--wrap), and
// each wrapper calls the original through __real_<symbol>.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "adapt/arbiter.hpp"
#include "adapt/controller.hpp"
#include "adapt/demand.hpp"
#include "adapt/policy.hpp"
#include "chaos/generator.hpp"
#include "chaos/invariants.hpp"
#include "cpu/cpu_scheduler.hpp"
#include "gara/bandwidth_broker.hpp"
#include "gara/gara.hpp"
#include "gara/slot_table.hpp"
#include "gq/qos_agent.hpp"
#include "gq/shaper.hpp"
#include "mpi/comm.hpp"
#include "mpi/matching.hpp"
#include "mpi/message.hpp"
#include "net/classifier.hpp"
#include "net/host.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "resil/heartbeat.hpp"
#include "resil/journal.hpp"
#include "resil/lease.hpp"
#include "resil/reconciler.hpp"
#include "scenario/builder.hpp"
#include "scenario/runner.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "tcp/stream_ring.hpp"
#include "tcp/tcp_socket.hpp"
#include "trace.hpp"

#include <x86intrin.h>

using namespace mgq;

namespace {

enum Kind { kTimed, kCounted };

enum Id : int {
#define X(layer, kind, sym, ...) id_##sym,
#define P(layer, sym, ...) id_##sym,
#include "boundaries.def"
#undef X
#undef P
  kBoundaryCount
};

/// R (C::*)(A...) [const] and R (*)(A...) as the free-function type the
/// wrapper must have: the object pointer becomes the first parameter,
/// which is how the Itanium C++ ABI passes `this`.
template <class P>
struct FreeSig;
template <class R, class C, class... A>
struct FreeSig<R (C::*)(A...)> {
  using ret = R;
  using type = R (*)(C*, A...);
};
template <class R, class C, class... A>
struct FreeSig<R (C::*)(A...) const> {
  using ret = R;
  using type = R (*)(const C*, A...);
};
template <class R, class... A>
struct FreeSig<R (*)(A...)> {
  using ret = R;
  using type = R (*)(A...);
};

/// Entry address of a function or non-virtual member function pointer.
template <class P>
const void* codeAddress(P p) {
  if constexpr (std::is_member_function_pointer_v<P>) {
    struct {
      std::uintptr_t ptr;
      std::ptrdiff_t adj;
    } raw;
    static_assert(sizeof(P) == sizeof(raw));
    std::memcpy(&raw, &p, sizeof(raw));
    return reinterpret_cast<const void*>(raw.ptr);
  } else {
    return reinterpret_cast<const void*>(p);
  }
}

// Spans read the time-stamp counter: on a 4-vCPU Xeon guest it costs about
// half a steady_clock read, and ~10^8 spans per pass make that the bulk of
// the tracing overhead. Ticks become nanoseconds in take(), scaled by the
// counter's rate against steady_clock since start-up (this assumes an
// invariant TSC, which x86-64 hosts of the last decade have).
std::int64_t ticks() { return static_cast<std::int64_t>(__rdtsc()); }

struct Calibration {
  std::int64_t tsc = ticks();
  std::chrono::steady_clock::time_point steady =
      std::chrono::steady_clock::now();

  double nsPerTick() const {
    const std::int64_t dt = ticks() - tsc;
    const double dns = std::chrono::duration<double, std::nano>(
                           std::chrono::steady_clock::now() - steady)
                           .count();
    return dt > 0 ? dns / static_cast<double>(dt) : 1.0;
  }
};
const Calibration g_calibration;

struct Frame {
  int id;
  std::int64_t start;  // ticks
  std::int64_t child;  // ticks spent in wrapped calls made from this one
};

constexpr int kMaxDepth = 256;
thread_local Frame t_stack[kMaxDepth];
thread_local int t_depth = 0;

// Written by one thread at a time (see trace.hpp). Times are in ticks
// until take() converts them.
perfbench::trace::Cell g_cells[kBoundaryCount];
std::vector<perfbench::trace::RunRecord> g_runs;
perfbench::trace::RunRecord g_outside;
std::string g_run_label;
std::uint64_t g_run_events = 0;
std::int64_t g_run_until_exit = 0;

void flushCells(perfbench::trace::RunRecord& into) {
  into.cells.resize(kBoundaryCount);
  for (int i = 0; i < kBoundaryCount; ++i) {
    into.cells[i].calls += g_cells[i].calls;
    into.cells[i].incl_ns += g_cells[i].incl_ns;
    into.cells[i].self_ns += g_cells[i].self_ns;
    g_cells[i] = {};
  }
}

class Span {
 public:
  explicit Span(int id) {
    if (t_depth == kMaxDepth) {
      std::fprintf(stderr, "perfbench: wrapped calls nested too deeply\n");
      std::abort();
    }
    Frame& f = t_stack[t_depth++];
    f.id = id;
    f.child = 0;
    f.start = ticks();
  }
  ~Span() {
    const std::int64_t end = ticks();
    const Frame& f = t_stack[--t_depth];
    const std::int64_t dur = end - f.start;
    auto& cell = g_cells[f.id];
    ++cell.calls;
    cell.incl_ns += dur;
    cell.self_ns += dur - f.child;
    if (t_depth > 0) t_stack[t_depth - 1].child += dur;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

template <Kind K>
struct Enter;
template <>
struct Enter<kTimed> : Span {
  explicit Enter(int id) : Span(id) {}
};
template <>
struct Enter<kCounted> {
  explicit Enter(int id) { ++g_cells[id].calls; }
};

/// One ScenarioRunner::run: calls made before it belong to no run.
class RunScope {
 public:
  explicit RunScope(const scenario::ScenarioSpec& spec) {
    flushCells(g_outside);
    g_run_label = spec.name + "#" + std::to_string(spec.seed);
    g_run_events = 0;
    g_run_until_exit = 0;
  }
  ~RunScope() {
    perfbench::trace::RunRecord record;
    record.label = g_run_label;
    record.events = g_run_events;
    if (g_run_until_exit > 0) record.collect_ns = ticks() - g_run_until_exit;
    flushCells(record);
    g_runs.push_back(std::move(record));
  }
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;
};

}  // namespace

// --- wrappers ---------------------------------------------------------------

#define X(layer, kind, sym, ptr, member, params, args)                   \
  extern "C" FreeSig<ptr>::ret __real_##sym params;                      \
  extern "C" FreeSig<ptr>::ret __wrap_##sym params {                     \
    Enter<kind> enter(id_##sym);                                         \
    return __real_##sym args;                                            \
  }                                                                      \
  static_assert(std::is_same_v<decltype(&__wrap_##sym), FreeSig<ptr>::type>, \
                "signature of " #member " does not match its member");
#define P(...)
#include "boundaries.def"
#undef X
#undef P

#define RUN_SYM _ZN3mgq8scenario14ScenarioRunner3runERKNS0_12ScenarioSpecERKNS0_8RunHooksE
#define UNTIL_SYM _ZN3mgq3sim9Simulator8runUntilENS0_9TimePointE
#define CAT2(a, b) a##b
#define CAT(a, b) CAT2(a, b)

extern "C" scenario::ScenarioResult CAT(__real_, RUN_SYM)(
    scenario::ScenarioRunner* self, const scenario::ScenarioSpec& spec,
    const scenario::RunHooks& hooks);
extern "C" scenario::ScenarioResult CAT(__wrap_, RUN_SYM)(
    scenario::ScenarioRunner* self, const scenario::ScenarioSpec& spec,
    const scenario::RunHooks& hooks) {
  RunScope run(spec);
  Span span(CAT(id_, RUN_SYM));
  return CAT(__real_, RUN_SYM)(self, spec, hooks);
}

extern "C" void CAT(__real_, UNTIL_SYM)(sim::Simulator* self, sim::TimePoint t);
extern "C" void CAT(__wrap_, UNTIL_SYM)(sim::Simulator* self, sim::TimePoint t) {
  const std::uint64_t before = self->eventsExecuted();
  {
    Span span(CAT(id_, UNTIL_SYM));
    CAT(__real_, UNTIL_SYM)(self, t);
  }
  g_run_events += self->eventsExecuted() - before;
  g_run_until_exit = ticks();
}

// --- table and self-check ----------------------------------------------------

namespace {

struct Entry {
  const char* layer;
  const char* member;
  Kind kind;
  const void* wrapper;
  const void* declared;  // the member's address, which --wrap redirects
};

std::vector<Entry> entries() {
  return {
#define X(layer, kind, sym, ptr, member, params, args)                \
  {#layer, #member, kind, reinterpret_cast<const void*>(&__wrap_##sym), \
   codeAddress(static_cast<ptr>(member))},
#define P(layer, sym, ptr, member)                                    \
  {#layer, #member, kTimed, reinterpret_cast<const void*>(&__wrap_##sym), \
   codeAddress(static_cast<ptr>(member))},
#include "boundaries.def"
#undef X
#undef P
  };
}

/// "&sim::EventQueue::pop" -> "EventQueue::pop".
std::string shortName(const char* member) {
  std::string s = member;
  if (!s.empty() && s[0] == '&') s.erase(0, 1);
  const auto sep = s.find("::");
  if (sep != std::string::npos) s.erase(0, sep + 2);
  return s;
}

std::vector<perfbench::trace::Boundary> checkedBoundaries() {
  std::vector<perfbench::trace::Boundary> out;
  for (const auto& e : entries()) {
    // Taking the member's address in this file is itself a wrapped
    // reference, so it lands on the wrapper only when the symbol in
    // boundaries.def is really that member's mangled name.
    if (e.wrapper != e.declared) {
      std::fprintf(stderr,
                   "perfbench: boundaries.def symbol is not %s's mangled "
                   "name\n",
                   e.member);
      std::exit(3);
    }
    out.push_back({e.layer, shortName(e.member), e.kind == kTimed});
  }
  return out;
}

}  // namespace

namespace perfbench::trace {

bool enabled() { return true; }

const std::vector<Boundary>& boundaries() {
  static const std::vector<Boundary> checked = checkedBoundaries();
  return checked;
}

std::vector<RunRecord> take() {
  flushCells(g_outside);
  std::vector<RunRecord> out = std::move(g_runs);
  g_runs.clear();
  out.push_back(std::move(g_outside));
  g_outside = {};
  const double scale = g_calibration.nsPerTick();
  const auto ns = [scale](std::int64_t t) {
    return static_cast<std::int64_t>(static_cast<double>(t) * scale);
  };
  for (auto& r : out) {
    r.collect_ns = ns(r.collect_ns);
    for (auto& c : r.cells) {
      c.incl_ns = ns(c.incl_ns);
      c.self_ns = ns(c.self_ns);
    }
  }
  return out;
}

}  // namespace perfbench::trace
