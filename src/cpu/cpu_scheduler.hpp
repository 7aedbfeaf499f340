// Host CPU model with DSRT-style soft real-time reservations (paper §5.5).
//
// A fluid proportional-share scheduler: at any instant every *runnable*
// job (one currently inside compute()) progresses at a rate equal to its
// share of the CPU. A job with a DSRT reservation r gets exactly share r
// while runnable; the remaining capacity is split evenly among unreserved
// runnable jobs. This reproduces the paper's observations — a competing
// hog halves an unreserved application's rate; a 90 % reservation pins
// the application's rate regardless of contention.
//
// Progress bookkeeping is event-driven: whenever the runnable set or a
// reservation changes, accumulated work is settled at the old shares and
// the earliest completion is rescheduled.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "sim/condition.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace mgq::cpu {

using JobId = std::uint32_t;

class CpuScheduler {
 public:
  explicit CpuScheduler(sim::Simulator& sim, std::string name = "cpu");
  CpuScheduler(const CpuScheduler&) = delete;
  CpuScheduler& operator=(const CpuScheduler&) = delete;
  ~CpuScheduler();

  /// Registers a job (an application process on this host).
  JobId registerJob(std::string name);

  /// Performs `work` CPU-seconds of computation; wall (simulated) time
  /// depends on the job's share while it runs. One compute() at a time
  /// per job.
  sim::Task<> compute(JobId id, sim::Duration work);

  /// DSRT reservation: guarantees `fraction` (0..1) of the CPU while the
  /// job is runnable. Returns false (and changes nothing) if admission
  /// fails — the total reserved fraction may not exceed maxReservable().
  bool setReservation(JobId id, double fraction);
  void clearReservation(JobId id);
  double reservation(JobId id) const;

  /// Instantaneous share the job would receive right now if runnable.
  double currentShare(JobId id) const;
  /// Sum of all reservations currently admitted.
  double totalReserved() const { return total_reserved_; }
  static constexpr double maxReservable() { return 0.95; }
  /// Minimum share an unreserved runnable job always receives (the soft
  /// real-time scheduler leaves slack for the rest of the system).
  static constexpr double minShare() { return 0.01; }

  std::size_t runnableCount() const { return runnable_count_; }
  const std::string& name() const { return name_; }
  sim::Simulator& simulator() { return sim_; }

 private:
  struct Job {
    std::string name;
    double reservation = 0.0;
    bool runnable = false;
    double remaining = 0.0;  // CPU-seconds of work left
    std::unique_ptr<sim::Condition> done;
  };

  /// Advances every runnable job's remaining work to the current time at
  /// the shares that were in force, then recomputes shares and reschedules
  /// the next completion.
  void settleAndReschedule();
  double shareOf(const Job& job) const;

  sim::Simulator& sim_;
  std::string name_;
  std::unordered_map<JobId, Job> jobs_;
  JobId next_id_ = 1;
  double total_reserved_ = 0.0;
  std::size_t runnable_count_ = 0;
  sim::TimePoint last_settle_;
  sim::EventId completion_event_ = 0;
  bool completion_armed_ = false;
};

/// Convenience: a pure CPU hog occupying one unreserved job slot from
/// start() until stop() — the paper's "CPU-intensive application".
class CpuHog {
 public:
  explicit CpuHog(CpuScheduler& cpu, std::string name = "hog");
  ~CpuHog();

  void start();
  void stop() { running_ = false; }
  bool running() const { return running_; }

 private:
  sim::Task<> run();
  CpuScheduler& cpu_;
  JobId job_;
  bool running_ = false;
};

}  // namespace mgq::cpu
