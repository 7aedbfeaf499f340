#include "cpu/cpu_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace mgq::cpu {

CpuScheduler::CpuScheduler(sim::Simulator& sim, std::string name)
    : sim_(sim), name_(std::move(name)), last_settle_(sim.now()) {}

CpuScheduler::~CpuScheduler() {
  if (completion_armed_) sim_.cancel(completion_event_);
}

JobId CpuScheduler::registerJob(std::string name) {
  const JobId id = next_id_++;
  Job job;
  job.name = std::move(name);
  job.done = std::make_unique<sim::Condition>(sim_);
  jobs_.emplace(id, std::move(job));
  return id;
}

double CpuScheduler::shareOf(const Job& job) const {
  if (job.reservation > 0.0) return job.reservation;
  // Unreserved: split what reserved runnable jobs leave behind.
  double reserved_runnable = 0.0;
  std::size_t unreserved_runnable = 0;
  for (const auto& [id, j] : jobs_) {
    if (!j.runnable) continue;
    if (j.reservation > 0.0) {
      reserved_runnable += j.reservation;
    } else {
      ++unreserved_runnable;
    }
  }
  if (unreserved_runnable == 0) return 0.0;
  const double leftover = std::max(0.0, 1.0 - reserved_runnable);
  return std::max(minShare(),
                  leftover / static_cast<double>(unreserved_runnable));
}

double CpuScheduler::currentShare(JobId id) const {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return 0.0;
  return shareOf(it->second);
}

void CpuScheduler::settleAndReschedule() {
  const auto now = sim_.now();
  const double elapsed = (now - last_settle_).toSeconds();
  if (elapsed > 0.0) {
    for (auto& [id, job] : jobs_) {
      if (!job.runnable) continue;
      job.remaining -= elapsed * shareOf(job);
    }
  }
  last_settle_ = now;

  // Finish every job whose work is done (within float tolerance).
  // Tolerance covers nanosecond event rounding (share * 1 ns of work).
  bool finished_any = false;
  for (auto& [id, job] : jobs_) {
    if (job.runnable && job.remaining <= 2e-9) {
      job.runnable = false;
      --runnable_count_;
      job.remaining = 0.0;
      job.done->notifyAll();
      finished_any = true;
    }
  }
  if (finished_any) {
    // Shares changed; settle again from the same instant (no-op advance)
    // before computing the next completion.
  }

  if (completion_armed_) {
    sim_.cancel(completion_event_);
    completion_armed_ = false;
  }
  double soonest = std::numeric_limits<double>::infinity();
  for (const auto& [id, job] : jobs_) {
    if (!job.runnable) continue;
    const double share = shareOf(job);
    assert(share > 0.0);
    soonest = std::min(soonest, job.remaining / share);
  }
  if (soonest < std::numeric_limits<double>::infinity()) {
    completion_armed_ = true;
    // Round up by one nanosecond so the event never lands short of the
    // completion instant (which would re-arm a zero-delay event forever).
    const auto delay =
        sim::Duration::seconds(std::max(soonest, 0.0)) + sim::Duration::nanos(1);
    completion_event_ = sim_.schedule(delay, [this] {
      completion_armed_ = false;
      settleAndReschedule();
    });
  }
}

sim::Task<> CpuScheduler::compute(JobId id, sim::Duration work) {
  const auto it = jobs_.find(id);
  assert(it != jobs_.end() && "compute() on unknown job");
  Job& job = it->second;
  assert(!job.runnable && "one compute() at a time per job");
  if (work <= sim::Duration::zero()) co_return;

  settleAndReschedule();  // settle others before the set changes
  job.runnable = true;
  ++runnable_count_;
  job.remaining = work.toSeconds();
  settleAndReschedule();

  co_await awaitUntil(*job.done, [&job] { return !job.runnable; });
}

bool CpuScheduler::setReservation(JobId id, double fraction) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  if (fraction < 0.0) return false;
  const double new_total = total_reserved_ - it->second.reservation + fraction;
  if (new_total > maxReservable() + 1e-12) return false;
  settleAndReschedule();
  total_reserved_ = new_total;
  it->second.reservation = fraction;
  settleAndReschedule();
  return true;
}

void CpuScheduler::clearReservation(JobId id) { setReservation(id, 0.0); }

double CpuScheduler::reservation(JobId id) const {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? 0.0 : it->second.reservation;
}

CpuHog::CpuHog(CpuScheduler& cpu, std::string name)
    : cpu_(cpu), job_(cpu.registerJob(std::move(name))) {}

CpuHog::~CpuHog() {
  running_ = false;
  // The job is left registered if a compute() is still pending; the
  // scheduler outlives hogs in every use here.
}

void CpuHog::start() {
  if (running_) return;
  running_ = true;
  cpu_.simulator().spawn(run());
}

sim::Task<> CpuHog::run() {
  while (running_) {
    co_await cpu_.compute(job_, sim::Duration::millis(10));
  }
}

}  // namespace mgq::cpu
