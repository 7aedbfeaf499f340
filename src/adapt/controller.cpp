#include "adapt/controller.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mgq::adapt {

QosController::QosController(sim::Simulator& sim,
                             gara::BandwidthBroker& broker,
                             BandwidthArbiter& arbiter, Config config)
    : sim_(&sim), broker_(&broker), arbiter_(&arbiter), config_(config) {}

std::size_t QosController::addTenant(
    TenantConfig config, gara::BandwidthBroker::PathReservation* path) {
  auto tenant = std::make_unique<Tenant>(Tenant{
      .name = std::move(config.name),
      .path = path,
      .policy = AdaptationPolicy(config.policy),
  });
  tenant->estimator.setInputs(std::move(config.inputs));
  tenant->shaper = config.shaper;
  const double current = currentBps(*tenant);
  tenant->initial_bps = current > 0.0 ? current : 0.0;
  tenants_.push_back(std::move(tenant));
  return tenants_.size() - 1;
}

void QosController::attachObservability(obs::MetricsRegistry* metrics,
                                        obs::TraceBuffer* trace) {
  metrics_ = metrics;
  trace_ = trace;
}

void QosController::start() {
  if (started_) return;
  started_ = true;
  running_ = true;
  sim_->spawn(controlLoop());
}

sim::Task<> QosController::controlLoop() {
  const auto cadence = sim::Duration::seconds(config_.cadence_seconds);
  while (running_) {
    co_await sim_->delay(cadence);
    if (!running_) break;
    tick();
  }
}

double QosController::currentBps(const Tenant& tenant) {
  if (tenant.path == nullptr || tenant.path->handles.empty()) return -1.0;
  for (const auto& leg : tenant.path->handles) {
    if (leg == nullptr || gara::isTerminal(leg->state())) return -1.0;
  }
  return tenant.path->handles.front()->request().amount;
}

void QosController::applyResize(Tenant& tenant, AdaptAction action,
                                double new_amount, bool clamped,
                                double now_seconds) {
  const double previous = currentBps(tenant);
  if (!broker_->modify(*tenant.path, new_amount)) {
    ++tenant.refused;
    tenant.policy.notifyRefused(now_seconds);
    countEvent("qos.adapt.refused");
    traceEvent("refused", tenant.name, new_amount,
               adaptActionName(action));
    return;
  }
  tenant.policy.notifyApplied(action, now_seconds);
  if (action == AdaptAction::kGrow) {
    ++tenant.grows;
    countEvent("qos.adapt.grow");
  } else {
    ++tenant.shrinks;
    countEvent("qos.adapt.shrink");
    arbiter_->noteReclaimed(previous - new_amount);
  }
  if (clamped) {
    ++tenant.clamped;
    countEvent("qos.adapt.clamped");
  }
  if (tenant.shaper != nullptr) {
    const auto& request = tenant.path->handles.front()->request();
    tenant.shaper->configure(
        request.amount,
        net::TokenBucket::depthForRate(request.amount,
                                       request.bucket_divisor));
  }
  traceEvent(adaptActionName(action), tenant.name, new_amount,
             clamped ? "clamped" : "");
}

void QosController::tick() {
  ++ticks_;
  countEvent("qos.adapt.ticks");
  const double now_seconds = sim_->now().toSeconds();

  // Phase 1: sample + decide for every live tenant.
  struct Pending {
    Tenant* tenant;
    AdaptDecision decision;
    double current;
  };
  std::vector<Pending> grows;
  for (auto& tenant_ptr : tenants_) {
    Tenant& tenant = *tenant_ptr;
    if (!tenant.active) continue;
    const double current = currentBps(tenant);
    if (current < 0.0) {
      // The path died under us (chaos cancel, link flap): stop managing
      // it — the reservation's own recovery path owns what happens next.
      tenant.active = false;
      countEvent("qos.adapt.orphaned");
      traceEvent("orphaned", tenant.name, 0.0, "");
      continue;
    }
    const DemandSample& sample =
        tenant.estimator.sample(config_.cadence_seconds);
    const AdaptDecision decision =
        tenant.policy.decide(sample, current, now_seconds);
    if (metrics_ != nullptr) {
      metrics_->timeline("adapt." + tenant.name + ".reservation_kbps")
          .append(now_seconds, current / 1000.0);
      metrics_->timeline("adapt." + tenant.name + ".demand_kbps")
          .append(now_seconds, sample.demandBps() / 1000.0);
    }
    switch (decision.action) {
      case AdaptAction::kHold:
        break;
      case AdaptAction::kShrink:
        // Phase 2: shrink immediately — freed capacity joins the pool the
        // arbiter splits below, so an idle tenant's return funds a hungry
        // tenant's grow within the same tick.
        applyResize(tenant, AdaptAction::kShrink, decision.target_bps,
                    decision.clamped, now_seconds);
        break;
      case AdaptAction::kGrow:
        grows.push_back({&tenant, decision, current});
        break;
    }
  }

  if (grows.empty()) return;

  // Phase 3: arbitrate the grow wants against the pool headroom.
  const double pool = std::max(arbiter_->headroomBps(sim_->now()), 0.0);
  std::vector<double> wants;
  wants.reserve(grows.size());
  for (const auto& grow : grows) {
    wants.push_back(grow.decision.target_bps - grow.current);
  }
  const std::vector<double> grants =
      BandwidthArbiter::maxMinShares(wants, pool);

  // Phase 4: apply the granted grows, in registration order.
  for (std::size_t i = 0; i < grows.size(); ++i) {
    if (grants[i] <= 0.0) continue;  // no capacity this tick; retry later
    Tenant& tenant = *grows[i].tenant;
    applyResize(tenant, AdaptAction::kGrow, grows[i].current + grants[i],
                grows[i].decision.clamped, now_seconds);
  }
  if (metrics_ != nullptr) {
    metrics_->gauge("qos.adapt.reclaimed_bps").set(arbiter_->reclaimedBps());
  }
}

std::vector<QosController::TenantView> QosController::tenantViews() const {
  std::vector<TenantView> views;
  views.reserve(tenants_.size());
  for (const auto& tenant : tenants_) {
    const double current = currentBps(*tenant);
    views.push_back({tenant->name, tenant->initial_bps,
                     current > 0.0 ? current : 0.0, tenant->grows,
                     tenant->shrinks, tenant->refused, tenant->clamped,
                     tenant->estimator.current()});
  }
  return views;
}

std::vector<const gara::BandwidthBroker::PathReservation*>
QosController::managedReservations() const {
  std::vector<const gara::BandwidthBroker::PathReservation*> paths;
  paths.reserve(tenants_.size());
  for (const auto& tenant : tenants_) {
    if (tenant->active && tenant->path != nullptr) {
      paths.push_back(tenant->path);
    }
  }
  return paths;
}

void QosController::countEvent(const char* name) {
  if (metrics_ != nullptr) metrics_->counter(name).inc();
}

void QosController::traceEvent(const char* event, const std::string& tenant,
                               double value, const char* detail) {
  if (trace_ != nullptr) {
    trace_->record("adapt", event, 0, value,
                   detail[0] != '\0' ? tenant + ": " + detail : tenant);
  }
}

}  // namespace mgq::adapt
