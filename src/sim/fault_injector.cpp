#include "sim/fault_injector.hpp"

#include <cstdio>

#include "util/logging.hpp"

namespace mgq::sim {

const char* faultActionName(FaultAction a) {
  switch (a) {
    case FaultAction::kDown:
      return "down";
    case FaultAction::kUp:
      return "up";
    case FaultAction::kLossStart:
      return "loss-start";
    case FaultAction::kLossStop:
      return "loss-stop";
  }
  return "?";
}

bool faultActionFromName(const std::string& name, FaultAction& out) {
  for (FaultAction a : {FaultAction::kDown, FaultAction::kUp,
                        FaultAction::kLossStart, FaultAction::kLossStop}) {
    if (name == faultActionName(a)) {
      out = a;
      return true;
    }
  }
  return false;
}

void FaultInjector::registerTarget(const std::string& name,
                                   FaultTarget target) {
  targets_[name] = std::move(target);
}

void FaultInjector::schedule(const FaultEvent& event) {
  if (event.at <= sim_.now()) {
    fire(event);
    return;
  }
  sim_.scheduleAt(event.at, [this, event] { fire(event); });
}

void FaultInjector::schedulePlan(const std::vector<FaultEvent>& plan) {
  for (const auto& event : plan) schedule(event);
}

void FaultInjector::fire(const FaultEvent& event) {
  ++fired_;
  char line[192];
  if (event.action == FaultAction::kLossStart) {
    std::snprintf(line, sizeof(line), "t=%.6fs %s %s p=%.4f",
                  sim_.now().toSeconds(), event.target.c_str(),
                  faultActionName(event.action), event.param);
  } else {
    std::snprintf(line, sizeof(line), "t=%.6fs %s %s",
                  sim_.now().toSeconds(), event.target.c_str(),
                  faultActionName(event.action));
  }

  const auto it = targets_.find(event.target);
  if (it == targets_.end()) {
    ++skipped_;
    log_.push_back(std::string(line) + " (unregistered)");
    MGQ_LOG(kWarn) << "fault injector: no target '" << event.target << "'";
    return;
  }

  const FaultTarget& target = it->second;
  const bool actionable =
      (event.action == FaultAction::kDown && target.down) ||
      (event.action == FaultAction::kUp && target.up) ||
      (event.action == FaultAction::kLossStart && target.loss_start) ||
      (event.action == FaultAction::kLossStop && target.loss_stop);
  if (!actionable) {
    ++skipped_;
    log_.push_back(std::string(line) + " (no-op)");
    MGQ_LOG(kWarn) << "fault injector: target '" << event.target
                   << "' has no " << faultActionName(event.action)
                   << " action";
    return;
  }
  log_.push_back(line);
  MGQ_LOG(kDebug) << "fault injector: " << log_.back();

  switch (event.action) {
    case FaultAction::kDown:
      target.down();
      break;
    case FaultAction::kUp:
      target.up();
      break;
    case FaultAction::kLossStart:
      target.loss_start(event.param);
      break;
    case FaultAction::kLossStop:
      target.loss_stop();
      break;
  }
}

std::string FaultInjector::logText() const {
  std::string text;
  for (const auto& line : log_) {
    text += line;
    text += '\n';
  }
  return text;
}

std::string FaultInjector::logFooter() const {
  char line[96];
  std::snprintf(line, sizeof(line), "fired=%llu skipped_actions=%llu",
                static_cast<unsigned long long>(fired_),
                static_cast<unsigned long long>(skipped_));
  std::string footer = line;
  for (const auto& [name, fn] : footer_counters_) {
    const auto value = fn();
    if (value == 0) continue;  // zero-rate categories leave no trace
    std::snprintf(line, sizeof(line), " %s=%llu", name.c_str(),
                  static_cast<unsigned long long>(value));
    footer += line;
  }
  footer += '\n';
  return footer;
}

}  // namespace mgq::sim
