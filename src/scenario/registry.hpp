// ScenarioRegistry: names the paper's figures/tables/ablations as
// canonical specs so the CLI and the suites can look experiments up,
// list them, and expand sweeps over them.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "scenario/spec.hpp"

namespace mgq::scenario {

struct ScenarioInfo {
  std::string name;
  std::string title;
  std::string paper_ref;
  std::function<ScenarioSpec()> make;
};

class ScenarioRegistry {
 public:
  /// Registers (or replaces) an entry under info.name.
  void add(ScenarioInfo info);

  const ScenarioInfo* find(const std::string& name) const;
  /// Entries sorted by name whose name contains `filter` ("" = all).
  std::vector<const ScenarioInfo*> list(const std::string& filter = {}) const;
  std::size_t size() const { return entries_.size(); }

  /// The registry of paper scenarios (populated by catalog.cpp).
  static const ScenarioRegistry& paper();

 private:
  std::map<std::string, ScenarioInfo> entries_;
};

/// Adds every paper figure/table/ablation spec to `registry`
/// (catalog.cpp; called once by ScenarioRegistry::paper()).
void registerPaperScenarios(ScenarioRegistry& registry);

}  // namespace mgq::scenario
