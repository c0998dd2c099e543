// Scheme factory used by the experiment runner and benches.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dtn/scheme.h"

namespace photodtn {

/// Scheme parameters the scenario controls (Table I).
struct SchemeOptions {
  /// Metadata validity threshold for OurScheme/NoMetadata.
  double p_thld = 0.8;
  /// Copies per photo for the spray baselines.
  std::uint32_t spray_copies = 4;
};

/// One of factory_scheme_names(). Throws std::invalid_argument on an
/// unknown name.
std::unique_ptr<Scheme> make_scheme(const std::string& name,
                                    const SchemeOptions& options = {});

/// Every name make_scheme builds: "OurScheme", "NoMetadata", "Spray&Wait",
/// "ModifiedSpray", "PhotoNet", "BestPossible", plus the extra
/// content-agnostic baselines "Epidemic" and "PROPHET".
const std::vector<std::string>& factory_scheme_names();

/// The five schemes of the Section V comparison, in the paper's order.
std::vector<std::string> simulation_scheme_names();

/// The three schemes of the Section IV prototype demo.
std::vector<std::string> demo_scheme_names();

}  // namespace photodtn
