#include "schemes/factory.h"

#include <stdexcept>

#include "schemes/best_possible.h"
#include "schemes/epidemic.h"
#include "schemes/modified_spray.h"
#include "schemes/prophet_routing.h"
#include "schemes/our_scheme.h"
#include "schemes/photonet.h"
#include "schemes/spray_and_wait.h"

namespace photodtn {

std::unique_ptr<Scheme> make_scheme(const std::string& name,
                                    const SchemeOptions& options) {
  if (name == "OurScheme") {
    OurSchemeConfig cfg;
    cfg.p_thld = options.p_thld;
    return std::make_unique<OurScheme>(cfg);
  }
  if (name == "NoMetadata") {
    OurSchemeConfig cfg;
    cfg.p_thld = options.p_thld;
    cfg.metadata_enabled = false;
    return std::make_unique<OurScheme>(cfg);
  }
  if (name == "Spray&Wait")
    return std::make_unique<SprayAndWaitScheme>(options.spray_copies);
  if (name == "ModifiedSpray")
    return std::make_unique<ModifiedSprayScheme>(options.spray_copies);
  if (name == "PhotoNet") return std::make_unique<PhotoNetScheme>();
  if (name == "BestPossible") return std::make_unique<BestPossibleScheme>();
  if (name == "Epidemic") return std::make_unique<EpidemicScheme>();
  if (name == "PROPHET") return std::make_unique<ProphetRoutingScheme>();
  throw std::invalid_argument("unknown scheme: " + name);
}

const std::vector<std::string>& factory_scheme_names() {
  static const std::vector<std::string> names = {
      "OurScheme", "NoMetadata",   "Spray&Wait", "ModifiedSpray",
      "PhotoNet",  "BestPossible", "Epidemic",   "PROPHET"};
  return names;
}

std::vector<std::string> simulation_scheme_names() {
  return {"BestPossible", "OurScheme", "NoMetadata", "ModifiedSpray", "Spray&Wait"};
}

std::vector<std::string> demo_scheme_names() {
  return {"OurScheme", "PhotoNet", "Spray&Wait"};
}

}  // namespace photodtn
