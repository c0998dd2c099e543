#include "util/args.h"

#include <cmath>
#include <stdexcept>

namespace photodtn {

Args Args::parse(int argc, const char* const* argv) {
  Args out;
  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    if (tok.size() > 1 && tok[0] == '-' && tok.rfind("--", 0) != 0) {
      // A single-dash token would otherwise pass as a positional and the
      // intended option would silently keep its default.
      throw std::runtime_error("unknown option '" + tok +
                               "' (options are spelled --name)");
    }
    if (tok.rfind("--", 0) == 0) {
      const std::string key = tok.substr(2);
      if (key.empty()) throw std::runtime_error("empty option name '--'");
      const bool has_value =
          i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0;
      if (has_value) {
        out.options_[key] = argv[++i];
      } else {
        out.options_[key] = "true";  // boolean flag
      }
    } else if (out.command_.empty()) {
      out.command_ = tok;
    } else {
      out.positionals_.push_back(tok);
    }
  }
  return out;
}

std::string Args::get(const std::string& key, const std::string& fallback) const {
  queried_[key] = true;
  const auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

std::int64_t Args::get_int(const std::string& key, std::int64_t fallback) const {
  queried_[key] = true;
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  // stoll itself throws bare invalid_argument/out_of_range ("stoll") —
  // useless in a CLI error; re-raise with the option name and value.
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument("trailing junk");
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error("option --" + key + " expects an integer, got '" +
                             it->second + "'");
  }
}

double Args::get_double(const std::string& key, double fallback) const {
  queried_[key] = true;
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  double v = 0.0;
  try {
    std::size_t pos = 0;
    v = std::stod(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument("trailing junk");
  } catch (const std::exception&) {
    throw std::runtime_error("option --" + key + " expects a number, got '" +
                             it->second + "'");
  }
  // stod accepts "nan" and "inf", which slip past every range check (NaN
  // fails all comparisons, inf passes ">= 0").
  if (!std::isfinite(v)) {
    throw std::runtime_error("option --" + key + " expects a finite number, got '" +
                             it->second + "'");
  }
  return v;
}

std::vector<std::string> Args::unused_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : options_)
    if (!queried_.count(key)) out.push_back(key);
  return out;
}

}  // namespace photodtn
