// Diagnostics over contact traces. Section III-B's metadata-validity rule
// rests on inter-contact times being (approximately) exponential; this
// quantifies how well a trace — synthetic or imported — satisfies that.
#pragma once

#include "trace/contact_trace.h"

namespace photodtn {

struct InterContactDiagnostics {
  std::size_t samples = 0;          // pooled inter-contact gaps
  double mean_s = 0.0;
  /// Coefficient of variation: 1 for exponential, >1 heavy-tailed,
  /// <1 more regular than Poisson.
  double cv = 0.0;
  /// Kolmogorov–Smirnov distance between the pooled *normalized* gaps
  /// (each divided by its pair's mean) and Exp(1). Small (< ~0.1) means the
  /// exponential assumption of eq. (1) is reasonable.
  double ks_distance = 1.0;
};

/// Pools inter-contact gaps across pairs (normalizing out pairwise rate
/// heterogeneity) and tests them against the exponential law.
InterContactDiagnostics inter_contact_diagnostics(const ContactTrace& trace);

}  // namespace photodtn
