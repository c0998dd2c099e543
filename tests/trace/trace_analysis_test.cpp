#include "trace/trace_analysis.h"

#include <gtest/gtest.h>

#include "trace/synthetic_trace.h"
#include "util/rng.h"

namespace photodtn {
namespace {

TEST(TraceAnalysis, ExponentialGapsPassTheDiagnostics) {
  // Build a trace with genuinely exponential pairwise gaps; the KS distance
  // against Exp(1) must be small and CV near 1.
  Rng rng(42);
  std::vector<Contact> contacts;
  for (NodeId a = 1; a <= 6; ++a) {
    for (NodeId b = a + 1; b <= 6; ++b) {
      const double rate = rng.uniform(0.5, 3.0) / 3600.0;  // heterogeneous!
      double t = rng.exponential(rate);
      while (t < 400.0 * 3600.0) {
        contacts.push_back(Contact{t, 60.0, a, b});
        t += rng.exponential(rate);
      }
    }
  }
  const ContactTrace trace{std::move(contacts), 7, 400.0 * 3600.0};
  const auto d = inter_contact_diagnostics(trace);
  ASSERT_GT(d.samples, 2000u);
  EXPECT_LT(d.ks_distance, 0.05);
  // Raw CV exceeds 1 because rates are heterogeneous; the KS statistic
  // normalizes that out, which is exactly why we pool normalized gaps.
}

TEST(TraceAnalysis, RegularGapsFailTheDiagnostics) {
  // Perfectly periodic contacts are maximally non-exponential.
  std::vector<Contact> contacts;
  for (int i = 0; i < 200; ++i) contacts.push_back(Contact{i * 100.0, 10.0, 1, 2});
  const ContactTrace trace{std::move(contacts), 3, 20000.0};
  const auto d = inter_contact_diagnostics(trace);
  EXPECT_GT(d.ks_distance, 0.3);
  EXPECT_LT(d.cv, 0.1);
}

TEST(TraceAnalysis, SyntheticGeneratorSatisfiesEquationOnePremise) {
  // The substitution argument of DESIGN.md: our synthetic traces must have
  // (approximately) exponential pairwise inter-contact times, because
  // that's the assumption behind the metadata-validity rule.
  SyntheticTraceConfig cfg;
  cfg.num_participants = 24;
  cfg.duration_s = 400.0 * 3600.0;
  cfg.base_pair_rate_per_hour = 0.05;
  cfg.seed = 3;
  const ContactTrace trace = generate_synthetic_trace(cfg);
  const auto d = inter_contact_diagnostics(trace);
  ASSERT_GT(d.samples, 1000u);
  // Scan-interval quantization and duration-censoring perturb the tail a
  // little; the distance should still be small.
  EXPECT_LT(d.ks_distance, 0.12);
}

TEST(TraceAnalysis, EmptyishTraceIsHandled) {
  const ContactTrace t{{{1.0, 1.0, 0, 1}}, 2, 10.0};
  const auto d = inter_contact_diagnostics(t);
  EXPECT_EQ(d.samples, 0u);
  EXPECT_EQ(d.ks_distance, 1.0);
}

}  // namespace
}  // namespace photodtn
