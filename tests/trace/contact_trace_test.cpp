#include "trace/contact_trace.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace photodtn {
namespace {

ContactTrace simple_trace() {
  return ContactTrace{{{100.0, 60.0, 1, 2},
                       {50.0, 30.0, 0, 1},
                       {200.0, 10.0, 2, 3},
                       {300.0, 60.0, 1, 2}},
                      /*num_nodes=*/4,
                      /*horizon=*/1000.0};
}

TEST(ContactTrace, SortsByStartTime) {
  const ContactTrace t = simple_trace();
  ASSERT_EQ(t.size(), 4u);
  for (std::size_t i = 1; i < t.size(); ++i)
    EXPECT_LE(t.contacts()[i - 1].start, t.contacts()[i].start);
  EXPECT_DOUBLE_EQ(t.contacts().front().start, 50.0);
}

TEST(ContactTrace, ValidatesEndpoints) {
  EXPECT_THROW((ContactTrace{{{0.0, 1.0, 1, 1}}, 3, 10.0}), std::logic_error);
  EXPECT_THROW((ContactTrace{{{0.0, 1.0, 1, 5}}, 3, 10.0}), std::logic_error);
  EXPECT_THROW((ContactTrace{{{-1.0, 1.0, 1, 2}}, 3, 10.0}), std::logic_error);
  EXPECT_THROW((ContactTrace{{}, 1, 10.0}), std::logic_error);
}

TEST(ContactTrace, StatsCountCommandCenterContacts) {
  const TraceStats s = simple_trace().stats();
  EXPECT_EQ(s.contacts, 4u);
  EXPECT_EQ(s.command_center_contacts, 1u);
  EXPECT_EQ(s.pairs_with_contact, 3u);
  EXPECT_DOUBLE_EQ(s.mean_duration, 40.0);
  // Only pair (1,2) repeats: inter-contact 300 - 100 = 200.
  EXPECT_DOUBLE_EQ(s.mean_inter_contact, 200.0);
}

TEST(ContactTrace, WithMaxDurationCaps) {
  const ContactTrace capped = simple_trace().with_max_duration(20.0);
  for (const Contact& c : capped.contacts()) EXPECT_LE(c.duration, 20.0);
  // Shorter contacts are untouched.
  EXPECT_DOUBLE_EQ(capped.contacts()[2].duration, 10.0);
}

TEST(Contact, Helpers) {
  const Contact c{10.0, 5.0, 3, 7};
  EXPECT_DOUBLE_EQ(c.end(), 15.0);
  EXPECT_TRUE(c.involves(3));
  EXPECT_TRUE(c.involves(7));
  EXPECT_FALSE(c.involves(1));
}

}  // namespace
}  // namespace photodtn
