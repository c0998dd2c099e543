#include "trace/trace_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "test_util.h"
#include "trace/synthetic_trace.h"

namespace photodtn {
namespace {

ContactTrace sample() {
  return ContactTrace{{{10.5, 60.0, 0, 1}, {20.25, 120.0, 1, 2}}, 3, 500.0};
}

TEST(TraceIo, RoundTripPreservesEverything) {
  std::stringstream ss;
  write_trace(ss, sample());
  const ContactTrace back = read_trace(ss);
  EXPECT_EQ(back.num_nodes(), 3);
  EXPECT_DOUBLE_EQ(back.horizon(), 500.0);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.contacts()[0], (Contact{10.5, 60.0, 0, 1}));
  EXPECT_EQ(back.contacts()[1], (Contact{20.25, 120.0, 1, 2}));
}

TEST(TraceIo, RoundTripsUnderAGroupingGlobalLocale) {
  const ContactTrace trace{{{2000.5, 60.0, 0, 1}, {12345.678, 300.0, 1, 2}}, 3, 252000.0};
  std::ostringstream classic;
  write_trace(classic, trace);
  EXPECT_EQ(classic.str().substr(0, classic.str().find('\n')),
            "# photodtn-trace v1 nodes=3 horizon=252000");

  const test::GroupingLocaleScope grouping;
  std::stringstream ss;  // created under the grouping locale
  write_trace(ss, trace);
  EXPECT_EQ(ss.str(), classic.str());
  const ContactTrace back = read_trace(ss);
  EXPECT_EQ(back.num_nodes(), 3);
  EXPECT_EQ(back.horizon(), 252000.0);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.contacts()[0], trace.contacts()[0]);
  EXPECT_EQ(back.contacts()[1], trace.contacts()[1]);
}

TEST(TraceIo, RejectsEmptyInput) {
  std::stringstream ss;
  EXPECT_THROW(read_trace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsMissingHeaderFields) {
  std::stringstream ss("# photodtn-trace v1 horizon=10\nstart,duration,a,b\n");
  EXPECT_THROW(read_trace(ss), std::runtime_error);
}

/// The message read_trace fails with, or "" if it accepts `text`.
std::string read_error(const std::string& text) {
  std::stringstream ss(text);
  try {
    read_trace(ss);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

std::string with_header(const std::string& fields) {
  return "# photodtn-trace v1 " + fields + "\nstart,duration,a,b\n";
}

TEST(TraceIo, RejectsHorizonThatIsNotFiniteAndNonNegative) {
  // inf would make the sampling loop run forever; the rest are junk.
  for (const char* h : {"inf", "-inf", "nan", "-1", "1e400", "10abc", ""}) {
    const std::string err = read_error(with_header(std::string("nodes=3 horizon=") + h));
    EXPECT_NE(err.find("malformed trace file: horizon="), std::string::npos)
        << "horizon=" << h << ": " << err;
  }
}

TEST(TraceIo, RejectsNodeCountOutsideTwoToOneHundredThousand) {
  // 4294967298 used to wrap to 2; abc used to die with a bare stol error.
  // 2147483647 used to load and then size the simulator's per-node state
  // by that count.
  for (const char* n : {"100001", "2147483647", "4294967298", "2147483648",
                        "99999999999999999999", "1", "0", "-3", "abc", "12x", "2.5", ""}) {
    const std::string err = read_error(with_header(std::string("nodes=") + n));
    EXPECT_NE(err.find("malformed trace file: nodes="), std::string::npos)
        << "nodes=" << n << ": " << err;
  }
  std::stringstream ss(with_header("nodes=100000 horizon=10"));
  EXPECT_EQ(read_trace(ss).num_nodes(), 100000);
}

TEST(TraceIo, RejectsMalformedRow) {
  // A row is exactly start,duration,a,b: four comma-separated whole tokens,
  // with finite times.
  for (const char* row :
       {"not-a-number", "50;2;0;1junk", "50,2,0,1junk", "50,2,0,1,7", "50,2,0.5,1",
        "inf,2,0,1", "-inf,2,0,1", "nan,2,0,1", "50,inf,0,1", "50,nan,0,1", "50,2,0",
        "50,,0,1"}) {
    const std::string err =
        read_error(with_header("nodes=10 horizon=100") + row + "\n");
    EXPECT_NE(err.find("malformed trace file: bad row at line 3"), std::string::npos)
        << row << ": " << err;
  }
}

TEST(TraceIo, AcceptsCrlfLineEndings) {
  std::stringstream ss(
      "# photodtn-trace v1 nodes=3 horizon=10\r\nstart,duration,a,b\r\n"
      "1.5,2,0,1\r\n\r\n");
  const ContactTrace t = read_trace(ss);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.contacts()[0], (Contact{1.5, 2.0, 0, 1}));
}

TEST(TraceIo, SkipsCommentsAndBlankLines) {
  std::stringstream ss(
      "# photodtn-trace v1 nodes=3 horizon=10\nstart,duration,a,b\n"
      "# comment\n\n1.0,2.0,0,1\n");
  const ContactTrace t = read_trace(ss);
  EXPECT_EQ(t.size(), 1u);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/photodtn_trace_test.csv";
  ASSERT_TRUE(write_trace_file(path, sample()));
  const ContactTrace back = read_trace_file(path);
  EXPECT_EQ(back.size(), 2u);
  EXPECT_THROW(read_trace_file("/nonexistent/nope.csv"), std::runtime_error);
}

TEST(TraceIo, SyntheticTraceSurvivesRoundTrip) {
  SyntheticTraceConfig cfg;
  cfg.num_participants = 8;
  cfg.duration_s = 10.0 * 3600.0;
  cfg.base_pair_rate_per_hour = 0.2;
  const ContactTrace t = generate_synthetic_trace(cfg);
  std::stringstream ss;
  write_trace(ss, t);
  const ContactTrace back = read_trace(ss);
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(back.contacts()[i], t.contacts()[i]);
}

}  // namespace
}  // namespace photodtn
