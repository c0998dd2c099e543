// Unit tests for the snapshot codec (persist/codec.h): little-endian
// layout, double bit-pattern round trips, bounds-checked reads, and the
// allocation-bomb count guard.
#include "persist/codec.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <string_view>

namespace photodtn::persist {
namespace {

/// The byte-at-a-time CRC-32 that crc32() replaced, kept as its oracle.
std::uint32_t crc32_bytewise(std::string_view data) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xffffffffu;
  for (const unsigned char byte : data) c = table[(c ^ byte) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

TEST(Codec, Crc32KnownVectors) {
  // Standard zlib CRC-32 check values.
  EXPECT_EQ(crc32(""), 0x00000000u);
  EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog"), 0x414fa339u);

  // Every length across the 8-byte blocks and the tail, at every alignment,
  // and one long buffer, all against the byte-at-a-time oracle.
  std::mt19937_64 gen(7);
  std::string bytes(1 << 20, '\0');
  for (char& b : bytes) b = static_cast<char>(gen());
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::string_view slice(bytes.data() + start, len);
      EXPECT_EQ(crc32(slice), crc32_bytewise(slice)) << "start " << start << " len " << len;
    }
  }
  EXPECT_EQ(crc32(bytes), crc32_bytewise(bytes));
}

TEST(Codec, RoundTripsEveryPrimitive) {
  StateWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.i32(-7);
  w.i64(-1234567890123LL);
  w.f64(3.141592653589793);
  w.boolean(true);
  w.boolean(false);
  w.str("hello");
  w.str("");

  StateReader r(w.bytes(), "test");
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -7);
  EXPECT_EQ(r.i64(), -1234567890123LL);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.at_end());
  EXPECT_NO_THROW(r.expect_end());
}

TEST(Codec, LittleEndianLayout) {
  StateWriter w;
  w.u32(0x04030201u);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.bytes()[0], '\x01');
  EXPECT_EQ(w.bytes()[3], '\x04');
}

TEST(Codec, DoubleBitPatternsSurvive) {
  const double values[] = {0.0, -0.0, 1e-300, -1e300,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min()};
  StateWriter w;
  for (const double v : values) w.f64(v);
  w.f64(std::nan(""));
  StateReader r(w.bytes(), "test");
  for (const double v : values) EXPECT_EQ(r.f64(), v);
  EXPECT_TRUE(std::isnan(r.f64()));
  // -0.0 must round-trip as -0.0, not 0.0 (bit pattern, not value).
  StateWriter w2;
  w2.f64(-0.0);
  StateReader r2(w2.bytes(), "test");
  EXPECT_TRUE(std::signbit(r2.f64()));
}

TEST(Codec, TruncatedReadsThrowWithContext) {
  StateWriter w;
  w.u32(7);
  StateReader r(std::string_view(w.bytes()).substr(0, 2), "my section");
  try {
    r.u32();
    FAIL() << "truncated read was accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("my section"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(Codec, StringLengthIsBoundsChecked) {
  StateWriter w;
  w.u32(1000);  // claims 1000 bytes follow
  w.raw("abc");
  StateReader r(w.bytes(), "test");
  EXPECT_THROW(r.str(), SnapshotError);
}

TEST(Codec, ExpectEndRejectsTrailingBytes) {
  StateWriter w;
  w.u8(1);
  w.u8(2);
  StateReader r(w.bytes(), "test");
  r.u8();
  EXPECT_THROW(r.expect_end(), SnapshotError);
}

TEST(Codec, CountGuardsAgainstAllocationBombs) {
  StateWriter w;
  w.u64(std::numeric_limits<std::uint64_t>::max());
  StateReader r(w.bytes(), "test");
  // Claims ~2^64 elements of >= 8 bytes with zero bytes remaining.
  EXPECT_THROW(r.count(8), SnapshotError);

  StateWriter ok;
  ok.u64(2);
  ok.u64(10);
  ok.u64(20);
  StateReader r2(ok.bytes(), "test");
  EXPECT_EQ(r2.count(8), 2u);
  EXPECT_EQ(r2.u64(), 10u);
  EXPECT_EQ(r2.u64(), 20u);
}

TEST(Codec, FailReportsContextAndOffset) {
  StateReader r("abcd", "NODE section");
  try {
    r.fail("bad things");
    FAIL();
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("NODE section"), std::string::npos);
    EXPECT_NE(what.find("bad things"), std::string::npos);
    EXPECT_NE(what.find("offset 0"), std::string::npos);
  }
}

}  // namespace
}  // namespace photodtn::persist
