#include "persist/codec.h"

#include <array>
#include <cstddef>
#include <cstring>

namespace photodtn::persist {

namespace {

// Slicing-by-8: table[k][b] is the CRC register after byte b followed by k
// zero bytes, so eight input bytes fold into the register with eight
// lookups instead of eight dependent steps. table[0] is the classic
// byte-at-a-time table.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    }
    table[0][i] = c;
  }
  for (std::size_t k = 1; k < table.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      table[k][i] = (table[k - 1][i] >> 8) ^ table[0][table[k - 1][i] & 0xffu];
    }
  }
  return table;
}

std::uint32_t load_le32(const unsigned char* p) noexcept {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 | std::uint32_t{p[2]} << 16 |
         std::uint32_t{p[3]} << 24;
}

}  // namespace

std::uint32_t crc32(std::string_view data) noexcept {
  static const CrcTables table = make_crc_tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t c = 0xffffffffu;
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = table[7][lo & 0xffu] ^ table[6][(lo >> 8) & 0xffu] ^
        table[5][(lo >> 16) & 0xffu] ^ table[4][lo >> 24] ^ table[3][hi & 0xffu] ^
        table[2][(hi >> 8) & 0xffu] ^ table[1][(hi >> 16) & 0xffu] ^ table[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = table[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

void StateWriter::u32(std::uint32_t v) {
  char b[4];
  b[0] = static_cast<char>(v & 0xffu);
  b[1] = static_cast<char>((v >> 8) & 0xffu);
  b[2] = static_cast<char>((v >> 16) & 0xffu);
  b[3] = static_cast<char>((v >> 24) & 0xffu);
  out_.append(b, 4);
}

void StateWriter::u64(std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xffu);
  out_.append(b, 8);
}

void StateWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void StateWriter::str(std::string_view s) {
  if (s.size() > 0xffffffffu) {
    throw SnapshotError("persist: string too long to serialize (" +
                        std::to_string(s.size()) + " bytes)");
  }
  u32(static_cast<std::uint32_t>(s.size()));
  out_.append(s.data(), s.size());
}

void StateReader::need(std::size_t n) const {
  if (remaining() < n) {
    throw SnapshotError(context_ + ": truncated at offset " +
                        std::to_string(pos_) + " (need " + std::to_string(n) +
                        " bytes, have " + std::to_string(remaining()) + ")");
  }
}

std::uint8_t StateReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t StateReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t StateReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

double StateReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool StateReader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) fail("boolean byte out of range (" + std::to_string(v) + ")");
  return v == 1;
}

std::string StateReader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s(data_.substr(pos_, n));
  pos_ += n;
  return s;
}

std::string_view StateReader::raw(std::size_t n) {
  need(n);
  std::string_view v = data_.substr(pos_, n);
  pos_ += n;
  return v;
}

void StateReader::expect_end() const {
  if (!at_end()) {
    throw SnapshotError(context_ + ": " + std::to_string(remaining()) +
                        " trailing bytes after last field");
  }
}

std::size_t StateReader::count(std::size_t min_element_bytes) {
  const std::uint64_t n = u64();
  const std::size_t per = min_element_bytes == 0 ? 1 : min_element_bytes;
  if (n > remaining() / per) {
    fail("element count " + std::to_string(n) +
         " exceeds remaining payload (" + std::to_string(remaining()) +
         " bytes, >= " + std::to_string(per) + " per element)");
  }
  return static_cast<std::size_t>(n);
}

void StateReader::fail(const std::string& what) const {
  throw SnapshotError(context_ + ": " + what + " (offset " +
                      std::to_string(pos_) + ")");
}

}  // namespace photodtn::persist
