#include "dlb/snapshot/snapshot.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace dlb::snapshot {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw contract_violation("snapshot: " + message);
}

std::string tag_name(field_tag t) {
  switch (t) {
    case field_tag::u8: return "u8";
    case field_tag::u64: return "u64";
    case field_tag::i64: return "i64";
    case field_tag::f64: return "f64";
    case field_tag::str: return "str";
    case field_tag::vec_i64: return "vec_i64";
    case field_tag::vec_f64: return "vec_f64";
    case field_tag::section: return "section";
  }
  return "tag(" + std::to_string(static_cast<int>(t)) + ")";
}

constexpr std::size_t header_size = 8 + 4 + 8 + 8;

}  // namespace

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t k = 0; k < size; ++k) {
    h ^= data[k];
    h *= 0x100000001b3ull;
  }
  return h;
}

// ---- writer -----------------------------------------------------------------

void writer::tag(field_tag t) {
  buf_.push_back(static_cast<std::uint8_t>(t));
}

void writer::raw_u32(std::uint32_t v) {
  for (int b = 0; b < 4; ++b) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }
}

void writer::raw_u64(std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }
}

void writer::begin_vec(field_tag t, std::size_t count) {
  tag(t);
  raw_u64(static_cast<std::uint64_t>(count));
}

void writer::section(std::string_view name) {
  tag(field_tag::section);
  raw_u64(name.size());
  buf_.insert(buf_.end(), name.begin(), name.end());
}

void writer::u8(std::uint8_t v) {
  tag(field_tag::u8);
  buf_.push_back(v);
}

void writer::u64(std::uint64_t v) {
  tag(field_tag::u64);
  raw_u64(v);
}

void writer::i64(std::int64_t v) {
  tag(field_tag::i64);
  raw_u64(static_cast<std::uint64_t>(v));
}

void writer::f64(double v) {
  tag(field_tag::f64);
  raw_u64(std::bit_cast<std::uint64_t>(v));
}

void writer::str(std::string_view s) {
  tag(field_tag::str);
  raw_u64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void writer::vec_f64(const std::vector<double>& v) {
  begin_vec(field_tag::vec_f64, v.size());
  for (const double x : v) raw_u64(std::bit_cast<std::uint64_t>(x));
}

std::vector<std::uint8_t> writer::framed() const {
  std::vector<std::uint8_t> out;
  out.reserve(header_size + buf_.size());
  // Byte-wise on purpose: a ranged insert from the char array trips a GCC 12
  // -O2 false positive (-Wstringop-overflow "writing 8 bytes into a region
  // of size 7"), which -Werror builds would reject.
  for (const char c : magic) out.push_back(static_cast<std::uint8_t>(c));
  const std::uint32_t version = format_version;
  for (int b = 0; b < 4; ++b) {
    out.push_back(static_cast<std::uint8_t>(version >> (8 * b)));
  }
  const auto size = static_cast<std::uint64_t>(buf_.size());
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<std::uint8_t>(size >> (8 * b)));
  }
  const std::uint64_t checksum = fnv1a(buf_.data(), buf_.size());
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<std::uint8_t>(checksum >> (8 * b)));
  }
  out.insert(out.end(), buf_.begin(), buf_.end());
  return out;
}

void writer::save_file(const std::string& path) const {
  const std::vector<std::uint8_t> bytes = framed();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) fail("cannot open " + tmp + " for writing");
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) fail("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    fail("cannot rename " + tmp + " to " + path);
  }
}

// ---- reader -----------------------------------------------------------------

reader::reader(std::vector<std::uint8_t> payload) : buf_(std::move(payload)) {}

reader reader::from_bytes(const std::vector<std::uint8_t>& framed) {
  if (framed.size() < header_size) {
    fail("truncated: " + std::to_string(framed.size()) +
         " bytes is shorter than the header");
  }
  if (std::memcmp(framed.data(), magic, sizeof(magic)) != 0) {
    fail("bad magic (not a dlb snapshot)");
  }
  std::uint32_t version = 0;
  for (int b = 0; b < 4; ++b) {
    version |= static_cast<std::uint32_t>(framed[8 + static_cast<std::size_t>(b)])
               << (8 * b);
  }
  if (version != format_version) {
    fail("version " + std::to_string(version) + " unsupported (expected " +
         std::to_string(format_version) + ")");
  }
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
  for (int b = 0; b < 8; ++b) {
    size |= static_cast<std::uint64_t>(framed[12 + static_cast<std::size_t>(b)])
            << (8 * b);
    checksum |=
        static_cast<std::uint64_t>(framed[20 + static_cast<std::size_t>(b)])
        << (8 * b);
  }
  if (framed.size() != header_size + size) {
    fail("truncated: header promises " + std::to_string(size) +
         " payload bytes, file carries " +
         std::to_string(framed.size() - header_size));
  }
  std::vector<std::uint8_t> payload(framed.begin() + header_size,
                                    framed.end());
  if (fnv1a(payload.data(), payload.size()) != checksum) {
    fail("checksum mismatch (payload corrupted)");
  }
  return reader(std::move(payload));
}

reader reader::from_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open " + path);
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return from_bytes(bytes);
}

void reader::need(std::size_t bytes) const {
  // pos_ never exceeds the payload, so the subtraction cannot wrap — unlike
  // pos_ + bytes for a hostile length field near 2^64.
  if (bytes > buf_.size() - pos_) {
    fail("payload exhausted (needed " + std::to_string(bytes) +
         " more bytes at offset " + std::to_string(pos_) + ")");
  }
}

void reader::expect_tag(field_tag t) {
  need(1);
  const auto found = static_cast<field_tag>(buf_[pos_]);
  if (found != t) {
    fail("expected " + tag_name(t) + " at offset " + std::to_string(pos_) +
         ", found " + tag_name(found));
  }
  ++pos_;
}

std::uint64_t reader::raw_u64() {
  need(8);
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b) {
    v |= static_cast<std::uint64_t>(buf_[pos_ + static_cast<std::size_t>(b)])
         << (8 * b);
  }
  pos_ += 8;
  return v;
}

std::uint64_t reader::begin_vec(field_tag t) {
  expect_tag(t);
  const std::uint64_t count = raw_u64();
  // Every element is 8 payload bytes: a count the rest of the payload
  // cannot hold is corrupt, and must fail before anything is sized by it.
  const std::size_t left = buf_.size() - pos_;
  if (count > left / 8) {
    fail("vector of " + std::to_string(count) + " elements at offset " +
         std::to_string(pos_) + " exceeds the " + std::to_string(left) +
         " payload bytes left");
  }
  return count;
}

void reader::expect_section(std::string_view name) {
  expect_tag(field_tag::section);
  const std::uint64_t len = raw_u64();
  need(len);
  const std::string found(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                          buf_.begin() +
                              static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += len;
  if (found != name) {
    fail("expected section '" + std::string(name) + "', found '" + found +
         "'");
  }
}

std::uint8_t reader::u8() {
  expect_tag(field_tag::u8);
  need(1);
  return buf_[pos_++];
}

std::uint64_t reader::u64() {
  expect_tag(field_tag::u64);
  return raw_u64();
}

std::int64_t reader::i64() {
  expect_tag(field_tag::i64);
  return static_cast<std::int64_t>(raw_u64());
}

double reader::f64() {
  expect_tag(field_tag::f64);
  return std::bit_cast<double>(raw_u64());
}

std::string reader::str() {
  expect_tag(field_tag::str);
  const std::uint64_t len = raw_u64();
  need(len);
  std::string s(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += len;
  return s;
}

std::vector<double> reader::vec_f64() {
  const std::uint64_t count = begin_vec(field_tag::vec_f64);
  std::vector<double> v;
  v.reserve(count);
  for (std::uint64_t k = 0; k < count; ++k) {
    v.push_back(std::bit_cast<double>(raw_u64()));
  }
  return v;
}

void reader::expect_u64(std::uint64_t expected, std::string_view what) {
  const std::uint64_t found = u64();
  if (found != expected) {
    fail(std::string(what) + " mismatch: snapshot has " +
         std::to_string(found) + ", this object has " +
         std::to_string(expected));
  }
}

void reader::expect_str(std::string_view expected, std::string_view what) {
  const std::string found = str();
  if (found != expected) {
    fail(std::string(what) + " mismatch: snapshot has '" + found +
         "', this object has '" + std::string(expected) + "'");
  }
}

}  // namespace dlb::snapshot
