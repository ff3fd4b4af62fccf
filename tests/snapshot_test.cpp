// dlb::snapshot — the framing the grid checkpoint is stored in, attacked
// from every angle: golden header and tag bytes, every field type's round
// trip, truncation, bit flips, wrong magic and version, tag and section
// drift, hostile length fields under a valid checksum, and atomic saves.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "dlb/common/contracts.hpp"
#include "dlb/snapshot/snapshot.hpp"

namespace dlb {
namespace {

// ------------------------------------------------------- wire format

TEST(SnapshotFormatTest, GoldenHeaderBytesArePinned) {
  snapshot::writer w;
  w.section("hdr");
  w.u64(7);
  const std::vector<std::uint8_t> framed = w.framed();
  // Offsets 0..7: magic. 8..11: version (LE u32). Pinned — changing either
  // is a wire-format break and must come with a format_version bump, after
  // which checkpoints written by earlier builds no longer load.
  ASSERT_GE(framed.size(), 28u);
  EXPECT_EQ(0, std::memcmp(framed.data(), "DLBSNAP\0", 8));
  EXPECT_EQ(framed[8], 1u);
  EXPECT_EQ(framed[9], 0u);
  EXPECT_EQ(framed[10], 0u);
  EXPECT_EQ(framed[11], 0u);
}

TEST(SnapshotFormatTest, AllFieldTypesRoundTrip) {
  snapshot::writer w;
  w.section("everything");
  w.u64(0xdeadbeefcafe);
  w.str(std::string("a string with \0 inside", 22));
  // The tag bytes are v1's (section 8, u64 2, str 5): checkpoints written by
  // earlier builds keep loading.
  const std::vector<std::uint8_t>& payload = w.payload();
  ASSERT_EQ(payload.size(), (1 + 8 + 10) + (1 + 8) + (1 + 8 + 22));
  EXPECT_EQ(payload[0], 8u);
  EXPECT_EQ(payload[19], 2u);
  EXPECT_EQ(payload[28], 5u);

  snapshot::reader r = snapshot::reader::from_bytes(w.framed());
  r.expect_section("everything");
  EXPECT_EQ(r.u64(), 0xdeadbeefcafeu);
  EXPECT_EQ(r.str(), std::string("a string with \0 inside", 22));
  EXPECT_THROW((void)r.u64(), contract_violation);  // payload exhausted
}

TEST(SnapshotFormatTest, TruncatedFilesFailWithOneLine) {
  snapshot::writer w;
  w.section("s");
  w.str(std::string(512, 'x'));
  const std::vector<std::uint8_t> framed = w.framed();
  // Below the header: "shorter than the header". Above it but below the
  // promised payload: "file carries".
  for (const std::size_t keep : {0u, 5u, 27u}) {
    const std::vector<std::uint8_t> cut(framed.begin(),
                                        framed.begin() + keep);
    EXPECT_THROW((void)snapshot::reader::from_bytes(cut), contract_violation);
  }
  try {
    const std::vector<std::uint8_t> cut(framed.begin(), framed.end() - 9);
    (void)snapshot::reader::from_bytes(cut);
    FAIL() << "truncated payload must not parse";
  } catch (const contract_violation& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(SnapshotFormatTest, BitFlippedPayloadFailsChecksum) {
  snapshot::writer w;
  w.section("s");
  w.u64(1234567);
  std::vector<std::uint8_t> framed = w.framed();
  framed[framed.size() - 3] ^= 0x10;  // flip one payload bit
  try {
    (void)snapshot::reader::from_bytes(framed);
    FAIL() << "corrupted payload must not parse";
  } catch (const contract_violation& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(SnapshotFormatTest, WrongMagicAndVersionAreRejected) {
  snapshot::writer w;
  w.u64(1);
  std::vector<std::uint8_t> bad_magic = w.framed();
  bad_magic[0] = 'X';
  EXPECT_THROW((void)snapshot::reader::from_bytes(bad_magic),
               contract_violation);
  std::vector<std::uint8_t> bad_version = w.framed();
  bad_version[8] = 99;
  try {
    (void)snapshot::reader::from_bytes(bad_version);
    FAIL() << "unknown version must not parse";
  } catch (const contract_violation& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(SnapshotFormatTest, TagAndSectionMismatchesNameTheDrift) {
  snapshot::writer w;
  w.section("ledger");
  w.u64(3);
  snapshot::reader wrong_section = snapshot::reader::from_bytes(w.framed());
  EXPECT_THROW(wrong_section.expect_section("tasks"), contract_violation);
  snapshot::reader wrong_tag = snapshot::reader::from_bytes(w.framed());
  wrong_tag.expect_section("ledger");
  try {
    (void)wrong_tag.str();  // wrote u64
    FAIL() << "a u64 must not read as a string";
  } catch (const contract_violation& e) {
    EXPECT_NE(std::string(e.what()).find("expected str"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("found u64"), std::string::npos)
        << e.what();
  }
}

/// `framed` with the u64 at payload offset `at` replaced by `v` and the
/// checksum recomputed: a hostile length field that passes every frame
/// check, so only the reader's own bounds can stop it.
std::vector<std::uint8_t> with_payload_u64(std::vector<std::uint8_t> framed,
                                           std::size_t at, std::uint64_t v) {
  constexpr std::size_t header = 28;  // magic, version, size, checksum
  for (std::size_t b = 0; b < 8; ++b) {
    framed[header + at + b] = static_cast<std::uint8_t>(v >> (8 * b));
  }
  const std::uint64_t sum =
      snapshot::fnv1a(framed.data() + header, framed.size() - header);
  for (std::size_t b = 0; b < 8; ++b) {
    framed[20 + b] = static_cast<std::uint8_t>(sum >> (8 * b));
  }
  return framed;
}

void expect_one_line_violation(const std::function<void()>& read,
                               const std::string& what) {
  try {
    read();
    FAIL() << what << " must not parse";
  } catch (const contract_violation& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;
    EXPECT_EQ(msg.rfind("snapshot: ", 0), 0u) << msg;
  }
}

TEST(SnapshotFormatTest, HostileLengthFieldsFailWithOneLine) {
  // Payload offset 1 is the length right after the first field's tag byte.
  constexpr std::uint64_t max_len = ~std::uint64_t{0};
  snapshot::writer text;
  text.str("abc");
  const auto text_bomb = with_payload_u64(text.framed(), 1, max_len);
  expect_one_line_violation(
      [&] { (void)snapshot::reader::from_bytes(text_bomb).str(); },
      "a (2^64-1)-byte string");

  snapshot::writer sec;
  sec.section("s");
  const auto sec_bomb = with_payload_u64(sec.framed(), 1, max_len);
  expect_one_line_violation(
      [&] { snapshot::reader::from_bytes(sec_bomb).expect_section("s"); },
      "a (2^64-1)-byte section name");
}

TEST(SnapshotFormatTest, SaveFileIsAtomicAndRoundTrips) {
  const std::string path = ::testing::TempDir() + "snapshot_atomic.ckpt";
  snapshot::writer first;
  first.section("v");
  first.u64(1);
  first.save_file(path);
  snapshot::writer second;
  second.section("v");
  second.u64(2);
  second.save_file(path);  // overwrites via tmp + rename
  snapshot::reader r = snapshot::reader::from_file(path);
  r.expect_section("v");
  EXPECT_EQ(r.u64(), 2u);
  std::remove(path.c_str());
  EXPECT_THROW((void)snapshot::reader::from_file(path), contract_violation);
}

}  // namespace
}  // namespace dlb
