// dlb::snapshot — versioned, checksummed binary framing. The grid
// checkpoint (runtime/grid_checkpoint.hpp) stores its finished rows in it.
//
// Wire format, all little-endian fixed width:
//   [8-byte magic "DLBSNAP\0"] [u32 version] [u64 payload size]
//   [u64 FNV-1a checksum of payload] [payload]
// The payload is a stream of tagged fields (a 1-byte type tag before every
// value) so truncation, reordering, or schema drift is caught at the exact
// field — reads throw contract_violation with a one-line message, never UB.
// Files are written atomically (tmp + rename): a crash mid-write leaves the
// previous snapshot intact.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dlb/common/contracts.hpp"

namespace dlb::snapshot {

/// File magic, first 8 bytes of every snapshot.
inline constexpr char magic[8] = {'D', 'L', 'B', 'S', 'N', 'A', 'P', '\0'};

/// Format version. Bump on any wire-format change; readers reject other
/// versions with a one-line error (tests pin it).
inline constexpr std::uint32_t format_version = 1;

/// Field type tags (1 byte before every payload value). The values are
/// part of format v1; tags 1, 3, 4, 6 and 7 belonged to field types no
/// writer uses any more and stay unassigned.
enum class field_tag : std::uint8_t {
  u64 = 2,
  str = 5,
  section = 8,
};

/// Accumulates a snapshot payload in memory; `save_file` frames and writes
/// it atomically.
class writer {
 public:
  /// Named section marker: readers must consume it with expect_section, so
  /// a writer/reader schema mismatch reports *which* component drifted.
  void section(std::string_view name);

  void u64(std::uint64_t v);
  void str(std::string_view s);

  [[nodiscard]] const std::vector<std::uint8_t>& payload() const {
    return buf_;
  }

  /// Frames the payload (magic, version, size, checksum) and writes it to
  /// `path` atomically: the bytes land in `path + ".tmp"` first and are
  /// renamed over `path` only after a successful close, so a crash — even a
  /// SIGKILL — mid-write never corrupts an existing snapshot.
  void save_file(const std::string& path) const;

  /// The framed bytes (header + payload), as save_file would write them.
  [[nodiscard]] std::vector<std::uint8_t> framed() const;

 private:
  void tag(field_tag t);
  void raw_u64(std::uint64_t v);

  std::vector<std::uint8_t> buf_;
};

/// Reads a snapshot payload back, validating every field tag. All failure
/// modes — wrong magic, version, truncation, checksum mismatch, field-type
/// or section-name mismatch — throw contract_violation with a one-line
/// message naming what was expected and what was found.
class reader {
 public:
  /// Wraps a raw payload (as writer::payload() produced).
  explicit reader(std::vector<std::uint8_t> payload);

  /// Validates framed bytes (as writer::framed()/save_file produced) and
  /// returns a reader over the payload.
  [[nodiscard]] static reader from_bytes(
      const std::vector<std::uint8_t>& framed);

  /// Reads and validates `path`.
  [[nodiscard]] static reader from_file(const std::string& path);

  /// Consumes a section marker; throws unless its name is `name`.
  void expect_section(std::string_view name);

  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::string str();

 private:
  void expect_tag(field_tag t);
  std::uint64_t raw_u64();
  void need(std::size_t bytes) const;

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

/// FNV-1a 64-bit over a byte range (the payload checksum).
[[nodiscard]] std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size);

}  // namespace dlb::snapshot
