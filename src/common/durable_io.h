// Durable, corruption-detecting file I/O.
//
// Two independent pieces that compose into crash-safe persistence:
//
//  1. Atomic replace (`WriteFileDurable`): content is written to a
//     same-directory temp file, flushed to the device with fsync, and
//     moved into place with rename(2) — which POSIX guarantees atomic
//     within a filesystem — followed by an fsync of the parent directory
//     so the rename itself survives a power cut. A reader therefore sees
//     either the complete old file or the complete new file, never a
//     truncated in-between.
//
//  2. Checksummed section framing (`SectionWriter` / `ParseSections`):
//     a container format holding named, length-prefixed, CRC32-checksummed
//     byte sections. Torn writes, partial reads, and single-byte
//     corruption that slip past the rename protocol (a lying disk, a
//     cosmic ray, an fsync the kernel only pretended to do) are detected
//     at read time as a clean DataError instead of garbage being parsed.
//
// Model files (src/core/model_io.*) and training checkpoints
// (src/core/checkpoint.*) both persist through this layer; the smfl-lint
// `raw-file-write` rule keeps other code from bypassing it.
//
// Fault points (docs/robustness.md): `io.write.torn` truncates the
// payload mid-write but lets the rename proceed (simulating a crash
// window a checksummed reader must catch), `io.write.fsync_fail` fails
// the data fsync, and `io.read.partial` returns a prefix of the file.

#ifndef SMFL_COMMON_DURABLE_IO_H_
#define SMFL_COMMON_DURABLE_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace smfl {

// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `data`, optionally
// continuing from a previous partial checksum.
uint32_t Crc32(std::string_view data, uint32_t crc = 0);

// Atomically replaces `path` with `content`: temp file in the same
// directory, fsync, rename, parent-directory fsync. On any failure the
// temp file is removed and `path` is left untouched.
Status WriteFileDurable(const std::string& path, std::string_view content);

// Reads an entire file (binary-safe). IoError when unreadable.
Result<std::string> ReadFileToString(const std::string& path);

// ---------------------------------------------------------------------------
// Section framing.
//
// Container layout (lengths are explicit, so payloads are binary-safe):
//
//   smfl-durable 1 <section_count>\n
//   section <name> <payload_bytes> <crc32_hex8>\n
//   <payload bytes>\n
//   ... repeated per section ...

struct Section {
  std::string name;
  std::string payload;
};

// Accumulates named sections and renders the container.
class SectionWriter {
 public:
  // `name` must be non-empty and free of whitespace/newlines.
  void Add(std::string_view name, std::string_view payload);

  // The complete container for the sections added so far.
  std::string Finish() const;

 private:
  std::vector<Section> sections_;
};

// Parses a container, verifying structure and every section's CRC.
// Returns DataError naming the offending section on any mismatch,
// truncation, or trailing garbage.
Result<std::vector<Section>> ParseSections(const std::string& content);

// True when `content` begins with the container magic (cheap dispatch
// between framed and legacy formats).
bool LooksLikeDurableContainer(std::string_view content);

}  // namespace smfl

#endif  // SMFL_COMMON_DURABLE_IO_H_
