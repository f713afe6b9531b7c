// SmflModel persistence: the serving model file.
//
// A fitted model is written once by `smfl fit` and read by every
// `smfl apply`. The format is a versioned, self-describing text body —
// diff-able, endian-proof, and stable across platforms (doubles are
// written with round-trip precision) — inside the durable-io container
// (src/common/durable_io.h): named sections, each length-prefixed and
// CRC32-checksummed, written with the atomic temp-file + fsync + rename
// protocol. Torn writes and bit flips surface as DataError at load
// instead of a silently wrong model.
//
// Format v4 is serving-only. It stores what fold-in reads: the meta
// block, the training header, the fitted MinMaxNormalizer (so serving
// transforms fresh rows with the TRAINING ranges), V, the landmarks C,
// mean(U) (the K values of the column-mean tier) and the objective trace.
// It does not store U: an N x K matrix that was 98% of a v3 file and that
// serving only ever reduced to its column means. Checkpoints keep U
// (src/core/checkpoint.h).
//
// v3 files (the same container with U in place of the header and mean(U))
// still load through the same parser; the mean is taken at load time and
// U is dropped. The bare-text v1/v2 files are refused with a DataError
// that names the version (docs/serving.md).

#ifndef SMFL_CORE_MODEL_IO_H_
#define SMFL_CORE_MODEL_IO_H_

#include <string>

#include "src/common/status.h"
#include "src/core/smfl.h"

namespace smfl::core {

// Serializes the serving model (V, landmarks, mean(U), spatial column
// count, training header, normalizer ranges, and the objective trace) to
// `path`. Overwrites.
Status SaveModel(const SmflModel& model, const std::string& path);

// Serializes into a string (the format SaveModel writes).
std::string SerializeModel(const SmflModel& model);

// Loads a model written by SaveModel (v4) or by the v3 writer. The result
// holds no U; its mean_u carries mean(U). Fails with DataError on
// malformed, hostile or version-incompatible input.
Result<SmflModel> LoadModel(const std::string& path);

// Parses the SaveModel format from memory.
Result<SmflModel> DeserializeModel(const std::string& content);

}  // namespace smfl::core

#endif  // SMFL_CORE_MODEL_IO_H_
