// Whole-file writes for the outputs the service produces (WAV exports,
// dataset shards), with every stdio failure reported.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lifta {

/// Writes `bytes` to `path`, replacing any existing file. Throws
/// lifta::Error naming the path when the file cannot be opened, the write
/// comes up short, or closing it (the final flush) fails.
void writeFileBytes(const std::string& path,
                    const std::vector<std::uint8_t>& bytes);

}  // namespace lifta
