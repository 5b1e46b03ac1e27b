// Reference files: one committed TSV per workload (refs/<workload>.tsv)
// with the recorded answer for every instance of the workload's pool.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "classify.hpp"

namespace perfbench {

/// 64-bit FNV-1a; the problem-text hash of the reference files.
[[nodiscard]] std::uint64_t fnv1a(std::string_view text) noexcept;

/// Reads a reference file. Throws std::runtime_error on a missing file or a
/// malformed row.
[[nodiscard]] std::vector<Reference> loadReferences(const std::string& path);

/// Writes a reference file with a comment header naming the workload.
void writeReferences(const std::string& path, const std::string& workload,
                     const std::vector<Reference>& rows);

}  // namespace perfbench
