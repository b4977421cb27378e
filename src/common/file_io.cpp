#include "common/file_io.hpp"

#include <cstdio>

#include "common/error.hpp"

namespace lifta {

void writeFileBytes(const std::string& path,
                    const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw Error("cannot open for writing: " + path);
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  // fclose flushes the stdio buffer, so a full disk often surfaces only
  // here; close before reporting a short write so the handle never leaks.
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size()) throw Error("short write: " + path);
  if (!closed) throw Error("close failed: " + path);
}

}  // namespace lifta
