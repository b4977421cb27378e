#include "common/wav.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "common/error.hpp"
#include "common/file_io.hpp"

namespace lifta {
namespace {

void put16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put16(out, static_cast<std::uint16_t>(v & 0xffff));
  put16(out, static_cast<std::uint16_t>(v >> 16));
}

void putTag(std::vector<std::uint8_t>& out, const char* tag) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(tag[i]));
}

}  // namespace

void writeWav(const std::string& path, const std::vector<double>& samples,
              int sampleRateHz) {
  const std::uint32_t dataBytes = static_cast<std::uint32_t>(samples.size() * 2);
  std::vector<std::uint8_t> out;
  out.reserve(44 + dataBytes);
  putTag(out, "RIFF");
  put32(out, 36 + dataBytes);
  putTag(out, "WAVE");
  putTag(out, "fmt ");
  put32(out, 16);                 // PCM fmt chunk size
  put16(out, 1);                  // PCM
  put16(out, 1);                  // mono
  put32(out, static_cast<std::uint32_t>(sampleRateHz));
  put32(out, static_cast<std::uint32_t>(sampleRateHz * 2));  // byte rate
  put16(out, 2);                  // block align
  put16(out, 16);                 // bits per sample
  putTag(out, "data");
  put32(out, dataBytes);
  for (double s : samples) {
    const double clamped = std::clamp(s, -1.0, 1.0);
    const auto q = static_cast<std::int16_t>(std::lrint(clamped * 32767.0));
    put16(out, static_cast<std::uint16_t>(q));
  }
  writeFileBytes(path, out);
}

WavData readWav(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw Error("cannot open for reading: " + path);
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + got);
  }
  std::fclose(f);

  const auto need = [&](std::size_t at, std::size_t count) {
    if (at + count > bytes.size()) {
      throw Error("truncated WAV file: " + path);
    }
  };
  const auto tagAt = [&](std::size_t at) {
    need(at, 4);
    return std::string(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                       bytes.begin() + static_cast<std::ptrdiff_t>(at) + 4);
  };
  const auto u16At = [&](std::size_t at) -> std::uint16_t {
    need(at, 2);
    return static_cast<std::uint16_t>(bytes[at] | (bytes[at + 1] << 8));
  };
  const auto u32At = [&](std::size_t at) -> std::uint32_t {
    need(at, 4);
    return static_cast<std::uint32_t>(u16At(at)) |
           (static_cast<std::uint32_t>(u16At(at + 2)) << 16);
  };

  if (tagAt(0) != "RIFF" || tagAt(8) != "WAVE") {
    throw Error("not a RIFF/WAVE file: " + path);
  }
  WavData wav;
  bool haveFmt = false;
  std::size_t at = 12;
  while (at + 8 <= bytes.size()) {
    const std::string chunk = tagAt(at);
    const std::uint32_t size = u32At(at + 4);
    const std::size_t body = at + 8;
    if (chunk == "fmt ") {
      need(body, 16);
      if (u16At(body) != 1) throw Error("not PCM: " + path);
      if (u16At(body + 2) != 1) throw Error("not mono: " + path);
      if (u16At(body + 14) != 16) throw Error("not 16-bit: " + path);
      wav.sampleRateHz = static_cast<int>(u32At(body + 4));
      haveFmt = true;
    } else if (chunk == "data") {
      if (!haveFmt) throw Error("data chunk before fmt: " + path);
      need(body, size);
      wav.samples.reserve(size / 2);
      for (std::size_t i = 0; i + 1 < size; i += 2) {
        const auto q = static_cast<std::int16_t>(u16At(body + i));
        wav.samples.push_back(static_cast<double>(q) / 32767.0);
      }
      return wav;
    }
    at = body + size + (size & 1);  // RIFF chunks are word-aligned
  }
  throw Error("no data chunk: " + path);
}

std::vector<double> normalize(std::vector<double> samples, double peak) {
  double maxAbs = 0.0;
  for (double s : samples) maxAbs = std::max(maxAbs, std::fabs(s));
  if (maxAbs > 0.0) {
    const double scale = peak / maxAbs;
    for (double& s : samples) s *= scale;
  }
  return samples;
}

}  // namespace lifta
