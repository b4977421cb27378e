#include "service/checkpoint.hpp"

#include <cstdint>
#include <cstdio>
#include <fstream>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace lifta::service {

namespace {

struct Header {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t scalarBytes = 0;
  std::uint32_t model = 0;
  std::uint32_t shape = 0;
  std::int32_t nx = 0, ny = 0, nz = 0;
  std::int32_t numMaterials = 0;
  std::int32_t numBranches = 0;
  std::int32_t stepsTaken = 0;
  std::uint64_t cells = 0;
  std::uint64_t fdStateLen = 0;
};

template <typename T>
Header headerFor(const acoustics::Simulation<T>& sim) {
  const auto& cfg = sim.config();
  Header h{};  // value-init zeroes struct padding so files are deterministic
  h.magic = kCheckpointMagic;
  h.version = kCheckpointVersion;
  h.scalarBytes = sizeof(T);
  h.model = static_cast<std::uint32_t>(cfg.model);
  h.shape = static_cast<std::uint32_t>(cfg.room.shape);
  h.nx = cfg.room.nx;
  h.ny = cfg.room.ny;
  h.nz = cfg.room.nz;
  h.numMaterials = cfg.numMaterials;
  h.numBranches = cfg.numBranches;
  h.stepsTaken = sim.stepsTaken();
  h.cells = sim.grid().cells();
  h.fdStateLen = sim.fdStateLen();
  return h;
}

void writeBytes(std::ofstream& f, const void* data, std::size_t bytes) {
  f.write(static_cast<const char*>(data),
          static_cast<std::streamsize>(bytes));
}

void readBytes(std::ifstream& f, void* data, std::size_t bytes,
               const std::string& path) {
  f.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  if (f.gcount() != static_cast<std::streamsize>(bytes)) {
    throw Error("checkpoint truncated: " + path);
  }
}

void checkField(std::uint64_t have, std::uint64_t want, const char* name,
                const std::string& path) {
  if (have != want) {
    throw Error(strformat(
        "checkpoint %s mismatch in %s: file has %llu, simulation expects %llu",
        name, path.c_str(), static_cast<unsigned long long>(have),
        static_cast<unsigned long long>(want)));
  }
}

}  // namespace

template <typename T>
void saveCheckpoint(const acoustics::Simulation<T>& sim,
                    const std::string& path) {
  // Written beside `path` and renamed over it, so a failed write (a full
  // disk, a file-size limit) leaves the last good checkpoint in place.
  const std::string tmp = path + ".tmp";
  const Header h = headerFor(sim);
  std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
  if (!f) throw Error("cannot open checkpoint for writing: " + path);
  writeBytes(f, &h, sizeof(h));
  const std::size_t fieldBytes = static_cast<std::size_t>(h.cells) * sizeof(T);
  writeBytes(f, sim.prev(), fieldBytes);
  writeBytes(f, sim.curr(), fieldBytes);
  writeBytes(f, sim.next(), fieldBytes);
  if (h.fdStateLen > 0) {
    const std::size_t stateBytes =
        static_cast<std::size_t>(h.fdStateLen) * sizeof(T);
    writeBytes(f, sim.g1(), stateBytes);
    writeBytes(f, sim.v1(), stateBytes);
    writeBytes(f, sim.v2(), stateBytes);
  }
  f.flush();
  f.close();
  if (!f || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("checkpoint write failed: " + path);
  }
}

template <typename T>
void restoreCheckpoint(acoustics::Simulation<T>& sim,
                       const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw Error("cannot open checkpoint: " + path);
  Header h;
  readBytes(f, &h, sizeof(h), path);
  const Header want = headerFor(sim);
  checkField(h.magic, want.magic, "magic", path);
  checkField(h.version, want.version, "version", path);
  checkField(h.scalarBytes, want.scalarBytes, "scalar width", path);
  checkField(h.model, want.model, "boundary model", path);
  checkField(h.shape, want.shape, "room shape", path);
  checkField(static_cast<std::uint64_t>(h.nx),
             static_cast<std::uint64_t>(want.nx), "nx", path);
  checkField(static_cast<std::uint64_t>(h.ny),
             static_cast<std::uint64_t>(want.ny), "ny", path);
  checkField(static_cast<std::uint64_t>(h.nz),
             static_cast<std::uint64_t>(want.nz), "nz", path);
  checkField(static_cast<std::uint64_t>(h.numMaterials),
             static_cast<std::uint64_t>(want.numMaterials), "material count",
             path);
  checkField(static_cast<std::uint64_t>(h.numBranches),
             static_cast<std::uint64_t>(want.numBranches), "branch count",
             path);
  checkField(h.cells, want.cells, "cell count", path);
  checkField(h.fdStateLen, want.fdStateLen, "FD state length", path);

  const std::size_t fieldBytes = static_cast<std::size_t>(h.cells) * sizeof(T);
  readBytes(f, sim.prevMutable(), fieldBytes, path);
  readBytes(f, sim.currMutable(), fieldBytes, path);
  readBytes(f, sim.nextMutable(), fieldBytes, path);
  if (h.fdStateLen > 0) {
    const std::size_t stateBytes =
        static_cast<std::size_t>(h.fdStateLen) * sizeof(T);
    readBytes(f, sim.g1Mutable(), stateBytes, path);
    readBytes(f, sim.v1Mutable(), stateBytes, path);
    readBytes(f, sim.v2Mutable(), stateBytes, path);
  }
  sim.setStepsTaken(h.stepsTaken);
}

template void saveCheckpoint<float>(const acoustics::Simulation<float>&,
                                    const std::string&);
template void saveCheckpoint<double>(const acoustics::Simulation<double>&,
                                     const std::string&);
template void restoreCheckpoint<float>(acoustics::Simulation<float>&,
                                       const std::string&);
template void restoreCheckpoint<double>(acoustics::Simulation<double>&,
                                        const std::string&);

}  // namespace lifta::service
