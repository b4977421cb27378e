#include "ocl/device.hpp"

namespace lifta::ocl {

std::vector<DeviceProfile> paperPlatforms() {
  // Table III: Platforms and Hardware Metrics used.
  return {
      DeviceProfile{"NVIDIA GTX 780", 288.0, 3977.0, 1024},
      DeviceProfile{"AMD Radeon HD 7970", 288.0, 4096.0, 256},
      DeviceProfile{"NVIDIA TITAN Black", 337.0, 5120.0, 1024},
      DeviceProfile{"AMD Radeon R9 295X2", 320.0, 5733.0, 256},
  };
}

DeviceProfile nativeDevice() {
  DeviceProfile d;
  d.name = "Host CPU (simulated OpenCL device)";
  d.memBandwidthGBs = 0.0;
  d.peakSpGflops = 0.0;
  d.maxWorkGroupSize = 1024;
  return d;
}

}  // namespace lifta::ocl
