// Simulated device profiles.
//
// The paper evaluates on four discrete GPUs (Table III). This environment
// has no GPU, so a *device profile* carries the identity and the reported
// hardware metrics of each platform while execution happens on the host CPU
// through the thread-pool NDRange executor. The LIFT-vs-handwritten
// comparison — the paper's actual claim — is preserved because both code
// paths execute through the same runtime, exactly as both went through the
// same OpenCL driver on real hardware.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace lifta::ocl {

struct DeviceProfile {
  std::string name;
  /// Reported metrics from Table III (used for reporting and roofline
  /// commentary only; they do not affect simulated execution speed).
  double memBandwidthGBs = 0.0;
  double peakSpGflops = 0.0;
  /// Execution configuration. Kernels run on ThreadPool::global().
  int maxWorkGroupSize = 1024;
};

/// The four platforms of Table III.
std::vector<DeviceProfile> paperPlatforms();

/// The actual host machine, presented as an OpenCL-style device.
DeviceProfile nativeDevice();

}  // namespace lifta::ocl
