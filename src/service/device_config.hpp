// Internal: the one spec -> DeviceSimulation::Config mapping the device-tier
// executor (RirService::runDeviceJob) builds every job with. Code that
// rebuilds a device job outside the service (perfbench's replay) maps the
// spec through it too, so it generates the job's kernel sources byte for
// byte.
#pragma once

#include "lift_acoustics/device_simulation.hpp"
#include "service/rir_service.hpp"

namespace lifta::service {

lift_acoustics::DeviceSimulation::Config deviceConfigFromSpec(
    const RirJobSpec& spec);

}  // namespace lifta::service
