// The name of the zone engine's active inner-loop clone, for host
// fingerprints: "avx2" when the loops in zone.cpp were built with
// target clones and run on an AVX2 CPU, "scalar" otherwise.
#pragma once

namespace ptecps::verify {

struct ZoneKernels {
  const char* name;
};

const ZoneKernels& active_zone_kernels();

}  // namespace ptecps::verify
