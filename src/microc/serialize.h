// Binary firmware serialization: the on-the-wire format of compiled
// Match+Lambda programs. The workload manager stores these artifacts in
// global storage (Fig. 2: "compiled binaries ... stored in a global
// storage") and worker nodes deserialize them at deployment. Format:
// little-endian, length-prefixed sections, magic "LNFW", version 1.
#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "microc/ir.h"

namespace lnic::microc {

/// Encodes a program to the firmware byte format.
std::vector<std::uint8_t> serialize(const Program& program);

/// Decodes a firmware image; validates magic/version and structural
/// bounds (string/section lengths), then runs verify() on the result:
/// an image that decodes but fails verification is rejected with the
/// verifier's message.
Result<Program> deserialize(const std::vector<std::uint8_t>& bytes);

}  // namespace lnic::microc
