// Static verification of Micro-C programs.
//
// The workload manager refuses to deploy a program that fails
// verification; this is the compile-time half of the paper's isolation
// story (§4.2.1 D2: "the compiler can insert static and dynamic
// assertions") — the runtime half is the interpreter's bounds traps.
#pragma once

#include "common/result.h"
#include "microc/ir.h"

namespace lnic::microc {

/// Checks structural validity:
///  - every block ends with exactly one terminator (and none mid-block),
///  - branch targets, call targets, object and register indices in range,
///  - call argument windows fit the callee's declared arguments,
///  - load/store widths are 1, 2, 4 or 8,
///  - the dispatch function and lambda entries reference real functions
///    (a program with no functions at all is valid and runs nothing),
///  - no function is (mutually) recursive.
/// Every program the interpreter decodes has passed these checks, so it
/// never range-checks a register, block, object or function index.
Status verify(const Program& program);

/// The per-function half of verify(): every check above that concerns
/// one function's own blocks and instructions (everything except the
/// entry points and the call graph). The interpreter runs it on each
/// function of a bare Program the first time it calls into it.
Status verify_function(const Program& program, std::size_t index);

}  // namespace lnic::microc
