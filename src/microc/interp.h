// Micro-C interpreter with cycle accounting.
//
// The same IR executes on every backend; what differs is the CostModel —
// NPU cores (633 MHz, far-memory latencies, hardware bulk engines) versus
// host CPUs (2 GHz, cache-friendly, but behind an interpreted language
// runtime for the bare-metal/container backends, §6.1.1). Each invocation
// yields a byte-accurate response payload *and* the cycle count that the
// simulation converts into service time, so compiler optimizations
// (§5.1) and memory placement (D2) change measured latency exactly as on
// the real NIC.
//
// kExtCall suspends the machine (paper D3: lambdas issue RPCs to external
// services); the backend performs the call over the simulated network and
// resume()s with the reply.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/result.h"
#include "common/types.h"
#include "microc/ir.h"

namespace lnic::microc {

/// Per-backend execution cost parameters.
struct CostModel {
  double frequency_hz = 633e6;  // NPU core clock (§6.1.2)
  /// Multiplier on scalar instruction costs, modelling the language
  /// runtime in front of the workload (the paper's host backends run a
  /// Python service; λ-NIC runs native firmware). 1 = native.
  double runtime_factor = 1.0;
  /// Multiplier on bulk intrinsic costs (memcpy/grayscale/hash inner
  /// loops). Pure-Python pixel loops pay close to runtime_factor; C
  /// library calls pay ~1. The paper's lambdas loop in Python.
  double bulk_factor = 1.0;

  std::uint32_t alu_cycles = 1;
  std::uint32_t branch_cycles = 1;
  std::uint32_t call_cycles = 5;
  std::uint32_t hdr_cycles = 1;     // pre-parsed header access
  std::uint32_t body_cycles = 8;    // packet-buffer (CTM) byte access
  std::uint32_t ext_call_cycles = 60;  // build/send the outgoing RPC

  /// Cycles per access by MemRegion (indexed by static_cast<int>).
  std::array<std::uint32_t, 4> region_read{1, 30, 90, 150};
  std::array<std::uint32_t, 4> region_write{1, 30, 90, 150};

  /// Bulk-transfer divisor for kMemCpy/kGrayscale memory traffic (DMA
  /// engines on the NIC, SIMD on hosts).
  std::uint32_t bulk_divisor = 4;

  /// ASIC-based SmartNIC NPU core (Netronome Agilio CX-like).
  static CostModel npu();
  /// Host CPU running native code.
  static CostModel host_native();
  /// Host CPU behind the OpenFaaS-style Python service (§6.1.1).
  static CostModel host_python();

  SimDuration cycles_to_duration(std::uint64_t cycles) const {
    return static_cast<SimDuration>(static_cast<double>(cycles) /
                                    frequency_hz * 1e9);
  }

  friend bool operator==(const CostModel&, const CostModel&) = default;
};

/// Pre-parsed header values handed to the lambda (EXTRACTED_HEADERS_T).
struct HeaderValues {
  std::array<std::uint64_t, kHdrFieldCount> fields{};
};

/// One request to a deployed program.
struct Invocation {
  HeaderValues headers;
  /// Request payload / RDMA region: a zero-copy view into the packet
  /// buffer (the Machine only reads it, as NIC firmware reads CTM).
  BufferView body;
  std::vector<std::uint64_t> match_data; // MATCH_DATA_T
};

/// External call emitted by kExtCall. kind: 0 = GET, 1 = SET.
struct ExtRequest {
  std::int64_t kind = 0;
  std::uint64_t key = 0;
  std::uint64_t value = 0;
};

enum class RunState { kDone, kYield, kTrap };

struct Outcome {
  RunState state = RunState::kTrap;
  std::uint64_t return_value = 0;         // valid when kDone
  std::vector<std::uint8_t> response;     // deparse-stage payload
  std::uint64_t cycles = 0;               // cumulative, incl. runtime_factor
  std::uint64_t instructions = 0;         // dynamic instruction count
  ExtRequest ext;                         // valid when kYield
  std::string trap_message;               // valid when kTrap
};

class Executable;

/// Persistent global-object storage for one deployed program instance
/// ("global objects persist state across runs", §4.1). Local-scope
/// objects get fresh zeroed backing per invocation inside the Machine.
///
/// A store belongs to the program it was built or reset() with, which
/// must outlive it and stay unchanged while the store is in use (reset
/// the store after changing the program). Bare-Program Machines over
/// that program and store share one lazily lowered image through it, so
/// constructing a Machine per invocation lowers each function once.
class ObjectStore {
 public:
  ObjectStore() = default;
  explicit ObjectStore(const Program& program) { reset(program); }
  void reset(const Program& program);
  /// Sizes the store for a built image's objects; binds no Program.
  void reset(const Executable& image);
  std::size_t size() const { return data_.size(); }
  std::vector<std::uint8_t>& data(std::size_t object_index) {
    return data_[object_index];
  }
  const std::vector<std::uint8_t>& data(std::size_t object_index) const {
    return data_[object_index];
  }
  Bytes total_bytes() const;

 private:
  friend class Machine;

  void allocate(const std::vector<MemObject>& objects);

  std::vector<std::vector<std::uint8_t>> data_;
  const Program* program_ = nullptr;
  std::shared_ptr<Executable> image_;  // lowered program_, by cost model
};

/// A verified Program lowered once for one CostModel: the form every
/// Machine executes. Each function becomes a flat op array in which
///  - branch targets are op offsets,
///  - every op carries its scalar cycle charge (the region cost of
///    kLoad/kStore included), resolved from the CostModel up front, and
///  - every straight-line segment (a block, or the rest of one after a
///    call or external call) opens with an entry marker holding the
///    segment's total scalar cost, so fuel is checked once per segment.
/// A built image is immutable; one is shared by every Machine (and every
/// in-flight invocation) of a deployment.
class Executable {
 public:
  /// Verifies `program` (see verify.h) and lowers all of it; fails with
  /// the verifier's message. The image copies what it needs (object
  /// metadata and initial data), so it does not reference `program`.
  static Result<std::shared_ptr<const Executable>> build(
      const Program& program, const CostModel& cost);

  const std::vector<MemObject>& objects() const { return objects_; }

  Executable(const Executable&) = delete;
  Executable& operator=(const Executable&) = delete;

 private:
  friend class Machine;

  /// One lowered instruction. `code` is an Opcode, or kEnter for the
  /// segment-entry marker (not an instruction: no count, no cycles).
  struct Op {
    std::uint8_t code = 0;
    /// Operand forwarding: bit 0 (bit 1) set when operand a (b) is the
    /// register the previous op of the same segment just wrote, which
    /// the loop still holds in a local; the op then skips the reload.
    std::uint8_t fwd = 0;
    std::uint16_t dst = 0;
    std::uint16_t a = 0;
    std::uint16_t b = 0;
    std::uint16_t obj = 0;
    std::uint8_t width = 8;
    /// Scalar cycles the op charges; for kEnter, the number of
    /// instructions in its segment.
    std::uint32_t cost = 0;
    /// Immediate. kBr: relative target; kBrIf: relative taken target in
    /// the low and fall-through in the high 32 bits; kMemCpy/kGrayscale:
    /// the source object; kEnter: the scalar cost of its segment.
    std::int64_t imm = 0;
  };
  static constexpr std::uint8_t kEnter =
      static_cast<std::uint8_t>(Opcode::kRet) + 1;

  struct Fn {
    std::vector<Op> ops;  // empty until decoded (bare-Program machines)
    std::uint16_t num_regs = 0;
  };

  Executable(const Program& source, const CostModel& cost);
  /// Lowers function `index` of `source_` (which must already pass
  /// verify_function) into fns_[index].
  void decode(std::size_t index);

  std::uint32_t read_cost(std::size_t obj) const {
    return cost_.region_read[static_cast<int>(objects_[obj].region)];
  }
  std::uint32_t write_cost(std::size_t obj) const {
    return cost_.region_write[static_cast<int>(objects_[obj].region)];
  }

  CostModel cost_;
  std::vector<Fn> fns_;
  std::vector<MemObject> objects_;  // copied: the image outlives sources
  std::uint32_t dispatch_ = 0;
  std::uint64_t parser_cycles_ = 0;        // hdr_cycles per parsed field
  /// Program being lowered; only set while build() runs, or for the
  /// private image of a bare-Program Machine, which decodes each
  /// function the first time it is called.
  const Program* source_ = nullptr;
};

/// Runs invocations of one Executable. A Machine can be reused for any
/// number of invocations (each starts from zeroed registers and fresh
/// local objects); it keeps its frame stack, register file and local
/// buffers between them, so a pooled Machine allocates nothing in the
/// steady state.
class Machine {
 public:
  /// Runs a bare Program: each function is verified (verify_function)
  /// and lowered the first time it is called, so short runs do not pay
  /// for the whole program. A function that fails verification traps
  /// with the verifier's message. When `globals` is the program's own
  /// store (see ObjectStore), the lowered image is kept there for every
  /// later Machine with the same cost model. `globals` may be null when
  /// the program declares no global objects. `program` must outlive the
  /// Machine and stay unchanged while it is used.
  Machine(const Program& program, const CostModel& cost, ObjectStore* globals);

  /// Runs a prebuilt image (deploy-time decode; nothing is lowered here).
  Machine(std::shared_ptr<const Executable> image, ObjectStore* globals);

  ~Machine();
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Starts an invocation at the program's dispatch (match-stage)
  /// function. Charges the parser cost for program.parsed_fields.
  Outcome run(const Invocation& invocation);

  /// Starts at an explicit function (unit tests, direct lambda calls).
  Outcome run_function(std::size_t function_index,
                       const Invocation& invocation);

  /// Continues after a kYield outcome; `reply` lands in the kExtCall dst.
  Outcome resume(std::uint64_t reply);

  /// Aborts a suspended invocation (e.g. external call timed out).
  void abort();

  bool suspended() const { return suspended_; }

  /// Cycle budget per invocation; exceeding it traps (runaway guard;
  /// serverless workloads have strict compute limits, §2.1).
  void set_fuel(std::uint64_t cycles) { fuel_ = cycles; }

  const CostModel& cost_model() const { return image_->cost_; }
  const Executable& image() const { return *image_; }

 private:
  using Op = Executable::Op;

  struct Frame {
    const Op* resume = nullptr;  // where this frame continues after a call
    std::uint32_t base = 0;      // first register in regs_
    std::uint32_t top = 0;       // one past the last register
    std::uint16_t ret_dst = 0;   // caller register receiving the return
  };

  /// The interpreter loop: runs from `ip` in the top frame until the
  /// invocation finishes, yields or traps.
  Outcome execute(const Op* ip);
  /// Pushes a zeroed frame for function `fn` with `base` as its first
  /// register; false when `fn` cannot be lowered (trap_ says why).
  bool enter(std::uint32_t fn, std::uint32_t base, std::uint16_t ret_dst);
  /// Settles the counters when the op at `ip` traps mid-segment.
  void unwind_segment(const Op* ip, bool stepping);
  /// Points the global objects' entries of objs_ at the store.
  void bind_globals();
  Outcome trap(std::string message);
  Outcome finish(std::uint64_t return_value);
  std::uint64_t scaled_cycles() const;

  std::shared_ptr<const Executable> image_;
  Executable* lazy_ = nullptr;  // == image_, when decoding on demand
  ObjectStore* globals_;

  // Invocation state.
  const Invocation* invocation_ = nullptr;
  std::vector<std::vector<std::uint8_t>> locals_;  // per local-scope object
  std::vector<std::vector<std::uint8_t>*> objs_;   // backing per object
  std::vector<Frame> frames_;
  std::vector<std::uint64_t> regs_;  // register stack, frames_ slice it
  std::vector<std::uint8_t> response_;
  const Op* resume_ip_ = nullptr;    // after a kYield
  std::uint16_t resume_dst_ = 0;
  std::uint64_t cycles_ = 0;       // scalar instruction cycles
  std::uint64_t bulk_cycles_ = 0;  // intrinsic inner-loop cycles
  std::uint64_t instructions_ = 0;
  std::uint64_t fuel_ = 1ull << 40;
  bool suspended_ = false;
  std::string trap_;
};

}  // namespace lnic::microc
