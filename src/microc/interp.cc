#include "microc/interp.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/hash.h"
#include "microc/verify.h"

namespace lnic::microc {

namespace {
constexpr std::size_t kMaxCallDepth = 16;     // NPUs do not support recursion
constexpr std::size_t kMaxResponse = 32ull << 20;

// True when [offset, offset + len) lies inside a buffer of `size` bytes
// (no wraparound for huge offsets).
bool fits(std::uint64_t offset, std::uint64_t len, std::size_t size) {
  return offset <= size && len <= size - offset;
}

// Little-endian accesses of a verified width (1, 2, 4 or 8 bytes) as
// fixed-size copies, which compile to single moves.
template <typename T>
std::uint64_t load_as(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <typename T>
void store_as(std::uint8_t* p, std::uint64_t value) {
  const auto v = static_cast<T>(value);
  std::memcpy(p, &v, sizeof v);
}

std::uint64_t load_bytes(const std::uint8_t* p, std::uint8_t width) {
  switch (width) {
    case 1: return load_as<std::uint8_t>(p);
    case 2: return load_as<std::uint16_t>(p);
    case 4: return load_as<std::uint32_t>(p);
    default: return load_as<std::uint64_t>(p);
  }
}

void store_bytes(std::uint8_t* p, std::uint8_t width, std::uint64_t value) {
  switch (width) {
    case 1: return store_as<std::uint8_t>(p, value);
    case 2: return store_as<std::uint16_t>(p, value);
    case 4: return store_as<std::uint32_t>(p, value);
    default: return store_as<std::uint64_t>(p, value);
  }
}

[[gnu::cold]] std::string out_of_bounds(const char* access,
                                        const MemObject& object,
                                        std::uint64_t offset) {
  return std::string("out-of-bounds ") + access + " object '" + object.name +
         "' at offset " + std::to_string(offset);
}
}  // namespace

CostModel CostModel::npu() {
  CostModel m;
  m.frequency_hz = 633e6;
  m.runtime_factor = 1.0;
  m.region_read = {1, 30, 90, 150};
  m.region_write = {1, 30, 90, 150};
  m.bulk_divisor = 4;   // NFP bulk DMA engines
  m.ext_call_cycles = 60;
  return m;
}

CostModel CostModel::host_native() {
  CostModel m;
  m.frequency_hz = 2.0e9;  // Xeon Gold 5117 base clock (§6.1.2)
  m.runtime_factor = 1.0;
  // Caches flatten the hierarchy; everything looks ~L2-resident.
  m.region_read = {1, 1, 2, 4};
  m.region_write = {1, 1, 2, 4};
  m.bulk_divisor = 16;  // SIMD copy/convert loops
  m.ext_call_cycles = 400;  // socket write through libc
  return m;
}

CostModel CostModel::host_python() {
  CostModel m = host_native();
  // The baseline backends run lambdas behind a Python service (§6.1.1,
  // footnote 7): CPython costs ~400x per scalar op (each IR op lowers to
  // several bytecodes at ~100-200 ns each) and ~85x on bulk loops (the
  // paper's lambdas iterate per pixel/word in Python).
  m.runtime_factor = 400.0;
  m.bulk_factor = 85.0;
  return m;
}

void ObjectStore::reset(const Program& program) {
  program_ = &program;
  image_.reset();
  allocate(program.objects);
}

void ObjectStore::reset(const Executable& image) {
  program_ = nullptr;
  image_.reset();
  allocate(image.objects());
}

void ObjectStore::allocate(const std::vector<MemObject>& objects) {
  objects_.clear();
  objects_.resize(objects.size());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const MemObject& obj = objects[i];
    if (obj.scope == MemScope::kGlobal) {
      std::vector<std::uint8_t>& bytes = objects_[i].bytes;
      bytes.assign(obj.size, 0);
      const auto n = std::min<std::size_t>(obj.initial_data.size(), obj.size);
      if (n > 0) std::memcpy(bytes.data(), obj.initial_data.data(), n);
    }
  }
}

Bytes ObjectStore::total_bytes() const {
  Bytes total = 0;
  for (const Object& object : objects_) total += object.bytes.size();
  return total;
}

std::uint64_t ObjectStore::Object::hash(std::uint64_t offset,
                                        std::uint64_t len) {
  if (!memo) memo = std::make_unique<HashMemo>();
  HashMemo& m = *memo;
  for (std::uint8_t i = 0; i < m.count; ++i) {
    const HashMemo::Entry& e = m.entries[i];
    if (e.offset == offset && e.len == len) return e.value;
  }
  const std::uint64_t value = fnv1a(bytes.data() + offset, len);
  if (m.count < HashMemo::kEntries) {
    m.entries[m.count++] = {offset, len, value};
  } else {
    m.entries[m.next] = {offset, len, value};
    m.next = static_cast<std::uint8_t>((m.next + 1) % HashMemo::kEntries);
  }
  return value;
}

namespace {

// Scalar cycles an op charges when it completes, before the region cost
// kLoad/kStore add. The arithmetic stays in the CostModel's 32-bit
// fields exactly as the cost was always computed.
std::uint32_t base_cost(Opcode op, const CostModel& cost) {
  switch (op) {
    case Opcode::kDivU:
    case Opcode::kRemU:
      return cost.alu_cycles * 8;  // iterative divide on NPUs
    case Opcode::kFxMul:
    case Opcode::kSelect:
      return cost.alu_cycles * 2;
    case Opcode::kLoadHdr:
    case Opcode::kLoadMatch:
      return cost.hdr_cycles;
    case Opcode::kLoadBody:
    case Opcode::kRespByte:
    case Opcode::kRespWord:
      return cost.body_cycles;
    case Opcode::kExtCall:
      return cost.ext_call_cycles;
    case Opcode::kBr:
    case Opcode::kBrIf:
    case Opcode::kRet:
      return cost.branch_cycles;
    case Opcode::kCall:
      return cost.call_cycles;
    default:
      return cost.alu_cycles;  // ALU ops, loads/stores, bulk intrinsics
  }
}

constexpr std::uint32_t kNoReg = 0x10000;  // matches no 16-bit register

// Relative jump from op `from` to op `to` of the same function.
std::int32_t jump(std::size_t from, std::size_t to) {
  return static_cast<std::int32_t>(static_cast<std::int64_t>(to) -
                                   static_cast<std::int64_t>(from));
}

}  // namespace

Executable::Executable(const Program& source, const CostModel& cost)
    : cost_(cost),
      fns_(source.functions.size()),
      objects_(source.objects),
      dispatch_(source.dispatch_function),
      parser_cycles_(cost.hdr_cycles * source.parsed_fields.size()),
      source_(&source) {}

Result<std::shared_ptr<const Executable>> Executable::build(
    const Program& program, const CostModel& cost) {
  if (Status st = verify(program); !st.ok()) return st.error();
  std::shared_ptr<Executable> image(new Executable(program, cost));
  for (std::size_t i = 0; i < program.functions.size(); ++i) image->decode(i);
  image->source_ = nullptr;
  return std::shared_ptr<const Executable>(std::move(image));
}

void Executable::decode(std::size_t index) {
  const Function& fn = source_->functions[index];
  // Layout: every block opens with a kEnter marker, and a marker follows
  // each kCall/kExtCall (the point execution re-enters after it).
  std::vector<std::size_t> block_at(fn.blocks.size());
  std::size_t size = 0;
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    block_at[b] = size;
    size += 1 + fn.blocks[b].instrs.size();
    for (const Instr& in : fn.blocks[b].instrs) {
      if (in.op == Opcode::kCall || in.op == Opcode::kExtCall) ++size;
    }
  }

  std::array<std::uint32_t, kEnter> base;
  for (std::uint8_t op = 0; op < kEnter; ++op) {
    base[op] = base_cost(static_cast<Opcode>(op), cost_);
  }
  std::vector<Op> ops;
  ops.reserve(size);
  // Each marker is patched with its segment's totals once the segment
  // closes. `written` is the register the previous op of the segment
  // wrote (the forwarding source); none right after a marker, where
  // control may arrive from elsewhere.
  std::size_t marker = 0;
  std::uint64_t segment_cost = 0;
  std::uint32_t segment_ops = 0;
  std::uint32_t written = kNoReg;
  const auto open_segment = [&] {
    marker = ops.size();
    ops.push_back(Op{.code = kEnter});
    segment_cost = 0;
    segment_ops = 0;
    written = kNoReg;
  };
  const auto close_segment = [&] {
    ops[marker].cost = segment_ops;
    ops[marker].imm = static_cast<std::int64_t>(segment_cost);
  };
  for (const BasicBlock& block : fn.blocks) {
    open_segment();
    for (const Instr& in : block.instrs) {
      const std::size_t at = ops.size();
      std::int64_t imm = in.imm;
      if (in.op == Opcode::kBr) {
        imm = jump(at, block_at[static_cast<std::size_t>(in.imm)]);
      } else if (in.op == Opcode::kBrIf) {
        const auto taken = static_cast<std::uint32_t>(
            jump(at, block_at[static_cast<std::size_t>(in.imm)]));
        const auto fall = static_cast<std::uint32_t>(jump(at, block_at[in.b]));
        imm = static_cast<std::int64_t>(
            (static_cast<std::uint64_t>(fall) << 32) | taken);
      } else if (in.op == Opcode::kMemCpy || in.op == Opcode::kGrayscale) {
        imm = in.obj2;
      } else if (in.op == Opcode::kHash) {
        imm = objects_[in.obj].scope == MemScope::kGlobal ? 1 : 0;
      }
      std::uint32_t cost = base[static_cast<std::uint8_t>(in.op)];
      if (in.op == Opcode::kLoad) cost += read_cost(in.obj);
      if (in.op == Opcode::kStore) cost += write_cost(in.obj);
      ops.push_back(Op{
          .code = static_cast<std::uint8_t>(in.op),
          .fwd = static_cast<std::uint8_t>((in.a == written ? 1 : 0) |
                                           (in.b == written ? 2 : 0)),
          .dst = in.dst,
          .a = in.a,
          .b = in.b,
          .obj = in.obj,
          .width = in.width,
          .cost = cost,
          .imm = imm,
      });
      segment_cost += cost;
      ++segment_ops;
      // Pure ops write exactly their dst, and the loop keeps that value.
      written = is_pure(in.op) ? in.dst : kNoReg;
      if (in.op == Opcode::kCall || in.op == Opcode::kExtCall) {
        close_segment();
        open_segment();
      }
    }
    close_segment();
  }
  fns_[index].num_regs = fn.num_regs;
  fns_[index].ops = std::move(ops);
}

Machine::Machine(const Program& program, const CostModel& cost,
                 ObjectStore* globals)
    : globals_(globals) {
  const bool own_store = globals != nullptr && globals->program_ == &program;
  std::shared_ptr<Executable> image;
  if (own_store && globals->image_ && globals->image_->cost_ == cost) {
    image = globals->image_;
  } else {
    image.reset(new Executable(program, cost));
    if (own_store) globals->image_ = image;
  }
  lazy_ = image.get();
  image_ = std::move(image);
}

Machine::Machine(std::shared_ptr<const Executable> image, ObjectStore* globals)
    : image_(std::move(image)), globals_(globals) {}

Machine::~Machine() = default;

std::uint64_t Machine::scaled_cycles() const {
  const CostModel& cost = image_->cost_;
  return static_cast<std::uint64_t>(
      static_cast<double>(cycles_) * cost.runtime_factor +
      static_cast<double>(bulk_cycles_) * cost.bulk_factor);
}

Outcome Machine::run(const Invocation& invocation) {
  return run_function(image_->dispatch_, invocation);
}

Outcome Machine::run_function(std::size_t function_index,
                              const Invocation& invocation) {
  invocation_ = &invocation;
  suspended_ = false;
  trap_.clear();
  response_.clear();
  frames_.clear();
  // Charge the generated parser (header identification + extraction).
  cycles_ = image_->parser_cycles_;
  bulk_cycles_ = 0;
  instructions_ = 0;
  if (function_index >= image_->fns_.size()) {
    return trap("no function " + std::to_string(function_index) +
                " in the program");
  }

  const std::vector<MemObject>& objects = image_->objects_;
  locals_.resize(objects.size());
  objs_.resize(objects.size());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const MemObject& obj = objects[i];
    if (obj.scope != MemScope::kLocal) continue;
    std::vector<std::uint8_t>& bytes = locals_[i].bytes;
    bytes.assign(obj.size, 0);
    const auto n = std::min<std::size_t>(obj.initial_data.size(), obj.size);
    if (n > 0) std::memcpy(bytes.data(), obj.initial_data.data(), n);
    objs_[i] = &locals_[i];
  }
  bind_globals();

  const auto fn = static_cast<std::uint32_t>(function_index);
  if (!enter(fn, 0, 0)) return trap(trap_);
  return execute(image_->fns_[fn].ops.data());
}

void Machine::bind_globals() {
  const std::vector<MemObject>& objects = image_->objects_;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (objects[i].scope != MemScope::kGlobal) continue;
    objs_[i] = globals_ != nullptr && i < globals_->size()
                   ? &globals_->objects_[i]
                   : nullptr;
  }
}

bool Machine::enter(std::uint32_t fn, std::uint32_t base,
                    std::uint16_t ret_dst) {
  if (image_->fns_[fn].ops.empty()) {
    // Only a bare-Program machine meets an undecoded function: a built
    // image lowers (and verified) every function up front.
    if (Status st = verify_function(*lazy_->source_, fn); !st.ok()) {
      trap_ = st.error().message;
      return false;
    }
    lazy_->decode(fn);
  }
  const std::uint32_t top = base + image_->fns_[fn].num_regs;
  if (top > regs_.size()) {
    regs_.resize(std::max<std::size_t>(top, 2 * regs_.size()));
  }
  std::fill(regs_.begin() + base, regs_.begin() + top, 0);
  frames_.push_back(Frame{nullptr, base, top, ret_dst});
  return true;
}

Outcome Machine::resume(std::uint64_t reply) {
  if (!suspended_) return trap("resume without a pending external call");
  suspended_ = false;
  // The store may have been reset (redeployed) while this invocation
  // waited; look the global objects up again.
  bind_globals();
  regs_[frames_.back().base + resume_dst_] = reply;
  return execute(resume_ip_);
}

void Machine::abort() {
  suspended_ = false;
  frames_.clear();
  invocation_ = nullptr;
}

Outcome Machine::trap(std::string message) {
  Outcome out;
  out.state = RunState::kTrap;
  out.trap_message = std::move(message);
  out.cycles = scaled_cycles();
  out.instructions = instructions_;
  frames_.clear();
  suspended_ = false;
  return out;
}

Outcome Machine::finish(std::uint64_t return_value) {
  Outcome out;
  out.state = RunState::kDone;
  out.return_value = return_value;
  out.response = std::move(response_);
  out.cycles = scaled_cycles();
  out.instructions = instructions_;
  frames_.clear();
  suspended_ = false;
  return out;
}

void Machine::unwind_segment(const Op* ip, bool stepping) {
  // The trapping op counts as executed but is not charged. A stepping
  // segment has charged exactly up to and including it; a marker
  // charged the whole segment, so take back the ops after it too. A
  // segment ends at its first control-transfer op.
  cycles_ -= ip->cost;
  if (stepping) return;
  const auto ends_segment = [](std::uint8_t code) {
    const auto op = static_cast<Opcode>(code);
    return is_terminator(op) || op == Opcode::kCall || op == Opcode::kExtCall;
  };
  for (const Op* rest = ip; !ends_segment(rest->code);) {
    ++rest;
    cycles_ -= rest->cost;
    --instructions_;
  }
}

// The interpreter loop. Threaded dispatch: every handler jumps straight
// to the next op's handler through `table`. The instruction pointer, the
// register window and the last written value live in locals.
//
// Accounting and fuel happen per segment. A kEnter marker checks that
// the counters plus its whole segment fit under the fuel budget and, if
// so, charges the segment's cycles and instructions at once; the ops
// then run with no bookkeeping at all. Every way out of a segment other
// than a trap is its last op, so the counters are exact wherever the
// invocation yields, calls, returns or finishes; a trap settles them
// with unwind_segment(). A segment that does not fit runs on the step
// table instead: each op is checked against the budget and charged
// before it executes, exactly as if fuel were checked per instruction,
// so a fuel trap reports the same cycles and instruction count.
Outcome Machine::execute(const Op* ip) {
  // Indexed by Op::code: the Opcode handlers in enum order, then kEnter.
  static const void* const kRun[] = {
      &&op_const,   &&op_mov,      &&op_add,       &&op_sub,
      &&op_mul,     &&op_divu,     &&op_remu,      &&op_and,
      &&op_or,      &&op_xor,      &&op_shl,       &&op_shr,
      &&op_addimm,  &&op_mulimm,   &&op_fxmul,     &&op_cmpeq,
      &&op_cmpne,   &&op_cmpltu,   &&op_cmpleu,    &&op_cmpeqimm,
      &&op_select,  &&op_loadhdr,  &&op_loadbody,  &&op_bodylen,
      &&op_loadmatch, &&op_load,   &&op_store,     &&op_respbyte,
      &&op_respword, &&op_respmem, &&op_memcpy,    &&op_grayscale,
      &&op_hash,    &&op_bodycopy, &&op_extcall,   &&op_br,
      &&op_brif,    &&op_call,     &&op_ret,       &&op_enter,
  };
  static_assert(sizeof(kRun) / sizeof(kRun[0]) == Executable::kEnter + 1);
  static const void* const kStep[] = {
      &&step, &&step, &&step, &&step, &&step, &&step, &&step, &&step,
      &&step, &&step, &&step, &&step, &&step, &&step, &&step, &&step,
      &&step, &&step, &&step, &&step, &&step, &&step, &&step, &&step,
      &&step, &&step, &&step, &&step, &&step, &&step, &&step, &&step,
      &&step, &&step, &&step, &&step, &&step, &&step, &&step, &&op_enter,
  };
  static_assert(sizeof(kStep) == sizeof(kRun));

  const Executable& image = *image_;
  const Invocation& inv = *invocation_;
  const void* const* table = kRun;
  std::uint64_t* regs = regs_.data() + frames_.back().base;
  std::uint64_t acc = 0;  // the value the previous op wrote (Op::fwd)

#define LNIC_DISPATCH() goto* table[ip->code]
#define LNIC_NEXT()  \
  do {               \
    ++ip;            \
    LNIC_DISPATCH(); \
  } while (0)
// Traps at the current op: it counts as executed but charges no cycles.
#define LNIC_TRAP(message)              \
  do {                                  \
    unwind_segment(ip, table == kStep); \
    return trap(message);               \
  } while (0)
// Operands, taken from `acc` instead of the register file when the
// previous op produced them.
#define LNIC_A (ip->fwd & 1 ? acc : regs[ip->a])
#define LNIC_B (ip->fwd & 2 ? acc : regs[ip->b])
// Pure ops: write dst and keep the value for the next op.
#define LNIC_PURE(name, expr)    \
  name:                          \
  acc = (expr);                  \
  regs[ip->dst] = acc;           \
  LNIC_NEXT();

  LNIC_DISPATCH();

op_enter:
  if (cycles_ + static_cast<std::uint64_t>(ip->imm) <= fuel_) {
    cycles_ += static_cast<std::uint64_t>(ip->imm);
    instructions_ += ip->cost;
    table = kRun;
  } else {
    table = kStep;
  }
  ++ip;
  LNIC_DISPATCH();

step:
  if (cycles_ > fuel_) return trap("fuel exhausted (compute limit)");
  cycles_ += ip->cost;
  ++instructions_;
  goto* kRun[ip->code];

  LNIC_PURE(op_const, static_cast<std::uint64_t>(ip->imm))
  LNIC_PURE(op_mov, LNIC_A)
  LNIC_PURE(op_add, LNIC_A + LNIC_B)
  LNIC_PURE(op_sub, LNIC_A - LNIC_B)
  LNIC_PURE(op_mul, LNIC_A * LNIC_B)
op_divu:
  if (LNIC_B == 0) LNIC_TRAP("division by zero");
  acc = LNIC_A / LNIC_B;
  regs[ip->dst] = acc;
  LNIC_NEXT();
op_remu:
  if (LNIC_B == 0) LNIC_TRAP("remainder by zero");
  acc = LNIC_A % LNIC_B;
  regs[ip->dst] = acc;
  LNIC_NEXT();
  LNIC_PURE(op_and, LNIC_A & LNIC_B)
  LNIC_PURE(op_or, LNIC_A | LNIC_B)
  LNIC_PURE(op_xor, LNIC_A ^ LNIC_B)
  LNIC_PURE(op_shl, LNIC_A << (LNIC_B & 63))
  LNIC_PURE(op_shr, LNIC_A >> (LNIC_B & 63))
  LNIC_PURE(op_addimm, LNIC_A + static_cast<std::uint64_t>(ip->imm))
  LNIC_PURE(op_mulimm, LNIC_A * static_cast<std::uint64_t>(ip->imm))
  // Q16.16 multiply (fixed-point substitute for float, §3.1b).
  LNIC_PURE(op_fxmul, static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                          (static_cast<std::int64_t>(
                               static_cast<std::int32_t>(LNIC_A)) *
                           static_cast<std::int32_t>(LNIC_B)) >>
                          16)))
  LNIC_PURE(op_cmpeq, LNIC_A == LNIC_B)
  LNIC_PURE(op_cmpne, LNIC_A != LNIC_B)
  LNIC_PURE(op_cmpltu, LNIC_A < LNIC_B)
  LNIC_PURE(op_cmpleu, LNIC_A <= LNIC_B)
  LNIC_PURE(op_cmpeqimm, LNIC_A == static_cast<std::uint64_t>(ip->imm))
  LNIC_PURE(op_select, LNIC_A ? LNIC_B
                              : regs[static_cast<std::uint16_t>(ip->imm)])
  LNIC_PURE(op_loadhdr, inv.headers.fields[static_cast<std::size_t>(ip->imm)])
op_loadbody: {
  const std::uint64_t off = LNIC_A + static_cast<std::uint64_t>(ip->imm);
  if (off >= inv.body.size()) LNIC_TRAP("request body read past end");
  acc = inv.body[off];
  regs[ip->dst] = acc;
  LNIC_NEXT();
}
  LNIC_PURE(op_bodylen, inv.body.size())
op_loadmatch: {
  const auto idx = static_cast<std::size_t>(ip->imm);
  if (idx >= inv.match_data.size()) LNIC_TRAP("match_data out of range");
  acc = inv.match_data[idx];
  regs[ip->dst] = acc;
  LNIC_NEXT();
}

op_load: {
  const ObjectStore::Object* object = objs_[ip->obj];
  const std::uint64_t off = LNIC_A + static_cast<std::uint64_t>(ip->imm);
  if (object == nullptr || !fits(off, ip->width, object->bytes.size())) {
    LNIC_TRAP(out_of_bounds("load from", image.objects_[ip->obj], off));
  }
  acc = load_bytes(object->bytes.data() + off, ip->width);
  regs[ip->dst] = acc;
  LNIC_NEXT();
}
op_store: {
  ObjectStore::Object* object = objs_[ip->obj];
  const std::uint64_t off = LNIC_A + static_cast<std::uint64_t>(ip->imm);
  if (object == nullptr || !fits(off, ip->width, object->bytes.size())) {
    LNIC_TRAP(out_of_bounds("store to", image.objects_[ip->obj], off));
  }
  store_bytes(object->bytes.data() + off, ip->width, LNIC_B);
  object->written();
  LNIC_NEXT();
}

op_respbyte:
  if (response_.size() >= kMaxResponse) LNIC_TRAP("response too large");
  response_.push_back(static_cast<std::uint8_t>(LNIC_A));
  LNIC_NEXT();
op_respword: {
  if (response_.size() + 8 > kMaxResponse) LNIC_TRAP("response too large");
  const std::uint64_t v = LNIC_A;
  for (int i = 0; i < 8; ++i) {
    response_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  LNIC_NEXT();
}

op_respmem: {
  const ObjectStore::Object* object = objs_[ip->obj];
  const std::uint64_t off = regs[ip->a];
  const std::uint64_t len = regs[ip->b];
  if (object == nullptr || !fits(off, len, object->bytes.size())) {
    LNIC_TRAP("response copy out of bounds");
  }
  if (response_.size() + len > kMaxResponse) LNIC_TRAP("response too large");
  const std::uint8_t* bytes = object->bytes.data() + off;
  response_.insert(response_.end(), bytes, bytes + len);
  const std::uint64_t words = (len + 7) / 8;
  bulk_cycles_ +=
      words * image.read_cost(ip->obj) / image.cost_.bulk_divisor + words;
  LNIC_NEXT();
}

// Bulk intrinsics: `dst` names the register holding the destination
// offset (these ops write memory, not a register).
op_memcpy: {
  const auto src_obj = static_cast<std::size_t>(ip->imm);
  ObjectStore::Object* dst = objs_[ip->obj];
  const ObjectStore::Object* src = objs_[src_obj];
  const std::uint64_t doff = regs[ip->dst];
  const std::uint64_t soff = regs[ip->a];
  const std::uint64_t len = regs[ip->b];
  if (dst == nullptr || src == nullptr || !fits(doff, len, dst->bytes.size()) ||
      !fits(soff, len, src->bytes.size())) {
    LNIC_TRAP("memcpy out of bounds");
  }
  std::memmove(dst->bytes.data() + doff, src->bytes.data() + soff, len);
  dst->written();
  const std::uint64_t words = (len + 7) / 8;
  bulk_cycles_ +=
      words * (image.read_cost(src_obj) + image.write_cost(ip->obj)) /
          image.cost_.bulk_divisor +
      words;
  LNIC_NEXT();
}
op_grayscale: {
  // RGBA8888 -> 8-bit luma with integer weights (no FPU, §3.1b):
  // y = (77 R + 150 G + 29 B) >> 8.
  const auto src_obj = static_cast<std::size_t>(ip->imm);
  ObjectStore::Object* dst = objs_[ip->obj];
  const ObjectStore::Object* src = objs_[src_obj];
  const std::uint64_t doff = regs[ip->dst];
  const std::uint64_t soff = regs[ip->a];
  const std::uint64_t pixels = regs[ip->b];
  if (dst == nullptr || src == nullptr || soff > src->bytes.size() ||
      pixels > (src->bytes.size() - soff) / 4 ||
      !fits(doff, pixels, dst->bytes.size())) {
    LNIC_TRAP("grayscale out of bounds");
  }
  const std::uint8_t* in = src->bytes.data() + soff;
  std::uint8_t* out = dst->bytes.data() + doff;
  for (std::uint64_t i = 0; i < pixels; ++i) {
    const std::uint8_t* p = in + i * 4;
    out[i] = static_cast<std::uint8_t>(
        (77u * p[0] + 150u * p[1] + 29u * p[2]) >> 8);
  }
  dst->written();
  bulk_cycles_ +=
      pixels * (image.read_cost(src_obj) + image.write_cost(ip->obj)) /
          image.cost_.bulk_divisor +
      pixels * 6 * image.cost_.alu_cycles;
  LNIC_NEXT();
}
op_hash: {
  ObjectStore::Object* object = objs_[ip->obj];
  const std::uint64_t off = regs[ip->a];
  const std::uint64_t len = regs[ip->b];
  if (object == nullptr || !fits(off, len, object->bytes.size())) {
    LNIC_TRAP("hash out of bounds");
  }
  // The simulated cost below is the same for a memo hit.
  acc = ip->imm != 0 ? object->hash(off, len)
                     : fnv1a(object->bytes.data() + off, len);
  regs[ip->dst] = acc;
  const std::uint64_t words = (len + 7) / 8;
  bulk_cycles_ +=
      words * (image.read_cost(ip->obj) + 2 * image.cost_.alu_cycles);
  LNIC_NEXT();
}
op_bodycopy: {
  ObjectStore::Object* dst = objs_[ip->obj];
  const std::uint64_t doff = regs[ip->dst];
  const std::uint64_t boff = regs[ip->a];
  const std::uint64_t len = regs[ip->b];
  if (dst == nullptr || !fits(boff, len, inv.body.size()) ||
      !fits(doff, len, dst->bytes.size())) {
    LNIC_TRAP("body copy out of bounds");
  }
  std::memcpy(dst->bytes.data() + doff, inv.body.data() + boff, len);
  dst->written();
  const std::uint64_t words = (len + 7) / 8;
  bulk_cycles_ +=
      words * (image.cost_.body_cycles / 4 + image.write_cost(ip->obj)) /
          image.cost_.bulk_divisor +
      words;
  LNIC_NEXT();
}

op_extcall: {
  Outcome out;
  out.state = RunState::kYield;
  out.ext.kind = ip->imm;
  out.ext.key = regs[ip->a];
  out.ext.value = regs[ip->b];
  out.cycles = scaled_cycles();
  out.instructions = instructions_;
  resume_ip_ = ip + 1;  // the marker re-entering the rest of the block
  resume_dst_ = ip->dst;
  suspended_ = true;
  return out;
}

op_br:
  ip += ip->imm;
  LNIC_DISPATCH();
op_brif: {
  const auto targets = static_cast<std::uint64_t>(ip->imm);
  ip += static_cast<std::int32_t>(LNIC_A != 0 ? targets : targets >> 32);
  LNIC_DISPATCH();
}
op_call: {
  if (frames_.size() >= kMaxCallDepth) {
    LNIC_TRAP("call depth limit (recursion unsupported on NPUs)");
  }
  const auto callee = static_cast<std::uint32_t>(ip->imm);
  Frame& caller = frames_.back();
  caller.resume = ip + 1;  // return lands on the marker after the call
  const std::uint32_t args = caller.base + ip->a;
  const std::uint32_t base = caller.top;
  if (!enter(callee, base, ip->dst)) LNIC_TRAP(std::move(trap_));
  // enter() may have grown the register stack.
  regs = regs_.data() + base;
  std::copy_n(regs_.data() + args, ip->b, regs);
  ip = image.fns_[callee].ops.data();
  LNIC_DISPATCH();
}
op_ret: {
  const std::uint64_t value = LNIC_A;
  const std::uint16_t ret_dst = frames_.back().ret_dst;
  frames_.pop_back();
  if (frames_.empty()) return finish(value);
  const Frame& caller = frames_.back();
  regs = regs_.data() + caller.base;
  regs[ret_dst] = value;
  ip = caller.resume;
  LNIC_DISPATCH();
}

#undef LNIC_PURE
#undef LNIC_B
#undef LNIC_A
#undef LNIC_TRAP
#undef LNIC_NEXT
#undef LNIC_DISPATCH
}

}  // namespace lnic::microc
