#include "microc/serialize.h"

#include <cstring>

#include "microc/verify.h"

namespace lnic::microc {

namespace {

constexpr std::uint32_t kMagic = 0x57464E4C;  // "LNFW"
constexpr std::uint32_t kVersion = 1;

class Writer {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v) {
    for (int i = 0; i < 2; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  void blob(const std::vector<std::uint8_t>& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    bytes_.insert(bytes_.end(), b.begin(), b.end());
  }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

  bool u8(std::uint8_t& v) {
    if (pos_ + 1 > bytes_.size()) return false;
    v = bytes_[pos_++];
    return true;
  }
  bool u16(std::uint16_t& v) {
    std::uint8_t lo, hi;
    if (!u8(lo) || !u8(hi)) return false;
    v = static_cast<std::uint16_t>(lo | (hi << 8));
    return true;
  }
  bool u32(std::uint32_t& v) {
    v = 0;
    for (int i = 0; i < 4; ++i) {
      std::uint8_t b;
      if (!u8(b)) return false;
      v |= static_cast<std::uint32_t>(b) << (8 * i);
    }
    return true;
  }
  bool u64(std::uint64_t& v) {
    v = 0;
    for (int i = 0; i < 8; ++i) {
      std::uint8_t b;
      if (!u8(b)) return false;
      v |= static_cast<std::uint64_t>(b) << (8 * i);
    }
    return true;
  }
  bool i64(std::int64_t& v) {
    std::uint64_t raw;
    if (!u64(raw)) return false;
    v = static_cast<std::int64_t>(raw);
    return true;
  }
  bool str(std::string& s) {
    std::uint32_t len;
    if (!u32(len) || pos_ + len > bytes_.size()) return false;
    s.assign(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
             bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += len;
    return true;
  }
  bool blob(std::vector<std::uint8_t>& b) {
    std::uint32_t len;
    if (!u32(len) || pos_ + len > bytes_.size()) return false;
    b.assign(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
             bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += len;
    return true;
  }
  bool done() const { return pos_ == bytes_.size(); }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<std::uint8_t> serialize(const Program& program) {
  Writer w;
  w.u32(kMagic);
  w.u32(kVersion);
  w.str(program.name);

  w.u32(static_cast<std::uint32_t>(program.objects.size()));
  for (const auto& obj : program.objects) {
    w.str(obj.name);
    w.u64(obj.size);
    w.u8(static_cast<std::uint8_t>(obj.scope));
    w.u8(static_cast<std::uint8_t>(obj.access));
    w.u8(static_cast<std::uint8_t>(obj.hint));
    w.u8(static_cast<std::uint8_t>(obj.region));
    w.u32(obj.access_estimate);
    w.blob(obj.initial_data);
  }

  w.u32(static_cast<std::uint32_t>(program.functions.size()));
  for (const auto& fn : program.functions) {
    w.str(fn.name);
    w.u16(fn.num_regs);
    w.u16(fn.num_args);
    w.u32(static_cast<std::uint32_t>(fn.blocks.size()));
    for (const auto& block : fn.blocks) {
      w.u32(static_cast<std::uint32_t>(block.instrs.size()));
      for (const auto& in : block.instrs) {
        w.u8(static_cast<std::uint8_t>(in.op));
        w.u16(in.dst);
        w.u16(in.a);
        w.u16(in.b);
        w.i64(in.imm);
        w.u16(in.obj);
        w.u16(in.obj2);
        w.u8(in.width);
      }
    }
  }

  w.u32(static_cast<std::uint32_t>(program.parsed_fields.size()));
  for (auto field : program.parsed_fields) {
    w.u16(static_cast<std::uint16_t>(field));
  }
  w.u32(program.dispatch_function);
  w.u32(static_cast<std::uint32_t>(program.lambda_entries.size()));
  for (const auto& [wid, fn] : program.lambda_entries) {
    w.u32(wid);
    w.u32(fn);
  }
  return w.take();
}

Result<Program> deserialize(const std::vector<std::uint8_t>& bytes) {
  Reader r(bytes);
  const Error malformed = make_error("deserialize: truncated or malformed firmware");
  std::uint32_t magic = 0, version = 0;
  if (!r.u32(magic) || !r.u32(version)) return malformed;
  if (magic != kMagic) return make_error("deserialize: bad magic");
  if (version != kVersion) return make_error("deserialize: unsupported version");

  Program program;
  if (!r.str(program.name)) return malformed;

  std::uint32_t num_objects = 0;
  if (!r.u32(num_objects)) return malformed;
  for (std::uint32_t i = 0; i < num_objects; ++i) {
    MemObject obj;
    std::uint8_t scope, access, hint, region;
    if (!r.str(obj.name) || !r.u64(obj.size) || !r.u8(scope) ||
        !r.u8(access) || !r.u8(hint) || !r.u8(region) ||
        !r.u32(obj.access_estimate) || !r.blob(obj.initial_data)) {
      return malformed;
    }
    if (scope > 1 || access > 2 || hint > 2 || region > 3) {
      return make_error("deserialize: bad object metadata");
    }
    obj.scope = static_cast<MemScope>(scope);
    obj.access = static_cast<AccessPattern>(access);
    obj.hint = static_cast<PlacementHint>(hint);
    obj.region = static_cast<MemRegion>(region);
    program.objects.push_back(std::move(obj));
  }

  std::uint32_t num_functions = 0;
  if (!r.u32(num_functions)) return malformed;
  for (std::uint32_t i = 0; i < num_functions; ++i) {
    Function fn;
    std::uint32_t num_blocks = 0;
    if (!r.str(fn.name) || !r.u16(fn.num_regs) || !r.u16(fn.num_args) ||
        !r.u32(num_blocks)) {
      return malformed;
    }
    for (std::uint32_t b = 0; b < num_blocks; ++b) {
      BasicBlock block;
      std::uint32_t num_instrs = 0;
      if (!r.u32(num_instrs)) return malformed;
      for (std::uint32_t k = 0; k < num_instrs; ++k) {
        Instr in;
        std::uint8_t op;
        if (!r.u8(op) || !r.u16(in.dst) || !r.u16(in.a) || !r.u16(in.b) ||
            !r.i64(in.imm) || !r.u16(in.obj) || !r.u16(in.obj2) ||
            !r.u8(in.width)) {
          return malformed;
        }
        if (op > static_cast<std::uint8_t>(Opcode::kRet)) {
          return make_error("deserialize: bad opcode");
        }
        in.op = static_cast<Opcode>(op);
        block.instrs.push_back(in);
      }
      fn.blocks.push_back(std::move(block));
    }
    program.functions.push_back(std::move(fn));
  }

  std::uint32_t num_fields = 0;
  if (!r.u32(num_fields)) return malformed;
  for (std::uint32_t i = 0; i < num_fields; ++i) {
    std::uint16_t field;
    if (!r.u16(field)) return malformed;
    if (field >= kHdrFieldCount) return make_error("deserialize: bad field");
    program.parsed_fields.push_back(static_cast<HeaderField>(field));
  }
  std::uint32_t num_entries = 0;
  if (!r.u32(program.dispatch_function) || !r.u32(num_entries)) {
    return malformed;
  }
  for (std::uint32_t i = 0; i < num_entries; ++i) {
    std::uint32_t wid, fn;
    if (!r.u32(wid) || !r.u32(fn)) return malformed;
    program.lambda_entries.emplace_back(wid, fn);
  }
  if (!r.done()) return make_error("deserialize: trailing bytes");
  // Firmware bytes are untrusted: only a program that passes the
  // verifier leaves here, so nothing downstream (disassembler, lowering,
  // interpreter) ever sees an out-of-range index.
  if (Status st = verify(program); !st.ok()) return st.error();
  return program;
}

}  // namespace lnic::microc
