#include "microc/ir.h"

#include <cassert>

namespace lnic::microc {

const char* to_string(MemRegion region) {
  switch (region) {
    case MemRegion::kLocal: return "local";
    case MemRegion::kCtm: return "ctm";
    case MemRegion::kImem: return "imem";
    case MemRegion::kEmem: return "emem";
  }
  return "?";
}

const char* to_string(Opcode op) {
  switch (op) {
    case Opcode::kConst: return "const";
    case Opcode::kMov: return "mov";
    case Opcode::kAdd: return "add";
    case Opcode::kSub: return "sub";
    case Opcode::kMul: return "mul";
    case Opcode::kDivU: return "divu";
    case Opcode::kRemU: return "remu";
    case Opcode::kAnd: return "and";
    case Opcode::kOr: return "or";
    case Opcode::kXor: return "xor";
    case Opcode::kShl: return "shl";
    case Opcode::kShr: return "shr";
    case Opcode::kAddImm: return "addi";
    case Opcode::kMulImm: return "muli";
    case Opcode::kFxMul: return "fxmul";
    case Opcode::kCmpEq: return "cmpeq";
    case Opcode::kCmpNe: return "cmpne";
    case Opcode::kCmpLtU: return "cmpltu";
    case Opcode::kCmpLeU: return "cmpleu";
    case Opcode::kCmpEqImm: return "cmpeqi";
    case Opcode::kSelect: return "select";
    case Opcode::kLoadHdr: return "ldhdr";
    case Opcode::kLoadBody: return "ldbody";
    case Opcode::kBodyLen: return "bodylen";
    case Opcode::kLoadMatch: return "ldmatch";
    case Opcode::kLoad: return "load";
    case Opcode::kStore: return "store";
    case Opcode::kRespByte: return "respb";
    case Opcode::kRespWord: return "respw";
    case Opcode::kRespMem: return "respm";
    case Opcode::kMemCpy: return "memcpy";
    case Opcode::kGrayscale: return "gray";
    case Opcode::kHash: return "hash";
    case Opcode::kBodyCopy: return "bodycpy";
    case Opcode::kExtCall: return "extcall";
    case Opcode::kBr: return "br";
    case Opcode::kBrIf: return "brif";
    case Opcode::kCall: return "call";
    case Opcode::kRet: return "ret";
  }
  return "?";
}

const char* to_string(HeaderField field) {
  switch (field) {
    case kHdrWorkloadId: return "workload_id";
    case kHdrRequestId: return "request_id";
    case kHdrSrcNode: return "src_node";
    case kHdrOp: return "op";
    case kHdrKey: return "key";
    case kHdrValue: return "value";
    case kHdrBodyLen: return "body_len";
    case kHdrImageWidth: return "image_width";
    case kHdrImageHeight: return "image_height";
    default: return "?";
  }
}

bool is_pure(Opcode op) {
  switch (op) {
    case Opcode::kConst:
    case Opcode::kMov:
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kDivU:
    case Opcode::kRemU:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kShl:
    case Opcode::kShr:
    case Opcode::kAddImm:
    case Opcode::kMulImm:
    case Opcode::kFxMul:
    case Opcode::kCmpEq:
    case Opcode::kCmpNe:
    case Opcode::kCmpLtU:
    case Opcode::kCmpLeU:
    case Opcode::kCmpEqImm:
    case Opcode::kSelect:
    case Opcode::kLoadHdr:
    case Opcode::kLoadBody:
    case Opcode::kBodyLen:
    case Opcode::kLoadMatch:
    case Opcode::kLoad:   // loads have no side effects; removable if dst dead
    case Opcode::kHash:
      return true;
    default:
      return false;
  }
}

bool is_terminator(Opcode op) {
  return op == Opcode::kBr || op == Opcode::kBrIf || op == Opcode::kRet;
}

bool is_memory_op(Opcode op) {
  switch (op) {
    case Opcode::kLoad:
    case Opcode::kStore:
    case Opcode::kMemCpy:
    case Opcode::kGrayscale:
    case Opcode::kHash:
    case Opcode::kRespMem:
    case Opcode::kBodyCopy:
      return true;
    default:
      return false;
  }
}

std::size_t Function::instr_count() const {
  std::size_t n = 0;
  for (const auto& block : blocks) n += block.instrs.size();
  return n;
}

std::size_t Program::function_index(const std::string& fn_name) const {
  for (std::size_t i = 0; i < functions.size(); ++i) {
    if (functions[i].name == fn_name) return i;
  }
  return kNoFunction;
}

namespace {
// Lowered instruction-store words for a memory access to a region:
// farther memories need transfer-register setup + split issue on the NFP.
std::uint32_t region_word_cost(MemRegion region) {
  switch (region) {
    case MemRegion::kLocal: return 1;
    case MemRegion::kCtm: return 1;
    case MemRegion::kImem: return 2;
    case MemRegion::kEmem: return 3;
  }
  return 3;
}
}  // namespace

std::uint32_t lowered_size(const Instr& instr, const Program& program) {
  if (is_memory_op(instr.op)) {
    assert(instr.obj < program.objects.size());
    std::uint32_t words = region_word_cost(program.objects[instr.obj].region);
    if (instr.op == Opcode::kMemCpy || instr.op == Opcode::kGrayscale) {
      assert(instr.obj2 < program.objects.size());
      words += region_word_cost(program.objects[instr.obj2].region);
      words += 2;  // loop control of the copy sequence
    }
    return words;
  }
  switch (instr.op) {
    case Opcode::kCall: return 2;        // save/restore linkage
    case Opcode::kExtCall: return 4;     // packet build + context save
    case Opcode::kFxMul: return 2;       // mul + shift
    case Opcode::kSelect: return 2;
    default: return 1;
  }
}

std::uint64_t code_size(const Program& program) {
  std::uint64_t words = 0;
  for (const auto& fn : program.functions) {
    for (const auto& block : fn.blocks) {
      for (const auto& instr : block.instrs) {
        words += lowered_size(instr, program);
      }
    }
  }
  // The generated parser: one extraction word per parsed header field.
  words += program.parsed_fields.size();
  return words;
}

Bytes region_bytes(const Program& program, MemRegion region) {
  return region_bytes(program.objects, region);
}

Bytes region_bytes(const std::vector<MemObject>& objects, MemRegion region) {
  Bytes total = 0;
  for (const auto& obj : objects) {
    if (obj.region == region) total += obj.size;
  }
  return total;
}

}  // namespace lnic::microc
