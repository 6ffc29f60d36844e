#include "src/isa/instruction.hpp"

namespace tcdm {

bool is_vector(Opcode op) noexcept {
  return op >= Opcode::kVsetvli && op <= Opcode::kVfredusum;
}

bool is_vector_memory(Opcode op) noexcept {
  switch (op) {
    case Opcode::kVle32:
    case Opcode::kVse32:
    case Opcode::kVlse32:
    case Opcode::kVsse32:
    case Opcode::kVluxei32:
    case Opcode::kVsuxei32:
      return true;
    default:
      return false;
  }
}

const char* opcode_name(Opcode op) noexcept {
  switch (op) {
    case Opcode::kNop: return "nop";
    case Opcode::kLi: return "li";
    case Opcode::kAdd: return "add";
    case Opcode::kSub: return "sub";
    case Opcode::kMul: return "mul";
    case Opcode::kAddi: return "addi";
    case Opcode::kSlli: return "slli";
    case Opcode::kSrli: return "srli";
    case Opcode::kSrai: return "srai";
    case Opcode::kAnd: return "and";
    case Opcode::kOr: return "or";
    case Opcode::kXor: return "xor";
    case Opcode::kAndi: return "andi";
    case Opcode::kOri: return "ori";
    case Opcode::kXori: return "xori";
    case Opcode::kSlt: return "slt";
    case Opcode::kSltu: return "sltu";
    case Opcode::kSlti: return "slti";
    case Opcode::kBeq: return "beq";
    case Opcode::kBne: return "bne";
    case Opcode::kBlt: return "blt";
    case Opcode::kBge: return "bge";
    case Opcode::kBltu: return "bltu";
    case Opcode::kBgeu: return "bgeu";
    case Opcode::kJal: return "jal";
    case Opcode::kLw: return "lw";
    case Opcode::kSw: return "sw";
    case Opcode::kFlw: return "flw";
    case Opcode::kFsw: return "fsw";
    case Opcode::kAmoaddW: return "amoadd.w";
    case Opcode::kFaddS: return "fadd.s";
    case Opcode::kFsubS: return "fsub.s";
    case Opcode::kFmulS: return "fmul.s";
    case Opcode::kFmaddS: return "fmadd.s";
    case Opcode::kFmvWX: return "fmv.w.x";
    case Opcode::kFmvXW: return "fmv.x.w";
    case Opcode::kBarrier: return "barrier";
    case Opcode::kHalt: return "halt";
    case Opcode::kVsetvli: return "vsetvli";
    case Opcode::kVle32: return "vle32.v";
    case Opcode::kVse32: return "vse32.v";
    case Opcode::kVlse32: return "vlse32.v";
    case Opcode::kVsse32: return "vsse32.v";
    case Opcode::kVluxei32: return "vluxei32.v";
    case Opcode::kVsuxei32: return "vsuxei32.v";
    case Opcode::kVfaddVV: return "vfadd.vv";
    case Opcode::kVfsubVV: return "vfsub.vv";
    case Opcode::kVfmulVV: return "vfmul.vv";
    case Opcode::kVfmaccVV: return "vfmacc.vv";
    case Opcode::kVfnmsacVV: return "vfnmsac.vv";
    case Opcode::kVfmaxVV: return "vfmax.vv";
    case Opcode::kVfminVV: return "vfmin.vv";
    case Opcode::kVfaddVF: return "vfadd.vf";
    case Opcode::kVfmulVF: return "vfmul.vf";
    case Opcode::kVfmaccVF: return "vfmacc.vf";
    case Opcode::kVfmaxVF: return "vfmax.vf";
    case Opcode::kVfmvVF: return "vfmv.v.f";
    case Opcode::kVfredusum: return "vfredusum.vs";
  }
  return "?";
}

}  // namespace tcdm
