#ifndef XSB_WAM_INSTR_H_
#define XSB_WAM_INSTR_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "term/cell.h"

namespace xsb::wam {

// The classic WAM instruction set (Warren 1983), the execution level the
// paper's engine compiles to (sections 3.2 and 5: "XSB code is compiled to
// a lower level than is usual with database systems").
enum class Op : uint8_t {
  // Head (get) instructions — match the call's argument registers.
  kGetVariable,   // a: reg, b: Ai        Vreg = Ai
  kGetValue,      // a: reg, b: Ai        unify(Vreg, Ai)
  kGetConstant,   // a: const ix, b: Ai
  kGetStructure,  // a: functor, b: Ai    enter read/write mode

  // Unify (and write-mode set) instructions inside a structure.
  kUnifyVariable,  // a: reg
  kUnifyValue,     // a: reg
  kUnifyConstant,  // a: const ix
  kUnifyVoid,      // a: count

  // Body (put) instructions — load the next call's argument registers.
  kPutVariable,   // a: reg, b: Ai        fresh var in both
  kPutValue,      // a: reg, b: Ai
  kPutConstant,   // a: const ix, b: Ai
  kPutStructure,  // a: functor, b: Ai    write mode

  // Control.
  kAllocate,    // a: number of permanent (Y) variables
  kDeallocate,  //
  kCall,        // a: entry pc, b: functor (for diagnostics)
  kProceed,     //

  // Choice points.
  kTryMeElse,    // a: alternative pc
  kRetryMeElse,  // a: alternative pc
  kTrustMe,      //

  // First-argument indexing.
  kSwitchOnTerm,      // a: var pc, b: const-switch pc, c: struct pc
  kSwitchOnConstant,  // a: table index (constant -> pc; miss = fail)
  kTry,               // a: clause pc (like try_me_else but branch target)
  kRetry,             // a: clause pc
  kTrust,             // a: clause pc

  // Builtins evaluated over the argument registers.
  kBuiltin,  // a: BuiltinOp, b: arity (args in A1..Ab)

  // Query driving.
  kSolution,  // report a solution, then backtrack
  kHalt,

  // Second level of first-argument indexing, structure side: dispatch on
  // the functor/arity key of A1 (which must deref to a structure; anything
  // else fails). a: table index (functor cell -> pc; miss = fail),
  // b: the list cons functor id, c: list fast-path pc — the './2' bucket
  // is dispatched by one compare, before the table lookup (kFailTarget:
  // no list-keyed clauses, './2' falls through to the table miss).
  kSwitchOnStructure,
};

enum class BuiltinOp : uint32_t {
  kUnify,      // A1 = A2
  kIs,         // A1 is A2
  kLess,       // A1 < A2
  kLessEq,     // A1 =< A2
  kGreater,    // A1 > A2
  kGreaterEq,  // A1 >= A2
  kArithEq,    // A1 =:= A2
  kArithNeq,   // A1 =\= A2
  kTrue,
  kFail,
  kWamStats,   // wam_stats(Scope, Pairs): unify A2 with the emulator's
               // WamStats counters as a [name-Value, ...] list
};

// Register operands: X (temporary) registers share the space with argument
// registers (A_i == X_i); Y (permanent) registers live in the environment.
// The high bit selects Y.
constexpr uint32_t kYRegFlag = 0x80000000u;
inline uint32_t XReg(uint32_t n) { return n; }
inline uint32_t YReg(uint32_t n) { return n | kYRegFlag; }
inline bool IsYReg(uint32_t reg) { return (reg & kYRegFlag) != 0; }
inline uint32_t RegIndex(uint32_t reg) { return reg & ~kYRegFlag; }

struct Instr {
  Op op;
  uint32_t a = 0;
  uint32_t b = 0;
  uint32_t c = 0;
};

// One first-argument dispatch table (constant- or functor-keyed). Small
// fanouts stay an insertion-ordered vector scanned linearly — for the 2-4
// key predicates that dominate real programs a scan beats hashing — and
// escalate to a hash map once the key count passes kHashFanout.
struct SwitchTable {
  static constexpr uint32_t kMiss = 0xffffffffu;
  static constexpr size_t kHashFanout = 8;

  std::vector<std::pair<Word, uint32_t>> entries;  // insertion order
  std::unordered_map<Word, uint32_t> hash;         // built above kHashFanout

  void Set(Word key, uint32_t target) {
    for (auto& e : entries) {
      if (e.first == key) {
        e.second = target;
        if (!hash.empty()) hash[key] = target;
        return;
      }
    }
    entries.emplace_back(key, target);
    if (!hash.empty()) {
      hash.emplace(key, target);
    } else if (entries.size() > kHashFanout) {
      for (const auto& e : entries) hash.emplace(e.first, e.second);
    }
  }

  uint32_t Lookup(Word key) const {
    if (!hash.empty()) {
      auto it = hash.find(key);
      return it == hash.end() ? kMiss : it->second;
    }
    for (const auto& e : entries) {
      if (e.first == key) return e.second;
    }
    return kMiss;
  }

  size_t size() const { return entries.size(); }
  bool hashed() const { return !hash.empty(); }
};

// A compiled module: code, constants, switch tables and predicate entries.
struct CompiledModule {
  std::vector<Instr> code;
  std::vector<Word> constants;
  std::vector<SwitchTable> switch_tables;
  std::unordered_map<FunctorId, size_t> entries;  // functor -> entry pc

  size_t AddConstant(Word w) {
    for (size_t i = 0; i < constants.size(); ++i) {
      if (constants[i] == w) return i;
    }
    constants.push_back(w);
    return constants.size() - 1;
  }

  // Human-readable listing of the compiled code.
  std::string Disassemble(const SymbolTable& symbols) const;
};

}  // namespace xsb::wam

#endif  // XSB_WAM_INSTR_H_
