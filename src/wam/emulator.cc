#include "wam/emulator.h"

#include "db/program.h"

namespace xsb::wam {

namespace {
constexpr uint32_t kFailTarget = 0xffffffffu;
}  // namespace

bool Emulator::BuiltinWamStats() {
  SymbolTable* symbols = store_->symbols();
  WamStats snap = stats_;
  AtomId dash = symbols->InternAtom("-");
  auto pair = [&](const char* name, uint64_t v) {
    return store_->MakeStruct2(dash, AtomCell(symbols->InternAtom(name)),
                               IntCell(static_cast<int64_t>(v)));
  };
  std::vector<Word> items = {
      pair("instructions", snap.instructions),
      pair("choice_points", snap.choice_points),
      pair("switch_structure_hits", snap.switch_structure_hits),
      pair("switch_miss_linear", snap.switch_miss_linear),
  };
  Word list = store_->MakeList(items, AtomCell(symbols->nil()));
  return store_->Unify(x_[1], AtomCell(symbols->InternAtom("all"))) &&
         store_->Unify(x_[2], list);
}

bool Emulator::Backtrack(size_t* pc) {
  if (cps_size_ == 0) return false;
  Choice& cp = cps_[cps_size_ - 1];
  store_->UndoTrail(cp.trail_mark);
  store_->TruncateHeap(cp.heap_mark);
  frames_size_ = cp.frames_size;
  cur_frame_ = cp.frame;
  if (x_.size() < cp.args.size()) x_.resize(cp.args.size(), 0);
  for (size_t i = 0; i < cp.args.size(); ++i) x_[i] = cp.args[i];
  *pc = cp.alt_pc;
  return true;
}

Result<int64_t> Emulator::Eval(Word expression) {
  Word e = store_->Deref(expression);
  if (IsInt(e)) return IntValue(e);
  if (IsRef(e)) return InstantiationError("wam: unbound arithmetic");
  if (!IsStruct(e)) return TypeError("wam: bad arithmetic term");
  SymbolTable* symbols = store_->symbols();
  FunctorId f = store_->StructFunctor(e);
  const std::string& name = symbols->AtomName(symbols->FunctorAtom(f));
  int arity = symbols->FunctorArity(f);
  if (arity == 1) {
    Result<int64_t> a = Eval(store_->Arg(e, 0));
    if (!a.ok()) return a;
    if (name == "-") return -a.value();
    if (name == "+") return a.value();
    if (name == "abs") return a.value() < 0 ? -a.value() : a.value();
    return TypeError("wam: unknown arithmetic " + name + "/1");
  }
  if (arity == 2) {
    Result<int64_t> a = Eval(store_->Arg(e, 0));
    if (!a.ok()) return a;
    Result<int64_t> b = Eval(store_->Arg(e, 1));
    if (!b.ok()) return b;
    int64_t x = a.value(), y = b.value();
    if (name == "+") return x + y;
    if (name == "-") return x - y;
    if (name == "*") return x * y;
    if (name == "//" || name == "/") {
      if (y == 0) return TypeError("wam: zero divisor");
      return x / y;
    }
    if (name == "mod") {
      if (y == 0) return TypeError("wam: zero divisor");
      int64_t m = x % y;
      if (m != 0 && ((m < 0) != (y < 0))) m += y;
      return m;
    }
    return TypeError("wam: unknown arithmetic " + name + "/2");
  }
  return TypeError("wam: bad arithmetic term");
}

Status Emulator::Solve(Word goal, const WamSolutionFn& on_solution) {
  goal = store_->Deref(goal);
  std::optional<FunctorId> functor = Program::CallableFunctor(*store_, goal);
  if (!functor.has_value()) return TypeError("wam: goal is not callable");
  auto entry = module_->entries.find(*functor);
  if (entry == module_->entries.end()) {
    return InvalidError("wam: predicate not compiled in this module");
  }

  // Reset machine state.
  x_.assign(16, 0);
  frames_size_ = 0;  // storage kept: see the high-water-mark stack comment
  cur_frame_ = 0;
  cps_size_ = 0;
  size_t base_trail = store_->TrailMark();
  size_t base_heap = store_->HeapMark();

  int arity = IsStruct(goal) ? store_->StructArity(goal) : 0;
  if (x_.size() <= static_cast<size_t>(arity)) x_.resize(arity + 1, 0);
  for (int i = 0; i < arity; ++i) {
    x_[static_cast<size_t>(i) + 1] = store_->Arg(goal, i);
  }

  size_t pc = entry->second;
  size_t cont = 0;  // pc 0 is the kSolution epilogue
  bool write_mode = false;
  uint64_t s = 0;  // heap cursor inside a structure

  const std::vector<Instr>& code = module_->code;
  Status status = Status::Ok();
  bool running = true;
  bool stopped = false;  // callback asked to keep the current solution

  auto fail = [&]() {
    if (!Backtrack(&pc)) {
      running = false;
    }
  };

  while (running) {
    const Instr& instr = code[pc];
    ++stats_.instructions;
    switch (instr.op) {
      case Op::kGetVariable:
        Reg(instr.a) = x_[instr.b];
        ++pc;
        break;
      case Op::kGetValue:
        if (store_->Unify(Reg(instr.a), x_[instr.b])) {
          ++pc;
        } else {
          fail();
        }
        break;
      case Op::kGetConstant: {
        Word c = module_->constants[instr.a];
        Word v = store_->Deref(x_[instr.b]);
        if (IsRef(v)) {
          store_->Bind(v, c);
          ++pc;
        } else if (v == c) {
          ++pc;
        } else {
          fail();
        }
        break;
      }
      case Op::kGetStructure: {
        Word v = store_->Deref(x_[instr.b]);
        if (IsRef(v)) {
          Word structure = store_->MakeStructUninit(instr.a);
          store_->Bind(v, structure);
          s = PayloadOf(structure) + 1;
          write_mode = true;
          ++pc;
        } else if (IsStruct(v) && store_->StructFunctor(v) == instr.a) {
          s = PayloadOf(v) + 1;
          write_mode = false;
          ++pc;
        } else {
          fail();
        }
        break;
      }
      case Op::kUnifyVariable:
        if (write_mode) {
          Reg(instr.a) = RefCell(s);  // the fresh arg cell itself
        } else {
          Reg(instr.a) = store_->At(s);
        }
        ++s;
        ++pc;
        break;
      case Op::kUnifyValue:
        if (write_mode) {
          store_->At(s) = Reg(instr.a);
          ++s;
          ++pc;
        } else if (store_->Unify(Reg(instr.a), RefCell(s))) {
          ++s;
          ++pc;
        } else {
          fail();
        }
        break;
      case Op::kUnifyConstant: {
        Word c = module_->constants[instr.a];
        if (write_mode) {
          store_->At(s) = c;
          ++s;
          ++pc;
        } else {
          Word v = store_->Deref(store_->At(s));
          if (IsRef(v)) {
            store_->Bind(v, c);
            ++s;
            ++pc;
          } else if (v == c) {
            ++s;
            ++pc;
          } else {
            fail();
          }
        }
        break;
      }
      case Op::kUnifyVoid:
        s += instr.a;
        ++pc;
        break;
      case Op::kPutVariable: {
        Word v = store_->MakeVar();
        Reg(instr.a) = v;
        x_[instr.b] = v;
        ++pc;
        break;
      }
      case Op::kPutValue:
        x_[instr.b] = Reg(instr.a);
        ++pc;
        break;
      case Op::kPutConstant:
        x_[instr.b] = module_->constants[instr.a];
        ++pc;
        break;
      case Op::kPutStructure: {
        Word structure = store_->MakeStructUninit(instr.a);
        if (x_.size() <= instr.b) x_.resize(instr.b + 1, 0);
        Reg(instr.b) = structure;
        s = PayloadOf(structure) + 1;
        write_mode = true;
        ++pc;
        break;
      }
      case Op::kAllocate:
        AllocateFrame(instr.a, cont);
        ++pc;
        break;
      case Op::kDeallocate:
        cont = DeallocateFrame();
        ++pc;
        break;
      case Op::kCall:
        cont = pc + 1;
        pc = instr.a;
        break;
      case Op::kProceed:
        pc = cont;
        break;
      case Op::kTryMeElse:
      case Op::kTry: {
        bool me = instr.op == Op::kTryMeElse;
        // try_me_else only heads unindexed chains: entering one means this
        // call never saw a switch.
        if (me) ++stats_.switch_miss_linear;
        PushChoice(me ? instr.a : pc + 1, instr.b, cont);
        pc = me ? pc + 1 : instr.a;
        break;
      }
      case Op::kRetryMeElse:
        cont = RetryTop(instr.a);
        ++pc;
        break;
      case Op::kRetry:
        cont = RetryTop(pc + 1);
        pc = instr.a;
        break;
      case Op::kTrustMe:
        cont = TrustTop();
        ++pc;
        break;
      case Op::kTrust:
        cont = TrustTop();
        pc = instr.a;
        break;
      case Op::kSwitchOnTerm: {
        Word v = store_->Deref(x_[1]);
        uint32_t target;
        if (IsRef(v)) {
          target = instr.a;
          // An unbound first argument falls through to the full linear
          // chain — the dispatch the index could not help.
          if (target != kFailTarget) ++stats_.switch_miss_linear;
        } else if (IsAtom(v) || IsInt(v)) {
          target = instr.b;
        } else {
          target = instr.c;
        }
        if (target == kFailTarget) {
          fail();
        } else {
          pc = target;
        }
        break;
      }
      case Op::kSwitchOnConstant: {
        const SwitchTable& table = module_->switch_tables[instr.a];
        uint32_t target = table.Lookup(store_->Deref(x_[1]));
        if (target == SwitchTable::kMiss) {
          fail();
        } else {
          pc = target;
        }
        break;
      }
      case Op::kSwitchOnStructure: {
        // Dispatch on the functor/arity key of A1; './2' takes the one-
        // compare list fast path ahead of the table.
        Word v = store_->Deref(x_[1]);
        if (!IsStruct(v)) {
          fail();
          break;
        }
        if (instr.c != kFailTarget &&
            store_->StructFunctor(v) == static_cast<FunctorId>(instr.b)) {
          ++stats_.switch_structure_hits;
          pc = instr.c;
          break;
        }
        const SwitchTable& table = module_->switch_tables[instr.a];
        uint32_t target = table.Lookup(FunctorCell(store_->StructFunctor(v)));
        if (target == SwitchTable::kMiss) {
          fail();
        } else {
          ++stats_.switch_structure_hits;
          pc = target;
        }
        break;
      }
      case Op::kBuiltin: {
        BuiltinOp op = static_cast<BuiltinOp>(instr.a);
        bool ok = true;
        switch (op) {
          case BuiltinOp::kTrue:
            break;
          case BuiltinOp::kFail:
            ok = false;
            break;
          case BuiltinOp::kUnify:
            ok = store_->Unify(x_[1], x_[2]);
            break;
          case BuiltinOp::kWamStats:
            ok = BuiltinWamStats();
            break;
          case BuiltinOp::kIs: {
            Result<int64_t> v = Eval(x_[2]);
            if (!v.ok()) return v.status();
            ok = store_->Unify(x_[1], IntCell(v.value()));
            break;
          }
          default: {
            Result<int64_t> a = Eval(x_[1]);
            if (!a.ok()) return a.status();
            Result<int64_t> b = Eval(x_[2]);
            if (!b.ok()) return b.status();
            switch (op) {
              case BuiltinOp::kLess:
                ok = a.value() < b.value();
                break;
              case BuiltinOp::kLessEq:
                ok = a.value() <= b.value();
                break;
              case BuiltinOp::kGreater:
                ok = a.value() > b.value();
                break;
              case BuiltinOp::kGreaterEq:
                ok = a.value() >= b.value();
                break;
              case BuiltinOp::kArithEq:
                ok = a.value() == b.value();
                break;
              case BuiltinOp::kArithNeq:
                ok = a.value() != b.value();
                break;
              default:
                return InvalidError("wam: bad builtin");
            }
            break;
          }
        }
        if (ok) {
          ++pc;
        } else {
          fail();
        }
        break;
      }
      case Op::kSolution: {
        WamAction action = on_solution();
        if (action == WamAction::kStop) {
          stopped = true;
          running = false;
          break;
        }
        fail();
        break;
      }
      case Op::kHalt:
        running = false;
        break;
    }
  }

  // Keep the last solution's bindings if the caller stopped; otherwise the
  // search is exhausted and everything is unwound to the entry marks.
  if (!stopped && status.ok()) {
    store_->UndoTrail(base_trail);
    store_->TruncateHeap(base_heap);
  }
  return status;
}

}  // namespace xsb::wam
