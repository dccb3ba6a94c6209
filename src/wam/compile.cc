#include "wam/compile.h"

#include <deque>
#include <unordered_map>

namespace xsb::wam {
namespace {

constexpr uint32_t kFailTarget = 0xffffffffu;

// Builtins the compiler knows how to emit (by name/arity).
const std::unordered_map<std::string, BuiltinOp>& BuiltinNames() {
  static const auto* map = new std::unordered_map<std::string, BuiltinOp>{
      {"=/2", BuiltinOp::kUnify},     {"is/2", BuiltinOp::kIs},
      {"</2", BuiltinOp::kLess},      {"=</2", BuiltinOp::kLessEq},
      {">/2", BuiltinOp::kGreater},   {">=/2", BuiltinOp::kGreaterEq},
      {"=:=/2", BuiltinOp::kArithEq}, {"=\\=/2", BuiltinOp::kArithNeq},
      {"true/0", BuiltinOp::kTrue},   {"fail/0", BuiltinOp::kFail},
      {"false/0", BuiltinOp::kFail},  {"wam_stats/2", BuiltinOp::kWamStats},
  };
  return *map;
}

class Compiler {
 public:
  Compiler(TermStore* store, const Program& program,
           const CompileOptions& options)
      : store_(store),
        symbols_(store->symbols()),
        program_(program),
        options_(options) {}

  Result<CompiledModule> Compile(std::vector<FunctorId> predicates) {
    if (predicates.empty()) {
      for (const auto& pred : program_.predicates()) {
        if (pred == nullptr) continue;
        FunctorId functor = pred->functor();
        if (pred->num_live_clauses() > 0) predicates.push_back(functor);
      }
    }
    compiled_set_.insert(predicates.begin(), predicates.end());

    // pc 0/1: the query epilogue every Solve call continues into.
    module_.code.push_back(Instr{Op::kSolution, 0, 0, 0});
    module_.code.push_back(Instr{Op::kHalt, 0, 0, 0});

    for (FunctorId functor : predicates) {
      Status s = CompilePredicate(functor);
      if (!s.ok()) return s;
    }
    // Resolve call fixups.
    for (const auto& [pc, functor] : call_fixups_) {
      auto it = module_.entries.find(functor);
      if (it == module_.entries.end()) {
        return InvalidError("wam: call to predicate outside the module: " +
                            FunctorName(functor));
      }
      module_.code[pc].a = static_cast<uint32_t>(it->second);
    }
    return std::move(module_);
  }

 private:
  std::string FunctorName(FunctorId f) const {
    return symbols_->AtomName(symbols_->FunctorAtom(f)) + "/" +
           std::to_string(symbols_->FunctorArity(f));
  }

  void Emit(Op op, uint32_t a = 0, uint32_t b = 0, uint32_t c = 0) {
    module_.code.push_back(Instr{op, a, b, c});
  }
  size_t Here() const { return module_.code.size(); }

  Status CompilePredicate(FunctorId functor) {
    const Predicate* pred = program_.Lookup(functor);
    if (pred == nullptr || pred->num_live_clauses() == 0) {
      return InvalidError("wam: no clauses for " + FunctorName(functor));
    }
    if (pred->tabled()) {
      return InvalidError("wam: tabled predicate " + FunctorName(functor) +
                          " cannot be compiled to plain WAM code");
    }
    int arity = symbols_->FunctorArity(functor);

    std::vector<ClauseId> live;
    for (ClauseId id : pred->AllClauses()) {
      if (!pred->clause(id).erased) live.push_back(id);
    }

    // Decide whether a first-arg switch applies: every clause must key on
    // a constant (atom/int) or a structure functor. The key cell's own tag
    // separates the two sides of the dispatch downstream.
    bool switchable = options_.index && arity >= 1 && live.size() > 1;
    std::vector<Word> first_keys(live.size());
    if (switchable) {
      for (size_t i = 0; i < live.size(); ++i) {
        const Clause& clause = pred->clause(live[i]);
        size_t pos = FlatArgPos(*symbols_, clause.term.cells,
                                clause.head_pos, 0);
        Word cell = clause.term.cells[pos];
        if (!IsAtom(cell) && !IsInt(cell) && !IsFunctor(cell)) {
          switchable = false;
          break;
        }
        first_keys[i] = cell;
      }
    }

    module_.entries[functor] = Here();

    // Mode specialization: when the published modes prove arguments bound
    // at every analyzed call site and that buys at least one cheaper head
    // instruction (or a switch without the var test), emit a specialized
    // body behind a kCheckMode guard, with a generic copy as its verified
    // fallback. The guard makes the analysis a hint: a call violating the
    // inferred pattern takes the generic path, never wrong code.
    std::vector<uint8_t> spec;
    if (options_.specialize) spec = SpecFor(pred, arity, live, switchable);
    if (!spec.empty()) {
      size_t check_pc = Here();
      Emit(Op::kCheckMode, static_cast<uint32_t>(module_.mode_specs.size()),
           static_cast<uint32_t>(arity));
      module_.mode_specs.push_back(spec);
      cur_spec_ = spec;
      Status s = EmitPredicateBody(pred, live, first_keys, switchable, arity);
      cur_spec_.clear();
      if (!s.ok()) return s;
      module_.code[check_pc].c = static_cast<uint32_t>(Here());
    }
    Status s = EmitPredicateBody(pred, live, first_keys, switchable, arity);
    if (!s.ok()) return s;
    return Status::Ok();
  }

  // True when `mode` proves the argument has a known outer symbol.
  static bool ModeBound(uint8_t mode) {
    return mode == kModeGround || mode == kModeNonvar;
  }

  // The specialization target for `pred`, or {} when the modes are absent
  // or buy nothing (guard overhead with no cheaper instruction is a loss).
  std::vector<uint8_t> SpecFor(const Predicate* pred, int arity,
                               const std::vector<ClauseId>& live,
                               bool switchable) const {
    const PublishedModes* modes = pred->modes();
    if (modes == nullptr ||
        modes->spec_meet.size() != static_cast<size_t>(arity)) {
      return {};
    }
    std::vector<uint8_t> spec = modes->spec_meet;
    // Groundness is only exploited by read-mode code *inside* structured
    // head arguments (kUnifyConstantRd, read-only nested structures): a
    // head argument whose structure holds nothing but variables compiles
    // to the same instructions under nonvar, and the nonvar guard is one
    // deref where the ground guard walks the whole term on every call.
    // Weaken each proven-ground argument the emitted code won't exploit.
    std::vector<bool> interior(static_cast<size_t>(arity), false);
    for (ClauseId id : live) {
      const Clause& clause = pred->clause(id);
      const std::vector<Word>& cells = clause.term.cells;
      if (!IsFunctor(cells[clause.head_pos])) continue;
      size_t arg = clause.head_pos + 1;
      for (int i = 0; i < arity; ++i) {
        size_t end = SkipFlatSubterm(*symbols_, cells, arg);
        if (IsFunctor(cells[arg])) {
          for (size_t p = arg + 1; p < end; ++p) {
            if (!IsLocal(cells[p])) {
              interior[static_cast<size_t>(i)] = true;
              break;
            }
          }
        }
        arg = end;
      }
    }
    for (int i = 0; i < arity; ++i) {
      if (spec[static_cast<size_t>(i)] == kModeGround &&
          !interior[static_cast<size_t>(i)]) {
        spec[static_cast<size_t>(i)] = kModeNonvar;
      }
    }
    bool benefit = switchable && ModeBound(spec[0]);
    for (ClauseId id : live) {
      if (benefit) break;
      const Clause& clause = pred->clause(id);
      const std::vector<Word>& cells = clause.term.cells;
      if (!IsFunctor(cells[clause.head_pos])) break;
      size_t arg = clause.head_pos + 1;
      for (int i = 0; i < arity; ++i) {
        if (ModeBound(spec[static_cast<size_t>(i)]) && !IsLocal(cells[arg])) {
          benefit = true;
          break;
        }
        arg = SkipFlatSubterm(*symbols_, cells, arg);
      }
    }
    return benefit ? spec : std::vector<uint8_t>{};
  }

  // One full body of a predicate: dispatch plus clause code. Emitted twice
  // for specialized predicates (once with cur_spec_ set, once generic).
  Status EmitPredicateBody(const Predicate* pred,
                           const std::vector<ClauseId>& live,
                           const std::vector<Word>& first_keys,
                           bool switchable, int arity) {
    if (live.size() == 1) {
      return CompileClause(pred->clause(live[0]));
    }

    if (!switchable) {
      // Plain try_me_else chain.
      std::vector<size_t> link_pcs;
      for (size_t i = 0; i < live.size(); ++i) {
        if (i == 0) {
          link_pcs.push_back(Here());
          Emit(Op::kTryMeElse, 0, static_cast<uint32_t>(arity));
        } else if (i + 1 < live.size()) {
          module_.code[link_pcs.back()].a = static_cast<uint32_t>(Here());
          link_pcs.push_back(Here());
          Emit(Op::kRetryMeElse, 0, static_cast<uint32_t>(arity));
        } else {
          module_.code[link_pcs.back()].a = static_cast<uint32_t>(Here());
          Emit(Op::kTrustMe);
        }
        Status s = CompileClause(pred->clause(live[i]));
        if (!s.ok()) return s;
      }
      return Status::Ok();
    }

    // Two-level dispatch: switch_on_term splits var/constant/structure,
    // below it a constant table, a functor table and a './2' fast path
    // share the clause blocks. With a spec proving the first argument
    // bound, the var test (and the full chain behind it) is dead — and
    // when only one key kind occurs, the entry dispatches straight into
    // that table; constant-keyed clause blocks then skip their
    // first-argument get, the switch already verified it.
    bool first_arg_known =
        !cur_spec_.empty() && ModeBound(cur_spec_[0]);
    bool has_const = false;
    bool has_struct = false;
    for (Word key : first_keys) (IsFunctor(key) ? has_struct : has_const) = true;
    const FunctorId cons = symbols_->cons();
    const Word list_key = FunctorCell(cons);

    bool need_term_switch = !first_arg_known || (has_const && has_struct);
    size_t switch_pc = 0;
    if (need_term_switch) {
      switch_pc = Here();
      // All three arms patched below; an absent side stays kFailTarget.
      Emit(Op::kSwitchOnTerm, kFailTarget, kFailTarget, kFailTarget);
    }
    uint32_t const_table = 0;
    uint32_t struct_table = 0;
    size_t struct_switch_pc = 0;
    if (has_const) {
      if (need_term_switch) {
        module_.code[switch_pc].b = static_cast<uint32_t>(Here());
      }
      const_table = static_cast<uint32_t>(module_.switch_tables.size());
      module_.switch_tables.emplace_back();
      Emit(Op::kSwitchOnConstant, const_table);
    }
    if (has_struct) {
      if (need_term_switch) {
        module_.code[switch_pc].c = static_cast<uint32_t>(Here());
      }
      struct_switch_pc = Here();
      struct_table = static_cast<uint32_t>(module_.switch_tables.size());
      module_.switch_tables.emplace_back();
      Emit(Op::kSwitchOnStructure, struct_table, cons, kFailTarget);
    }

    // Clause blocks (each ends in proceed); record their pcs.
    // They are emitted after the chains, so use fixup lists.
    // First: group clauses by key, preserving source order.
    std::vector<std::pair<Word, std::vector<size_t>>> groups;  // key -> ix
    for (size_t i = 0; i < live.size(); ++i) {
      bool found = false;
      for (auto& [key, members] : groups) {
        if (key == first_keys[i]) {
          members.push_back(i);
          found = true;
          break;
        }
      }
      if (!found) groups.push_back({first_keys[i], {i}});
    }

    // Chain areas reference clause block pcs, which we know only after
    // emitting the blocks; emit chains with placeholders and patch.
    struct ChainRef {
      size_t pc;        // instruction to patch (operand a)
      size_t clause_ix; // index into `live`
    };
    std::vector<ChainRef> refs;

    // Bucket chains for keys with >1 clause.
    std::unordered_map<Word, size_t> bucket_chain_pc;
    for (auto& [key, members] : groups) {
      if (members.size() == 1) continue;
      bucket_chain_pc[key] = Here();
      for (size_t j = 0; j < members.size(); ++j) {
        Op op = j == 0 ? Op::kTry
                       : (j + 1 < members.size() ? Op::kRetry : Op::kTrust);
        refs.push_back({Here(), members[j]});
        Emit(op, 0, static_cast<uint32_t>(arity));
      }
    }

    // Full chain (unbound first argument); dead when the spec proves the
    // first argument bound.
    if (!first_arg_known) {
      size_t full_chain_pc = Here();
      module_.code[switch_pc].a = static_cast<uint32_t>(full_chain_pc);
      for (size_t i = 0; i < live.size(); ++i) {
        Op op = i == 0 ? Op::kTry
                       : (i + 1 < live.size() ? Op::kRetry : Op::kTrust);
        refs.push_back({Here(), i});
        Emit(op, 0, static_cast<uint32_t>(arity));
      }
    }

    // Clause blocks.
    std::vector<size_t> clause_pc(live.size());
    for (size_t i = 0; i < live.size(); ++i) {
      clause_pc[i] = Here();
      skip_first_get_ = first_arg_known;
      Status s = CompileClause(pred->clause(live[i]));
      skip_first_get_ = false;
      if (!s.ok()) return s;
    }
    for (const ChainRef& ref : refs) {
      module_.code[ref.pc].a = static_cast<uint32_t>(clause_pc[ref.clause_ix]);
    }
    // Fill the dispatch tables: single-clause keys jump straight to the
    // block (no choice point at all); './2' rides the list fast path on
    // the switch_on_structure instruction itself.
    for (auto& [key, members] : groups) {
      uint32_t target = static_cast<uint32_t>(
          members.size() == 1 ? clause_pc[members[0]] : bucket_chain_pc[key]);
      if (IsFunctor(key)) {
        if (key == list_key) {
          module_.code[struct_switch_pc].c = target;
        } else {
          module_.switch_tables[struct_table].Set(key, target);
        }
      } else {
        module_.switch_tables[const_table].Set(key, target);
      }
    }
    return Status::Ok();
  }

  // --- Clause compilation -----------------------------------------------------

  struct ClauseCtx {
    std::unordered_map<uint64_t, uint32_t> var_regs;  // heap var -> reg
    bool is_rule = false;
    uint32_t temp_next = 0;  // next free X temp
  };

  Status CompileClause(const Clause& clause) {
    size_t heap_mark = store_->HeapMark();
    Word term = Unflatten(store_, clause.term);
    Word head = term;
    std::vector<Word> goals;
    if (clause.is_rule) {
      Word d = store_->Deref(term);
      head = store_->Deref(store_->Arg(d, 0));
      Status s = FlattenBody(store_->Arg(d, 1), &goals);
      if (!s.ok()) return s;
    } else {
      head = store_->Deref(term);
    }

    ClauseCtx ctx;
    ctx.is_rule = !goals.empty();

    // Temps start above the widest argument register use.
    uint32_t max_arity = 0;
    auto arity_of = [&](Word t) -> uint32_t {
      t = store_->Deref(t);
      return IsStruct(t) ? static_cast<uint32_t>(store_->StructArity(t)) : 0;
    };
    max_arity = arity_of(head);
    for (Word g : goals) max_arity = std::max(max_arity, arity_of(g));
    ctx.temp_next = max_arity + 1;

    // Permanent variables: in rules, every clause variable lives in the
    // environment (a sound, conservative register allocation; XSB's
    // compiler is smarter, the semantics are the same).
    uint32_t num_y = 0;
    if (ctx.is_rule) {
      auto collect = [&](auto&& self, Word t) -> void {
        t = store_->Deref(t);
        if (IsRef(t)) {
          auto [it, inserted] =
              ctx.var_regs.try_emplace(PayloadOf(t), YReg(num_y));
          if (inserted) ++num_y;
          return;
        }
        if (IsStruct(t)) {
          int n = store_->StructArity(t);
          for (int i = 0; i < n; ++i) self(self, store_->Arg(t, i));
        }
      };
      collect(collect, head);
      for (Word g : goals) collect(collect, g);
      Emit(Op::kAllocate, num_y);
      // Re-map: registers assigned, but "first occurrence" tracking is
      // separate; clear the seen set.
      seen_.clear();
    } else {
      ctx.var_regs.clear();
      seen_.clear();
    }

    Status s = CompileHead(&ctx, head);
    if (!s.ok()) return s;
    for (Word g : goals) {
      s = CompileGoal(&ctx, g);
      if (!s.ok()) return s;
    }
    if (ctx.is_rule) Emit(Op::kDeallocate);
    Emit(Op::kProceed);

    store_->TruncateHeap(heap_mark);
    return Status::Ok();
  }

  Status FlattenBody(Word body, std::vector<Word>* goals) {
    body = store_->Deref(body);
    if (IsStruct(body)) {
      FunctorId f = store_->StructFunctor(body);
      if (symbols_->FunctorAtom(f) == symbols_->comma() &&
          symbols_->FunctorArity(f) == 2) {
        Status s = FlattenBody(store_->Arg(body, 0), goals);
        if (!s.ok()) return s;
        return FlattenBody(store_->Arg(body, 1), goals);
      }
    }
    if (IsRef(body) || IsInt(body)) {
      return InvalidError("wam: unsupported body goal");
    }
    goals->push_back(body);
    return Status::Ok();
  }

  // Register for a variable; facts allocate X temps on first use.
  uint32_t VarReg(ClauseCtx* ctx, Word var) {
    uint64_t key = PayloadOf(var);
    auto it = ctx->var_regs.find(key);
    if (it != ctx->var_regs.end()) return it->second;
    uint32_t reg = XReg(ctx->temp_next++);
    ctx->var_regs.emplace(key, reg);
    return reg;
  }
  bool FirstOccurrence(Word var) { return seen_.insert(PayloadOf(var)).second; }

  // BFS queue entry for nested head structures: `rd` marks a structure
  // rooted under a proven-ground argument, whose subterm cells can never be
  // unbound (read-only matching, no write-mode code).
  struct HeadStruct {
    uint32_t reg;
    Word term;
    bool rd;
  };

  Status CompileHead(ClauseCtx* ctx, Word head) {
    head = store_->Deref(head);
    if (IsAtom(head)) return Status::Ok();
    int arity = store_->StructArity(head);
    std::deque<HeadStruct> queue;
    for (int i = 0; i < arity; ++i) {
      Word arg = store_->Deref(store_->Arg(head, i));
      uint32_t ai = static_cast<uint32_t>(i + 1);
      uint8_t mode = static_cast<size_t>(i) < cur_spec_.size()
                         ? cur_spec_[static_cast<size_t>(i)]
                         : kModeAny;
      if (IsRef(arg)) {
        uint32_t reg = VarReg(ctx, arg);
        Emit(FirstOccurrence(arg) ? Op::kGetVariable : Op::kGetValue, reg,
             ai);
      } else if (IsAtom(arg) || IsInt(arg)) {
        if (i == 0 && skip_first_get_) continue;  // the switch verified it
        Emit(ModeBound(mode) ? Op::kGetConstantNv : Op::kGetConstant,
             static_cast<uint32_t>(module_.AddConstant(arg)), ai);
      } else {
        Emit(ModeBound(mode) ? Op::kGetStructureRd : Op::kGetStructure,
             static_cast<uint32_t>(store_->StructFunctor(arg)), ai);
        EmitUnifyArgs(ctx, arg, &queue, mode == kModeGround);
      }
    }
    while (!queue.empty()) {
      HeadStruct item = queue.front();
      queue.pop_front();
      Emit(item.rd ? Op::kGetStructureRd : Op::kGetStructure,
           static_cast<uint32_t>(store_->StructFunctor(item.term)), item.reg);
      EmitUnifyArgs(ctx, item.term, &queue, item.rd);
    }
    return Status::Ok();
  }

  // unify_* sequence for the args of `term`, queueing nested structures.
  // `rd`: the enclosing structure is proven ground, so argument cells are
  // never unbound and nested structures stay read-only.
  void EmitUnifyArgs(ClauseCtx* ctx, Word term, std::deque<HeadStruct>* queue,
                     bool rd) {
    int n = store_->StructArity(term);
    for (int i = 0; i < n; ++i) {
      Word arg = store_->Deref(store_->Arg(term, i));
      if (IsRef(arg)) {
        uint32_t reg = VarReg(ctx, arg);
        Emit(FirstOccurrence(arg) ? Op::kUnifyVariable : Op::kUnifyValue,
             reg);
      } else if (IsAtom(arg) || IsInt(arg)) {
        Emit(rd ? Op::kUnifyConstantRd : Op::kUnifyConstant,
             static_cast<uint32_t>(module_.AddConstant(arg)));
      } else {
        uint32_t temp = XReg(ctx->temp_next++);
        Emit(Op::kUnifyVariable, temp);
        queue->push_back({temp, arg, rd});
      }
    }
  }

  // Builds structure `term` into register `target` (write mode, bottom-up).
  void BuildStruct(ClauseCtx* ctx, Word term, uint32_t target) {
    int n = store_->StructArity(term);
    // First build nested structures into temps.
    std::vector<uint32_t> arg_regs(static_cast<size_t>(n), 0);
    for (int i = 0; i < n; ++i) {
      Word arg = store_->Deref(store_->Arg(term, i));
      if (IsStruct(arg)) {
        uint32_t temp = XReg(ctx->temp_next++);
        BuildStruct(ctx, arg, temp);
        arg_regs[i] = temp;
      }
    }
    Emit(Op::kPutStructure,
         static_cast<uint32_t>(store_->StructFunctor(term)), target);
    for (int i = 0; i < n; ++i) {
      Word arg = store_->Deref(store_->Arg(term, i));
      if (IsRef(arg)) {
        uint32_t reg = VarReg(ctx, arg);
        Emit(FirstOccurrence(arg) ? Op::kUnifyVariable : Op::kUnifyValue,
             reg);
      } else if (IsAtom(arg) || IsInt(arg)) {
        Emit(Op::kUnifyConstant,
             static_cast<uint32_t>(module_.AddConstant(arg)));
      } else {
        Emit(Op::kUnifyValue, arg_regs[i]);
      }
    }
  }

  Status CompileGoal(ClauseCtx* ctx, Word goal) {
    goal = store_->Deref(goal);
    FunctorId functor;
    int arity = 0;
    if (IsAtom(goal)) {
      functor = symbols_->InternFunctor(AtomOf(goal), 0);
    } else if (IsStruct(goal)) {
      functor = store_->StructFunctor(goal);
      arity = store_->StructArity(goal);
    } else {
      return InvalidError("wam: unsupported body goal");
    }

    // Reset temps for this goal's argument loading.
    uint32_t saved_temp = ctx->temp_next;

    // Load A1..An.
    for (int i = 0; i < arity; ++i) {
      Word arg = store_->Deref(store_->Arg(goal, i));
      uint32_t ai = static_cast<uint32_t>(i + 1);
      if (IsRef(arg)) {
        uint32_t reg = VarReg(ctx, arg);
        Emit(FirstOccurrence(arg) ? Op::kPutVariable : Op::kPutValue, reg,
             ai);
      } else if (IsAtom(arg) || IsInt(arg)) {
        Emit(Op::kPutConstant,
             static_cast<uint32_t>(module_.AddConstant(arg)), ai);
      } else {
        BuildStruct(ctx, arg, ai);
      }
    }

    const std::string name = FunctorName(functor);
    auto builtin = BuiltinNames().find(name);
    if (builtin != BuiltinNames().end()) {
      Emit(Op::kBuiltin, static_cast<uint32_t>(builtin->second),
           static_cast<uint32_t>(arity));
    } else {
      if (compiled_set_.count(functor) == 0) {
        return InvalidError("wam: body calls uncompiled predicate " + name);
      }
      call_fixups_.emplace_back(Here(), functor);
      Emit(Op::kCall, 0, functor);
    }
    ctx->temp_next = saved_temp;
    return Status::Ok();
  }

  TermStore* store_;
  SymbolTable* symbols_;
  const Program& program_;
  CompileOptions options_;
  CompiledModule module_;
  std::vector<std::pair<size_t, FunctorId>> call_fixups_;
  std::unordered_set<FunctorId> compiled_set_;
  std::unordered_set<uint64_t> seen_;
  // Active mode spec while emitting a specialized predicate body (empty =
  // generic), and whether clause blocks may omit their first-argument get
  // (constant-switch dispatch already verified it).
  std::vector<uint8_t> cur_spec_;
  bool skip_first_get_ = false;
};

}  // namespace

Result<CompiledModule> CompileModule(TermStore* store, const Program& program,
                                     const std::vector<FunctorId>& predicates,
                                     const CompileOptions& options) {
  Compiler compiler(store, program, options);
  return compiler.Compile(predicates);
}

Result<CompiledModule> CompileModule(TermStore* store, const Program& program,
                                     const std::vector<FunctorId>& predicates) {
  return CompileModule(store, program, predicates, CompileOptions{});
}

}  // namespace xsb::wam
