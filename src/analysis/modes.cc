#include "analysis/modes.h"

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>

#include "analysis/analyzer.h"
#include "db/index.h"
#include "engine/builtins.h"

namespace xsb::analysis {

Inst JoinInst(Inst a, Inst b) {
  if (a == b) return a;
  if ((a == Inst::kGround && b == Inst::kNonvar) ||
      (a == Inst::kNonvar && b == Inst::kGround)) {
    return Inst::kNonvar;
  }
  return Inst::kAny;
}

bool InstLeq(Inst a, Inst b) {
  if (a == b || b == Inst::kAny) return true;
  return a == Inst::kGround && b == Inst::kNonvar;
}

Inst AbsUnifyInst(Inst a, Inst b) {
  if (a == Inst::kGround || b == Inst::kGround) return Inst::kGround;
  if (a == Inst::kNonvar || b == Inst::kNonvar) return Inst::kNonvar;
  if (a == Inst::kFree && b == Inst::kFree) return Inst::kFree;
  return Inst::kAny;
}

Inst SpecMeetInst(Inst a, Inst b) {
  if (a == b) return a;
  if (a == Inst::kAny) return b;
  if (b == Inst::kAny) return a;
  if ((a == Inst::kGround && b == Inst::kNonvar) ||
      (a == Inst::kNonvar && b == Inst::kGround)) {
    return Inst::kGround;
  }
  return Inst::kAny;  // free vs bound: no single target fits both
}

const char* InstName(Inst inst) {
  switch (inst) {
    case Inst::kGround:
      return "ground";
    case Inst::kNonvar:
      return "nonvar";
    case Inst::kFree:
      return "free";
    case Inst::kAny:
      return "any";
  }
  return "any";
}

std::string FormatInstVec(const InstVec& vec) {
  std::string out = "(";
  for (size_t i = 0; i < vec.size(); ++i) {
    if (i > 0) out += ", ";
    out += InstName(vec[i]);
  }
  out += ")";
  return out;
}

namespace {

// A site-pattern budget per predicate, beyond which new call shapes collapse
// into the all-`any` top pattern (patterns[0]). Keeps the tabulation linear
// in program size; collapsing is a sound over-approximation.
constexpr size_t kMaxSitePatterns = 8;

uint64_t PatternKey(FunctorId f, size_t pix) {
  return (static_cast<uint64_t>(f) << 8) | static_cast<uint64_t>(pix);
}

class ModeAnalyzer {
 public:
  ModeAnalyzer(const Program& program, const AnalysisResult& analysis,
               const std::vector<ModeEntry>& entries)
      : program_(program),
        symbols_(*program.symbols()),
        analysis_(analysis),
        entries_(entries),
        builtins_(program.symbols()) {}

  ModeResult Run();

 private:
  using WorkItem = std::tuple<int, FunctorId, size_t>;  // (scc, f, pattern)

  int SccOf(FunctorId f) const {
    auto it = analysis_.scc_of.find(f);
    return it == analysis_.scc_of.end()
               ? static_cast<int>(analysis_.sccs.size())
               : it->second;
  }

  void Enqueue(FunctorId f, size_t pix) {
    worklist_.insert(WorkItem{SccOf(f), f, pix});
  }

  void ComputeDemands(FunctorId f, const Predicate& pred);
  void DemandWalk(size_t pos, std::vector<bool>* gen,
                  const std::vector<std::vector<int>>& head_pos_of,
                  std::vector<bool>* demanded);
  void SetVarsGen(std::vector<bool>* gen, size_t pos) const {
    size_t end = Skip(pos);
    for (size_t i = pos; i < end; ++i) {
      if (IsLocal(Cells()[i])) (*gen)[PayloadOf(Cells()[i])] = true;
    }
  }

  void Visit(FunctorId f, size_t pix);
  bool VisitClause(const Clause& clause, const InstVec& call, InstVec* out);
  bool WalkGoal(size_t pos);
  bool WalkBranchJoin(size_t first, size_t second_start, bool ite);
  bool UserCall(FunctorId f, size_t pos);
  size_t GetPattern(FunctorId callee, const InstVec& call, SourceSpan origin);

  Inst InstOfTerm(size_t pos) const;
  void ApplyInstToArg(size_t pos, Inst inst);
  void SetVars(size_t pos, Inst inst);
  void GroundVars(size_t pos);
  void Finalize();

  const std::vector<Word>& Cells() const { return cur_clause_->term.cells; }
  size_t Skip(size_t pos) const {
    return SkipFlatSubterm(symbols_, Cells(), pos);
  }

  const Program& program_;
  SymbolTable& symbols_;  // non-const: atom goals intern arity-0 functors
  const AnalysisResult& analysis_;
  const std::vector<ModeEntry>& entries_;
  BuiltinRegistry builtins_;
  ModeResult result_;

  std::set<WorkItem> worklist_;
  // (callee, callee pattern) -> callers to re-visit when its success grows.
  std::unordered_map<uint64_t, std::set<std::pair<FunctorId, size_t>>> deps_;
  std::set<std::tuple<FunctorId, FunctorId, int>> reported_violations_;

  // Current visit.
  FunctorId cur_f_ = kNoFunctor;
  size_t cur_pix_ = 0;
  const Clause* cur_clause_ = nullptr;
  InstVec state_;  // per clause-local variable
  std::vector<std::pair<FunctorId, size_t>> new_calls_;
  bool collect_callees_ = false;
  std::vector<FunctorId> cur_clause_callees_;
};

Inst ModeAnalyzer::InstOfTerm(size_t pos) const {
  Word w = Cells()[pos];
  if (IsLocal(w)) return state_[PayloadOf(w)];
  if (!IsFunctor(w)) return Inst::kGround;  // atom or int
  size_t end = SkipFlatSubterm(symbols_, Cells(), pos);
  bool all_ground = true;
  for (size_t i = pos + 1; i < end; ++i) {
    if (IsLocal(Cells()[i]) &&
        state_[PayloadOf(Cells()[i])] != Inst::kGround) {
      all_ground = false;
      break;
    }
  }
  return all_ground ? Inst::kGround : Inst::kNonvar;
}

void ModeAnalyzer::ApplyInstToArg(size_t pos, Inst inst) {
  Word w = Cells()[pos];
  if (IsLocal(w)) {
    uint64_t v = PayloadOf(w);
    state_[v] = AbsUnifyInst(state_[v], inst);
    return;
  }
  if (!IsFunctor(w)) return;  // atomic: nothing to refine
  if (inst == Inst::kFree) return;  // the free side gets bound, not ours
  size_t end = Skip(pos);
  for (size_t i = pos + 1; i < end; ++i) {
    if (!IsLocal(Cells()[i])) continue;
    uint64_t v = PayloadOf(Cells()[i]);
    state_[v] = AbsUnifyInst(
        state_[v], inst == Inst::kGround ? Inst::kGround : Inst::kAny);
  }
}

void ModeAnalyzer::SetVars(size_t pos, Inst inst) {
  size_t end = Skip(pos);
  for (size_t i = pos; i < end; ++i) {
    if (!IsLocal(Cells()[i])) continue;
    uint64_t v = PayloadOf(Cells()[i]);
    state_[v] = AbsUnifyInst(state_[v], inst);
  }
}

void ModeAnalyzer::GroundVars(size_t pos) {
  size_t end = Skip(pos);
  for (size_t i = pos; i < end; ++i) {
    if (IsLocal(Cells()[i])) state_[PayloadOf(Cells()[i])] = Inst::kGround;
  }
}

size_t ModeAnalyzer::GetPattern(FunctorId callee, const InstVec& call,
                                SourceSpan origin) {
  PredModes& pm = result_.preds[callee];
  for (size_t i = 0; i < pm.patterns.size(); ++i) {
    if (pm.patterns[i].call == call) {
      if (i > 0) pm.patterns[i].from_site = true;
      return i;
    }
  }
  if (pm.patterns.size() > kMaxSitePatterns) return 0;  // budget spent
  ModePattern pat;
  pat.call = call;
  pat.from_site = true;
  pat.origin = origin;
  pm.patterns.push_back(std::move(pat));
  size_t pix = pm.patterns.size() - 1;
  Enqueue(callee, pix);
  return pix;
}

bool ModeAnalyzer::UserCall(FunctorId f, size_t pos) {
  int arity = symbols_.FunctorArity(f);
  InstVec cv(static_cast<size_t>(arity));
  std::vector<size_t> argpos(static_cast<size_t>(arity));
  size_t arg = pos + 1;
  for (int i = 0; i < arity; ++i) {
    argpos[static_cast<size_t>(i)] = arg;
    cv[static_cast<size_t>(i)] = InstOfTerm(arg);
    arg = Skip(arg);
  }

  // M003: a definitely-free variable flowing into a position the callee's
  // every clause demands bound (it feeds arithmetic before any generator).
  auto dit = result_.preds.find(f);
  if (dit != result_.preds.end()) {
    const std::vector<bool>& dem = dit->second.demands_ground;
    for (int i = 0; i < arity && static_cast<size_t>(i) < dem.size(); ++i) {
      if (dem[static_cast<size_t>(i)] &&
          cv[static_cast<size_t>(i)] == Inst::kFree &&
          reported_violations_.insert({cur_f_, f, i + 1}).second) {
        result_.violations.push_back(
            ModeViolation{cur_f_, f, i + 1, cur_clause_->span});
      }
    }
  }

  const Predicate* pred = program_.Lookup(f);
  bool defined = pred != nullptr && pred->num_live_clauses() > 0;
  if (collect_callees_ && defined) cur_clause_callees_.push_back(f);
  if (!defined) return false;  // no clause can match: the call fails

  size_t cpix = GetPattern(f, cv, cur_clause_->span);
  deps_[PatternKey(f, cpix)].insert({cur_f_, cur_pix_});
  new_calls_.emplace_back(f, cpix);
  const ModePattern& cpat = result_.preds[f].patterns[cpix];
  if (!cpat.success_known) return false;  // bottom so far; dep re-visits us
  InstVec succ = cpat.success;  // copy: ApplyInstToArg never reallocates,
                                // but self-recursion may via GetPattern
  for (int i = 0; i < arity; ++i) {
    ApplyInstToArg(argpos[static_cast<size_t>(i)],
                   succ[static_cast<size_t>(i)]);
  }
  return true;
}

// Joins the binding states of the branches of a disjunction. `ite` selects
// if-then-else handling: `first` is the '->' functor cell position.
bool ModeAnalyzer::WalkBranchJoin(size_t first, size_t second_start,
                                  bool ite) {
  InstVec saved = state_;
  bool ok1;
  if (ite) {
    size_t cond = first + 1;
    size_t then = Skip(cond);
    ok1 = WalkGoal(cond) && WalkGoal(then);
  } else {
    ok1 = WalkGoal(first);
  }
  InstVec s1 = state_;
  state_ = std::move(saved);
  bool ok2 = WalkGoal(second_start);
  if (ok1 && ok2) {
    for (size_t i = 0; i < state_.size(); ++i) {
      state_[i] = JoinInst(state_[i], s1[i]);
    }
    return true;
  }
  if (ok1) {
    state_ = std::move(s1);
    return true;
  }
  return ok2;
}

bool ModeAnalyzer::WalkGoal(size_t pos) {
  const std::vector<Word>& cells = Cells();
  Word w = cells[pos];

  if (IsLocal(w)) {
    // Meta-call with unknown target: it may bind anything it is handed.
    result_.meta_callers.insert(cur_f_);
    SetVars(pos, Inst::kAny);
    return true;
  }
  if (IsAtom(w)) {
    const std::string& name = symbols_.AtomName(AtomOf(w));
    if (name == "fail" || name == "false") return false;
    if (name == "!" || name == "true" || name == "otherwise" ||
        name == "tcut") {
      return true;
    }
    FunctorId f = symbols_.InternFunctor(AtomOf(w), 0);
    if (builtins_.Find(f) != nullptr) return true;
    return UserCall(f, pos);
  }
  if (!IsFunctor(w)) return false;  // an int in call position: type error

  FunctorId f = FunctorOf(w);
  const std::string& name = symbols_.AtomName(symbols_.FunctorAtom(f));
  int arity = symbols_.FunctorArity(f);
  size_t a1 = pos + 1;

  if (arity == 2 && name == ",") {
    size_t a2 = Skip(a1);
    return WalkGoal(a1) && WalkGoal(a2);
  }
  if (arity == 2 && name == ";") {
    size_t a2 = Skip(a1);
    Word l = cells[a1];
    bool ite = IsFunctor(l) &&
               symbols_.FunctorArity(FunctorOf(l)) == 2 &&
               symbols_.AtomName(symbols_.FunctorAtom(FunctorOf(l))) == "->";
    return WalkBranchJoin(a1, a2, ite);
  }
  if (arity == 2 && name == "->") {
    size_t a2 = Skip(a1);
    return WalkGoal(a1) && WalkGoal(a2);
  }

  if (arity == 1 && (name == "\\+" || name == "tnot" || name == "e_tnot" ||
                     name == "not")) {
    // Bindings made inside a negation never escape; the walk still records
    // the callee edges for the per-pattern reach masks.
    InstVec saved = state_;
    WalkGoal(a1);
    state_ = std::move(saved);
    return true;
  }

  if (arity == 1 && (name == "once" || name == "call")) return WalkGoal(a1);

  if (arity >= 2 && name == "call") {
    // call(F, A...): treat the extended goal opaquely — record the widened
    // functor edge (pattern 0) for reachability, assume anything it touches
    // may come back bound.
    Word target = cells[a1];
    FunctorId g = kNoFunctor;
    if (IsAtom(target)) {
      g = symbols_.InternFunctor(AtomOf(target), arity - 1);
    } else if (IsFunctor(target)) {
      FunctorId base = FunctorOf(target);
      g = symbols_.InternFunctor(symbols_.FunctorAtom(base),
                                 symbols_.FunctorArity(base) + arity - 1);
    } else {
      result_.meta_callers.insert(cur_f_);
    }
    if (g != kNoFunctor) {
      const Predicate* pred = program_.Lookup(g);
      if (pred != nullptr && pred->num_live_clauses() > 0) {
        if (collect_callees_) cur_clause_callees_.push_back(g);
        deps_[PatternKey(g, 0)].insert({cur_f_, cur_pix_});
        new_calls_.emplace_back(g, 0);
      }
    }
    SetVars(pos, Inst::kAny);
    return true;
  }

  if (arity == 3 && (name == "findall" || name == "bagof" ||
                     name == "setof" || name == "tfindall")) {
    size_t a2 = Skip(a1);
    size_t a3 = Skip(a2);
    InstVec saved = state_;
    WalkGoal(a2);  // inner bindings stay inside; edges recorded
    state_ = std::move(saved);
    ApplyInstToArg(a3, Inst::kNonvar);  // the result is always a list
    return true;
  }

  if (arity == 2 && name == "=") {
    size_t a2 = Skip(a1);
    Inst l = InstOfTerm(a1);
    Inst r = InstOfTerm(a2);
    Inst u = AbsUnifyInst(l, r);
    // Binding a definitely-free side does not touch the other side's
    // variables; ApplyInstToArg(pos, kFree) is already that no-op.
    ApplyInstToArg(a1, r == Inst::kFree && !IsLocal(cells[a1]) ? Inst::kFree
                                                               : u);
    ApplyInstToArg(a2, l == Inst::kFree && !IsLocal(cells[a2]) ? Inst::kFree
                                                               : u);
    return true;
  }

  if (arity == 2 && name == "is") {
    size_t a2 = Skip(a1);
    GroundVars(a2);  // the expression must evaluate: every variable ground
    Word lhs = cells[a1];
    if (IsLocal(lhs)) {
      state_[PayloadOf(lhs)] = Inst::kGround;
      return true;
    }
    return IsInt(lhs);  // an atom/struct lhs never unifies with a number
  }

  if (arity == 2 && (name == "=:=" || name == "=\\=" || name == "<" ||
                     name == ">" || name == "=<" || name == ">=")) {
    GroundVars(pos);  // both expressions must evaluate
    return true;
  }

  if (arity == 1 && (name == "atom" || name == "atomic" || name == "number" ||
                     name == "integer" || name == "float")) {
    Word arg = cells[a1];
    if (IsLocal(arg)) {
      uint64_t v = PayloadOf(arg);
      if (state_[v] == Inst::kFree) return false;  // definitely unbound
      state_[v] = Inst::kGround;
      return true;
    }
    return !IsFunctor(arg);  // a struct is none of these
  }
  if (arity == 1 && name == "nonvar") {
    Word arg = cells[a1];
    if (!IsLocal(arg)) return true;
    uint64_t v = PayloadOf(arg);
    if (state_[v] == Inst::kFree) return false;
    if (state_[v] == Inst::kAny) state_[v] = Inst::kNonvar;
    return true;
  }
  if (arity == 1 && name == "var") {
    Word arg = cells[a1];
    if (!IsLocal(arg)) return false;
    uint64_t v = PayloadOf(arg);
    if (state_[v] == Inst::kGround || state_[v] == Inst::kNonvar) {
      return false;
    }
    state_[v] = Inst::kFree;
    return true;
  }
  if (arity == 1 && name == "ground") {
    GroundVars(a1);  // succeeds only when the whole argument is ground
    return true;
  }

  if (name == "apply") {
    // HiLog apply/N: only a structure-headed goal like path(G)(X,Y) is
    // guaranteed to resolve against the stored apply/N clauses. A variable
    // or atom target (Graph(X,Y) with Graph bound at runtime) dispatches
    // to an arbitrary first-order predicate the analysis cannot see —
    // treating it as a recursive apply/N call would "prove" apply/N has
    // no base case and never succeeds. Treat it as an opaque meta-call.
    if (IsFunctor(cells[a1])) return UserCall(f, pos);
    result_.meta_callers.insert(cur_f_);
    SetVars(pos, Inst::kAny);
    return true;
  }
  if (builtins_.Find(f) != nullptr || (!name.empty() && name[0] == '$')) {
    SetVars(pos, Inst::kAny);  // any variable may come back bound
    return true;
  }

  return UserCall(f, pos);
}

bool ModeAnalyzer::VisitClause(const Clause& clause, const InstVec& call,
                               InstVec* out) {
  cur_clause_ = &clause;
  state_.assign(clause.term.num_vars, Inst::kFree);
  const std::vector<Word>& cells = clause.term.cells;
  size_t head_end = SkipFlatSubterm(symbols_, cells, clause.head_pos);

  if (!call.empty() && IsFunctor(cells[clause.head_pos])) {
    size_t arg = clause.head_pos + 1;
    for (Inst ci : call) {
      ApplyInstToArg(arg, ci);
      arg = Skip(arg);
    }
  }

  if (clause.is_rule && !WalkGoal(head_end)) return false;

  out->clear();
  if (IsFunctor(cells[clause.head_pos])) {
    size_t arg = clause.head_pos + 1;
    int arity = symbols_.FunctorArity(FunctorOf(cells[clause.head_pos]));
    for (int i = 0; i < arity; ++i) {
      out->push_back(InstOfTerm(arg));
      arg = Skip(arg);
    }
  }
  return true;
}

void ModeAnalyzer::Visit(FunctorId f, size_t pix) {
  const Predicate* pred = program_.Lookup(f);
  if (pred == nullptr || pred->num_live_clauses() == 0) return;
  if (pix >= result_.preds[f].patterns.size()) return;

  cur_f_ = f;
  cur_pix_ = pix;
  new_calls_.clear();
  collect_callees_ = pix == 0;
  InstVec call = result_.preds[f].patterns[pix].call;  // copy: GetPattern
                                                       // may reallocate

  std::vector<std::vector<FunctorId>> clause_callees;
  InstVec success;
  bool any_success = false;
  for (const Clause& clause : pred->clauses()) {
    if (clause.erased) continue;
    cur_clause_callees_.clear();
    InstVec s;
    if (VisitClause(clause, call, &s)) {
      if (!any_success) {
        success = std::move(s);
        any_success = true;
      } else {
        for (size_t i = 0; i < success.size(); ++i) {
          success[i] = JoinInst(success[i], s[i]);
        }
      }
    }
    if (collect_callees_) {
      std::sort(cur_clause_callees_.begin(), cur_clause_callees_.end());
      cur_clause_callees_.erase(std::unique(cur_clause_callees_.begin(),
                                            cur_clause_callees_.end()),
                                cur_clause_callees_.end());
      clause_callees.push_back(cur_clause_callees_);
    }
  }
  if (collect_callees_) result_.clause_callees[f] = std::move(clause_callees);

  PredModes& pm = result_.preds[f];
  ModePattern& pat = pm.patterns[pix];
  std::sort(new_calls_.begin(), new_calls_.end());
  new_calls_.erase(std::unique(new_calls_.begin(), new_calls_.end()),
                   new_calls_.end());
  pat.calls = new_calls_;

  bool changed = false;
  if (any_success) {
    if (!pat.success_known) {
      pat.success = std::move(success);
      pat.success_known = true;
      changed = true;
    } else {
      for (size_t i = 0; i < pat.success.size(); ++i) {
        Inst j = JoinInst(pat.success[i], success[i]);
        if (j != pat.success[i]) {
          pat.success[i] = j;
          changed = true;
        }
      }
    }
  }
  if (changed) {
    auto it = deps_.find(PatternKey(f, pix));
    if (it != deps_.end()) {
      for (const auto& [df, dpix] : it->second) Enqueue(df, dpix);
    }
  }
}

// --- Demand pre-pass ---------------------------------------------------------
//
// A head argument position is "demanded ground" when, in every clause, the
// head variable at that position flows into arithmetic before any body goal
// could have bound it. Purely syntactic: no fixpoint involved, so the main
// walk can report M003 violations against callees in any SCC order.

void ModeAnalyzer::DemandWalk(
    size_t pos, std::vector<bool>* gen,
    const std::vector<std::vector<int>>& head_pos_of,
    std::vector<bool>* demanded) {
  const std::vector<Word>& cells = Cells();
  Word w = cells[pos];
  if (!IsFunctor(w)) {
    SetVarsGen(gen, pos);
    return;
  }
  FunctorId f = FunctorOf(w);
  const std::string& name = symbols_.AtomName(symbols_.FunctorAtom(f));
  int arity = symbols_.FunctorArity(f);
  size_t a1 = pos + 1;
  if (arity == 2 && name == ",") {
    size_t a2 = Skip(a1);
    DemandWalk(a1, gen, head_pos_of, demanded);
    DemandWalk(a2, gen, head_pos_of, demanded);
    return;
  }
  auto demand_expr = [&](size_t expr_pos) {
    size_t end = Skip(expr_pos);
    for (size_t i = expr_pos; i < end; ++i) {
      if (!IsLocal(cells[i])) continue;
      uint64_t v = PayloadOf(cells[i]);
      if ((*gen)[v]) continue;
      for (int argnum : head_pos_of[v]) (*demanded)[argnum] = true;
    }
  };
  if (arity == 2 && name == "is") {
    size_t a2 = Skip(a1);
    demand_expr(a2);
    if (IsLocal(cells[a1])) (*gen)[PayloadOf(cells[a1])] = true;
    return;
  }
  if (arity == 2 && (name == "=:=" || name == "=\\=" || name == "<" ||
                     name == ">" || name == "=<" || name == ">=")) {
    demand_expr(pos);
    return;
  }
  // Anything else may bind every variable it mentions.
  SetVarsGen(gen, pos);
}

void ModeAnalyzer::ComputeDemands(FunctorId f, const Predicate& pred) {
  int arity = symbols_.FunctorArity(f);
  PredModes& pm = result_.preds[f];
  pm.demands_ground.assign(static_cast<size_t>(arity), arity > 0);
  if (arity == 0) return;
  for (const Clause& clause : pred.clauses()) {
    if (clause.erased) continue;
    cur_clause_ = &clause;
    const std::vector<Word>& cells = clause.term.cells;
    std::vector<bool> clause_dem(static_cast<size_t>(arity), false);
    if (clause.is_rule && IsFunctor(cells[clause.head_pos])) {
      // Map each variable to the head positions where it is the *plain* arg.
      std::vector<std::vector<int>> head_pos_of(clause.term.num_vars);
      size_t arg = clause.head_pos + 1;
      for (int i = 0; i < arity; ++i) {
        if (IsLocal(cells[arg])) {
          head_pos_of[PayloadOf(cells[arg])].push_back(i);
        }
        arg = Skip(arg);
      }
      std::vector<bool> gen(clause.term.num_vars, false);
      size_t head_end = SkipFlatSubterm(symbols_, cells, clause.head_pos);
      DemandWalk(head_end, &gen, head_pos_of, &clause_dem);
    }
    for (int i = 0; i < arity; ++i) {
      pm.demands_ground[static_cast<size_t>(i)] =
          pm.demands_ground[static_cast<size_t>(i)] &&
          clause_dem[static_cast<size_t>(i)];
    }
  }
}

void ModeAnalyzer::Finalize() {
  for (auto& [f, pm] : result_.preds) {
    (void)f;
    InstVec site_join, spec_meet, success_join;
    bool have_site = false, have_success = false;
    for (const ModePattern& pat : pm.patterns) {
      if (pat.from_site) {
        if (!have_site) {
          site_join = pat.call;
          spec_meet = pat.call;
          have_site = true;
        } else {
          for (size_t i = 0; i < site_join.size(); ++i) {
            site_join[i] = JoinInst(site_join[i], pat.call[i]);
            spec_meet[i] = SpecMeetInst(spec_meet[i], pat.call[i]);
          }
        }
      }
      if (pat.success_known) {
        if (!have_success) {
          success_join = pat.success;
          have_success = true;
        } else {
          for (size_t i = 0; i < success_join.size(); ++i) {
            success_join[i] = JoinInst(success_join[i], pat.success[i]);
          }
        }
      }
    }
    pm.site_join = std::move(site_join);
    pm.spec_meet = std::move(spec_meet);
    pm.success_join = std::move(success_join);
  }
}

ModeResult ModeAnalyzer::Run() {
  std::vector<FunctorId> nodes;
  for (const auto& pred : program_.predicates()) {
    if (pred == nullptr) continue;
    FunctorId f = pred->functor();
    if (pred->num_live_clauses() > 0) nodes.push_back(f);
  }
  std::sort(nodes.begin(), nodes.end());

  for (FunctorId f : nodes) {
    const Predicate* pred = program_.Lookup(f);
    PredModes& pm = result_.preds[f];
    ModePattern top;
    top.call.assign(static_cast<size_t>(symbols_.FunctorArity(f)),
                    Inst::kAny);
    pm.patterns.push_back(std::move(top));
    ComputeDemands(f, *pred);
    Enqueue(f, 0);
  }
  for (const ModeEntry& entry : entries_) {
    const Predicate* pred = program_.Lookup(entry.functor);
    if (pred == nullptr || pred->num_live_clauses() == 0) continue;
    if (entry.call.size() !=
        static_cast<size_t>(symbols_.FunctorArity(entry.functor))) {
      continue;
    }
    GetPattern(entry.functor, entry.call, SourceSpan{});
  }

  while (!worklist_.empty()) {
    WorkItem item = *worklist_.begin();
    worklist_.erase(worklist_.begin());
    ++result_.iterations;
    Visit(std::get<1>(item), std::get<2>(item));
  }

  Finalize();
  return result_;
}

}  // namespace

ModeResult AnalyzeModes(const Program& program, const AnalysisResult& analysis,
                        const std::vector<ModeEntry>& entries) {
  ModeAnalyzer analyzer(program, analysis, entries);
  return analyzer.Run();
}

SccShards ComputeSccShards(const Program& program,
                           const AnalysisResult& analysis) {
  size_t n = analysis.sccs.size();
  SccShards out;
  out.self_bit.assign(n, 0);
  for (size_t c = 0; c < n; ++c) {
    for (FunctorId member : analysis.sccs[c].members) {
      const Predicate* pred = program.Lookup(member);
      if (pred != nullptr && pred->tabled()) {
        out.self_bit[c] = EvalShardBit(static_cast<int>(c) % kNumEvalShards);
        break;
      }
    }
  }
  out.reach.assign(n, 0);
  std::vector<std::vector<int>> out_sccs(n);
  for (const CallEdge& edge : analysis.edges) {
    auto from = analysis.scc_of.find(edge.from);
    auto to = analysis.scc_of.find(edge.to);
    if (from == analysis.scc_of.end() || to == analysis.scc_of.end()) {
      continue;
    }
    if (from->second != to->second) {
      out_sccs[static_cast<size_t>(from->second)].push_back(to->second);
    }
  }
  // Tarjan discovery order is reverse topological: every edge leads from a
  // later component to an earlier one, so one ascending pass sees each
  // edge target's mask already finished.
  for (size_t c = 0; c < n; ++c) {
    out.reach[c] = out.self_bit[c];
    for (int target : out_sccs[c]) {
      out.reach[c] |= out.reach[static_cast<size_t>(target)];
    }
  }
  return out;
}

namespace {

std::vector<uint8_t> InstBytes(const InstVec& vec) {
  std::vector<uint8_t> out;
  out.reserve(vec.size());
  for (Inst inst : vec) out.push_back(static_cast<uint8_t>(inst));
  return out;
}

}  // namespace

void PublishModes(Program* program, const AnalysisResult& analysis,
                  const SccShards& shards) {
  const ModeResult& modes = analysis.modes;
  auto self_bit_of = [&](FunctorId f) -> ShardMask {
    auto it = analysis.scc_of.find(f);
    if (it == analysis.scc_of.end()) return 0;
    return shards.self_bit[static_cast<size_t>(it->second)];
  };
  auto reach_of = [&](FunctorId f) -> ShardMask {
    auto it = analysis.scc_of.find(f);
    if (it == analysis.scc_of.end()) return 0;
    return shards.reach[static_cast<size_t>(it->second)];
  };

  // Per-pattern reach masks: fixpoint over the per-pattern call graph. The
  // masks only grow and are bounded by kAllEvalShards, so iteration is
  // cheap; ascending SCC order makes most programs converge in one pass.
  std::unordered_map<uint64_t, ShardMask> pmask;
  for (const auto& [f, pm] : modes.preds) {
    for (size_t pix = 0; pix < pm.patterns.size(); ++pix) {
      pmask[PatternKey(f, pix)] = self_bit_of(f);
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [f, pm] : modes.preds) {
      for (size_t pix = 0; pix < pm.patterns.size(); ++pix) {
        ShardMask m = pmask[PatternKey(f, pix)];
        for (const auto& [callee, cpix] : pm.patterns[pix].calls) {
          auto it = pmask.find(PatternKey(callee, cpix));
          if (it != pmask.end()) m |= it->second;
        }
        ShardMask& slot = pmask[PatternKey(f, pix)];
        if (m != slot) {
          slot = m;
          changed = true;
        }
      }
    }
  }

  uint64_t epoch = program->clause_epoch();
  for (const auto& pred : program->predicates()) {
    if (pred == nullptr) continue;
    FunctorId functor = pred->functor();
    auto it = modes.preds.find(functor);
    if (it == modes.preds.end()) {
      pred->clear_modes();
      pred->clear_key_masks();
      continue;
    }
    const PredModes& pm = it->second;
    auto pub = std::make_unique<PublishedModes>();
    pub->patterns.reserve(pm.patterns.size());
    for (size_t pix = 0; pix < pm.patterns.size(); ++pix) {
      const ModePattern& pat = pm.patterns[pix];
      PublishedModes::Pattern p;
      p.call = InstBytes(pat.call);
      if (pat.success_known) p.success = InstBytes(pat.success);
      p.reach_mask = analysis.widened ? kAllEvalShards
                                      : pmask[PatternKey(functor, pix)];
      pub->patterns.push_back(std::move(p));
    }
    pub->site_join = InstBytes(pm.site_join);
    pub->spec_meet = InstBytes(pm.spec_meet);
    pub->success_join = InstBytes(pm.success_join);
    pub->epoch = epoch;
    pred->set_modes(
        std::unique_ptr<const PublishedModes>(std::move(pub)));

    // First-argument dispatch masks: only for tabled predicates whose every
    // live clause keys on a bound first argument, with per-clause callee
    // sets the walk could fully account for.
    pred->clear_key_masks();
    if (!pred->tabled() || analysis.widened ||
        modes.meta_callers.count(functor) > 0 ||
        program->symbols()->FunctorArity(functor) < 1) {
      continue;
    }
    auto cc = modes.clause_callees.find(functor);
    if (cc == modes.clause_callees.end()) continue;
    auto masks = std::make_unique<std::unordered_map<Word, ShardMask>>();
    ShardMask self = self_bit_of(functor);
    bool usable = true;
    size_t live_ix = 0;
    for (const Clause& clause : pred->clauses()) {
      if (clause.erased) continue;
      if (live_ix >= cc->second.size() ||
          !IsFunctor(clause.term.cells[clause.head_pos])) {
        usable = false;
        break;
      }
      size_t arg0 = clause.head_pos + 1;
      Word key = FlatArgKey(clause.term.cells, arg0);
      if (key == 0) {  // variable first argument: every call reaches it
        usable = false;
        break;
      }
      ShardMask m = self;
      for (FunctorId callee : cc->second[live_ix]) m |= reach_of(callee);
      (*masks)[key] |= m;
      ++live_ix;
    }
    if (usable && !masks->empty()) {
      pred->set_key_masks(std::move(masks));
    }
  }
}

}  // namespace xsb::analysis
