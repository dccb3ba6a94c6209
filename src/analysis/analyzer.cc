#include "analysis/analyzer.h"

#include <algorithm>
#include <unordered_set>

#include "db/index.h"
#include "engine/builtins.h"

namespace xsb::analysis {
namespace {

// Binding state of a clause's local variables during the body walk.
// `generated` tracks variables bound by body generators (user calls, =/2,
// is/2 outputs) — the set range restriction and the index advisor care
// about. `assumed` additionally holds head variables, which the caller may
// bind: the floundering/arithmetic checks use the union to avoid flagging
// ordinary mode-sensitive Prolog.
struct Bindings {
  std::vector<bool> generated;
  std::vector<bool> assumed;

  bool bound(uint64_t v) const { return generated[v] || assumed[v]; }
  void Generate(uint64_t v) { generated[v] = true; }
  void IntersectWith(const Bindings& other) {
    for (size_t i = 0; i < generated.size(); ++i) {
      generated[i] = generated[i] && other.generated[i];
      assumed[i] = assumed[i] && other.assumed[i];
    }
  }
};

// A widened call site's synthetic target, one per polarity (see
// AnalysisResult::edges): ids just below kNoFunctor, above every real one.
FunctorId Hub(EdgeKind kind) {
  return kNoFunctor - 3 + static_cast<FunctorId>(kind);
}
bool IsHub(FunctorId f) {
  return f >= Hub(EdgeKind::kPositive) && f != kNoFunctor;
}

// Per-callee accumulation for the index advisor.
struct CallProfile {
  size_t calls = 0;
  std::vector<size_t> bound_count;  // per 0-based argument
};

class Analyzer {
 public:
  Analyzer(const Program& program, const AnalyzeOptions& options)
      : program_(program),
        symbols_(*program.symbols()),
        options_(options),
        builtins_(program.symbols()) {}

  AnalysisResult Run();

 private:
  // --- Pass 0: call graph ---------------------------------------------------
  void CollectClause(FunctorId head, const Clause& clause);
  void WalkGoal(size_t pos, EdgeKind polarity, Bindings* bind);
  void WalkBranches(size_t left, size_t right, EdgeKind polarity,
                    Bindings* bind);
  void AddEdge(FunctorId callee, EdgeKind kind);
  void WidenHiLog(EdgeKind polarity);
  // Walks a goal whose calls and cuts are local to it (negation, once/1,
  // call/1, aggregates): off the body's own spine for the cut check.
  void WalkOffSpine(size_t pos, EdgeKind polarity, Bindings* bind);
  // Section 4.4: a cut on the spine after a tabled call on the spine could
  // close over a partially computed table (S005).
  void NoteSpineCall(FunctorId callee);
  void CheckCut();
  void RecordCallSite(FunctorId callee, size_t pos, const Bindings& bind);

  // --- Pass 1-5 -------------------------------------------------------------
  void ComputeSccs();
  void StratificationPass();
  void SubsumptionPass();
  void ModePass();
  void TableAdvisorPass();
  void IndexAdvisorPass();
  void LintPass();

  void Diag(DiagCode code, Severity severity, FunctorId functor,
            std::string message, SourceSpan span);
  // At most one diagnostic per (code, clause): repeated violations inside
  // one clause add no information.
  bool OncePerClause(DiagCode code);

  std::string PredName(FunctorId f) const {
    return symbols_.AtomName(symbols_.FunctorAtom(f)) + "/" +
           std::to_string(symbols_.FunctorArity(f));
  }

  bool IsControl(FunctorId f) const;
  void VarsOf(size_t pos, std::vector<uint64_t>* out) const;
  bool AllVarsBound(size_t pos, const Bindings& bind) const;

  const Program& program_;
  SymbolTable& symbols_;  // non-const: atom goals intern their arity-0
                          // functor ids
  AnalyzeOptions options_;
  BuiltinRegistry builtins_;
  AnalysisResult result_;

  // Current clause context during collection.
  FunctorId cur_head_ = kNoFunctor;
  const Clause* cur_clause_ = nullptr;
  std::unordered_set<uint64_t> clause_diags_;  // (code << 32) ^ clause ordinal
  uint64_t clause_ordinal_ = 0;
  bool on_spine_ = true;     // walking the body's own ,/;/-> spine
  bool spine_tabled_ = false;  // ...which has called a tabled predicate

  std::unordered_map<FunctorId, std::vector<std::pair<FunctorId, EdgeKind>>>
      adjacency_;
  std::unordered_map<FunctorId, CallProfile> profiles_;
  std::vector<FunctorId> nodes_;  // defined predicates, sorted
};

bool Analyzer::IsControl(FunctorId f) const {
  const std::string& name = symbols_.AtomName(symbols_.FunctorAtom(f));
  int arity = symbols_.FunctorArity(f);
  if (arity == 0) {
    return name == "!" || name == "true" || name == "fail" ||
           name == "false" || name == "otherwise" || name == "tcut";
  }
  if (arity == 1) {
    return name == "\\+" || name == "tnot" || name == "e_tnot" ||
           name == "once" || name == "call" || name == "not";
  }
  if (arity == 2) return name == "," || name == ";" || name == "->";
  if (arity == 3) {
    return name == "findall" || name == "bagof" || name == "setof" ||
           name == "tfindall";
  }
  if (name == "call") return true;  // call/N
  return false;
}

void Analyzer::VarsOf(size_t pos, std::vector<uint64_t>* out) const {
  const std::vector<Word>& cells = cur_clause_->term.cells;
  size_t end = SkipFlatSubterm(symbols_, cells, pos);
  for (size_t i = pos; i < end; ++i) {
    if (IsLocal(cells[i])) out->push_back(PayloadOf(cells[i]));
  }
}

bool Analyzer::AllVarsBound(size_t pos, const Bindings& bind) const {
  std::vector<uint64_t> vars;
  VarsOf(pos, &vars);
  for (uint64_t v : vars) {
    if (!bind.bound(v)) return false;
  }
  return true;
}

void Analyzer::Diag(DiagCode code, Severity severity, FunctorId functor,
                    std::string message, SourceSpan span) {
  result_.diagnostics.push_back(
      Diagnostic{code, severity, functor, std::move(message), span});
}

bool Analyzer::OncePerClause(DiagCode code) {
  uint64_t key = (static_cast<uint64_t>(code) << 32) ^ clause_ordinal_;
  return clause_diags_.insert(key).second;
}

void Analyzer::AddEdge(FunctorId callee, EdgeKind kind) {
  adjacency_[cur_head_].emplace_back(callee, kind);
  result_.edges.push_back(
      CallEdge{cur_head_, callee, kind, cur_clause_->span});
}

void Analyzer::WidenHiLog(EdgeKind polarity) {
  // A meta-call whose target is unknown at consult time (a variable goal,
  // or a call/N closure held in a variable) may reach any predicate: an
  // edge to its polarity's hub, which on first use gets an edge to every
  // defined predicate. Coarse, but it keeps the verdict sound.
  result_.widened = true;
  FunctorId hub = Hub(polarity);
  AddEdge(hub, polarity);
  auto [it, fresh] = adjacency_.try_emplace(hub);
  if (!fresh) return;
  for (FunctorId f : nodes_) {
    it->second.emplace_back(f, polarity);
    result_.edges.push_back(CallEdge{hub, f, polarity, SourceSpan{}});
  }
}

void Analyzer::WalkOffSpine(size_t pos, EdgeKind polarity, Bindings* bind) {
  bool spine = on_spine_;
  on_spine_ = false;
  WalkGoal(pos, polarity, bind);
  on_spine_ = spine;
}

void Analyzer::NoteSpineCall(FunctorId callee) {
  if (!on_spine_ || spine_tabled_) return;
  const Predicate* pred = program_.Lookup(callee);
  spine_tabled_ = pred != nullptr && pred->tabled();
}

void Analyzer::CheckCut() {
  if (!on_spine_ || !spine_tabled_ || options_.structure_only ||
      !OncePerClause(DiagCode::kCutOverTable)) {
    return;
  }
  Diag(DiagCode::kCutOverTable, Severity::kError, cur_head_,
       "a cut would close over a partially computed table; restructure "
       "the clause or use tcut semantics via e_tnot (section 4.4)",
       cur_clause_->span);
}

void Analyzer::RecordCallSite(FunctorId callee, size_t pos,
                              const Bindings& bind) {
  int arity = symbols_.FunctorArity(callee);
  CallProfile& profile = profiles_[callee];
  if (profile.bound_count.empty() && arity > 0) {
    profile.bound_count.assign(static_cast<size_t>(arity), 0);
  }
  ++profile.calls;
  if (arity == 0) return;
  const std::vector<Word>& cells = cur_clause_->term.cells;
  size_t arg = pos + 1;
  for (int i = 0; i < arity; ++i) {
    Word w = cells[arg];
    bool bound = IsLocal(w) ? bind.generated[PayloadOf(w)] : true;
    if (bound) ++profile.bound_count[static_cast<size_t>(i)];
    arg = SkipFlatSubterm(symbols_, cells, arg);
  }
}

void Analyzer::WalkBranches(size_t left, size_t right, EdgeKind polarity,
                            Bindings* bind) {
  Bindings b1 = *bind;
  Bindings b2 = *bind;
  WalkGoal(left, polarity, &b1);
  WalkGoal(right, polarity, &b2);
  // Only bindings every branch establishes survive the disjunction.
  b1.IntersectWith(b2);
  *bind = b1;
}

void Analyzer::WalkGoal(size_t pos, EdgeKind polarity, Bindings* bind) {
  const std::vector<Word>& cells = cur_clause_->term.cells;
  Word w = cells[pos];

  if (IsLocal(w)) {
    // A bare variable goal: a meta-call with unknown target.
    WidenHiLog(polarity);
    return;
  }
  if (IsAtom(w)) {
    const std::string& name = symbols_.AtomName(AtomOf(w));
    if (name == "!" || name == "tcut") {
      CheckCut();
      return;
    }
    FunctorId f = symbols_.InternFunctor(AtomOf(w), 0);
    NoteSpineCall(f);
    if (IsControl(f) || builtins_.Find(f) != nullptr) return;
    AddEdge(f, polarity);
    RecordCallSite(f, pos, *bind);
    return;
  }
  if (!IsFunctor(w)) return;  // an int in call position: a type error at
                              // runtime, nothing to analyze

  FunctorId f = FunctorOf(w);
  const std::string& name = symbols_.AtomName(symbols_.FunctorAtom(f));
  int arity = symbols_.FunctorArity(f);
  size_t a1 = pos + 1;

  if (arity == 2 && (name == "," || name == ";" || name == "->")) {
    size_t a2 = SkipFlatSubterm(symbols_, cells, a1);
    if (name == ",") {
      WalkGoal(a1, polarity, bind);
      WalkGoal(a2, polarity, bind);
    } else if (name == ";") {
      // (C -> T ; E) and plain disjunction both split the binding state.
      Word l = cells[a1];
      if (IsFunctor(l) &&
          symbols_.AtomName(symbols_.FunctorAtom(FunctorOf(l))) == "->" &&
          symbols_.FunctorArity(FunctorOf(l)) == 2) {
        // Walk the condition+then as one branch against the else branch.
        Bindings b1 = *bind;
        size_t cond = a1 + 1;
        size_t then = SkipFlatSubterm(symbols_, cells, cond);
        WalkGoal(cond, polarity, &b1);
        WalkGoal(then, polarity, &b1);
        Bindings b2 = *bind;
        WalkGoal(a2, polarity, &b2);
        b1.IntersectWith(b2);
        *bind = b1;
      } else {
        WalkBranches(a1, a2, polarity, bind);
      }
    } else {  // bare if-then
      WalkGoal(a1, polarity, bind);
      size_t a2b = SkipFlatSubterm(symbols_, cells, a1);
      WalkGoal(a2b, polarity, bind);
    }
    return;
  }

  if (arity == 1 && (name == "\\+" || name == "tnot" || name == "e_tnot" ||
                     name == "not")) {
    if (!options_.structure_only && !AllVarsBound(a1, *bind) &&
        OncePerClause(DiagCode::kUnsafeNegation)) {
      Diag(DiagCode::kUnsafeNegation, Severity::kWarning, cur_head_,
           "variable under " + name +
               " is not bound by the preceding goals: the negation may "
               "flounder or quantify existentially",
           cur_clause_->span);
    }
    // Bindings made inside a negation never escape it.
    Bindings inner = *bind;
    WalkOffSpine(a1, EdgeKind::kNegative, &inner);
    return;
  }

  if (arity == 1 && (name == "once" || name == "call")) {
    WalkOffSpine(a1, polarity, bind);
    return;
  }

  if (arity >= 2 && name == "call") {
    // call(F, A...): the closure F gains extra arguments. A known closure
    // maps to a widened functor; an unknown one widens the graph.
    Word target = cells[a1];
    if (IsAtom(target)) {
      FunctorId g = symbols_.InternFunctor(AtomOf(target), arity - 1);
      if (!IsControl(g) && builtins_.Find(g) == nullptr) {
        AddEdge(g, polarity);
      }
    } else if (IsFunctor(target)) {
      FunctorId base = FunctorOf(target);
      FunctorId g = symbols_.InternFunctor(
          symbols_.FunctorAtom(base),
          symbols_.FunctorArity(base) + arity - 1);
      AddEdge(g, polarity);
    } else {
      WidenHiLog(polarity);
    }
    std::vector<uint64_t> vars;
    VarsOf(pos, &vars);
    for (uint64_t v : vars) bind->Generate(v);
    return;
  }

  if (arity == 3 && (name == "findall" || name == "bagof" ||
                     name == "setof" || name == "tfindall")) {
    size_t a2 = SkipFlatSubterm(symbols_, cells, a1);
    size_t a3 = SkipFlatSubterm(symbols_, cells, a2);
    // The aggregated goal: its bindings stay inside the aggregate, and for
    // stratification it behaves like negation (the whole answer set is
    // needed before the aggregate can be produced).
    Bindings inner = *bind;
    WalkOffSpine(a2, EdgeKind::kAggregate, &inner);
    std::vector<uint64_t> vars;
    VarsOf(a3, &vars);
    for (uint64_t v : vars) bind->Generate(v);
    return;
  }

  NoteSpineCall(f);

  if (arity == 2 && name == "=") {
    // Unification can bind either side; treat every variable as generated.
    std::vector<uint64_t> vars;
    VarsOf(pos, &vars);
    for (uint64_t v : vars) bind->Generate(v);
    return;
  }

  if (arity == 2 && name == "is") {
    size_t rhs = SkipFlatSubterm(symbols_, cells, a1);
    if (!options_.structure_only && !AllVarsBound(rhs, *bind) &&
        OncePerClause(DiagCode::kUnsafeArith)) {
      Diag(DiagCode::kUnsafeArith, Severity::kWarning, cur_head_,
           "arithmetic over a variable the body never binds: is/2 will "
           "raise an instantiation error",
           cur_clause_->span);
    }
    std::vector<uint64_t> vars;
    VarsOf(a1, &vars);
    for (uint64_t v : vars) bind->Generate(v);
    return;
  }

  if (arity == 2 && (name == "=:=" || name == "=\\=" || name == "<" ||
                     name == ">" || name == "=<" || name == ">=")) {
    if (!options_.structure_only && !AllVarsBound(pos, *bind) &&
        OncePerClause(DiagCode::kUnsafeArith)) {
      Diag(DiagCode::kUnsafeArith, Severity::kWarning, cur_head_,
           "arithmetic comparison over a variable the body never binds",
           cur_clause_->span);
    }
    return;
  }

  if (builtins_.Find(f) != nullptr || IsControl(f) || name == "apply" ||
      (!name.empty() && name[0] == '$')) {
    // Remaining builtins: assume any variable they touch may come out
    // bound (the conservative direction for the later checks). HiLog
    // apply/N goals resolve against the stored apply/N clauses, so they
    // get an ordinary edge as well.
    if (name == "apply") {
      AddEdge(f, polarity);
      RecordCallSite(f, pos, *bind);
    }
    std::vector<uint64_t> vars;
    VarsOf(pos, &vars);
    for (uint64_t v : vars) bind->Generate(v);
    return;
  }

  // A plain user-predicate call.
  AddEdge(f, polarity);
  RecordCallSite(f, pos, *bind);
  std::vector<uint64_t> vars;
  VarsOf(pos, &vars);
  for (uint64_t v : vars) bind->Generate(v);
}

void Analyzer::CollectClause(FunctorId head, const Clause& clause) {
  cur_head_ = head;
  cur_clause_ = &clause;
  ++clause_ordinal_;
  on_spine_ = true;
  spine_tabled_ = false;

  Bindings bind;
  bind.generated.assign(clause.term.num_vars, false);
  bind.assumed.assign(clause.term.num_vars, false);

  const std::vector<Word>& cells = clause.term.cells;
  size_t head_end = SkipFlatSubterm(symbols_, cells, clause.head_pos);

  std::vector<uint64_t> head_vars;
  for (size_t i = clause.head_pos; i < head_end; ++i) {
    if (IsLocal(cells[i])) head_vars.push_back(PayloadOf(cells[i]));
  }
  for (uint64_t v : head_vars) bind.assumed[v] = true;

  if (clause.is_rule) {
    WalkGoal(head_end, EdgeKind::kPositive, &bind);
  }

  if (!options_.structure_only) {
    for (uint64_t v : head_vars) {
      if (!bind.generated[v]) {
        if (OncePerClause(DiagCode::kUnsafeHead)) {
          Diag(DiagCode::kUnsafeHead, Severity::kWarning, head,
               clause.is_rule
                   ? "head variable is not bound by any body generator: "
                     "the clause is not range-restricted"
                   : "fact contains an unbound variable: it denotes "
                     "infinitely many tuples",
               clause.span);
        }
        break;
      }
    }
  }
}

void Analyzer::ComputeSccs() {
  // Iterative Tarjan over the defined predicates (deterministic: nodes and
  // adjacency lists are sorted by functor id).
  std::unordered_map<FunctorId, int> index, low;
  std::unordered_map<FunctorId, bool> on_stack;
  std::vector<FunctorId> stack;
  int counter = 0;

  struct Frame {
    FunctorId v;
    size_t edge = 0;
  };

  for (auto& [from, out] : adjacency_) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    // A widened caller reaches every predicate through its hubs, which sort
    // last. Visiting only them keeps the depth-first order, and with it the
    // SCC numbering, that a direct edge to each predicate would give.
    auto hub = std::find_if(out.begin(), out.end(),
                            [](const auto& e) { return IsHub(e.first); });
    if (hub != out.end()) out.erase(out.begin(), hub);
    (void)from;
  }

  auto neighbors = [&](FunctorId v)
      -> const std::vector<std::pair<FunctorId, EdgeKind>>& {
    static const std::vector<std::pair<FunctorId, EdgeKind>> kEmpty;
    auto it = adjacency_.find(v);
    return it == adjacency_.end() ? kEmpty : it->second;
  };
  auto defined = [&](FunctorId v) {
    return IsHub(v) || std::binary_search(nodes_.begin(), nodes_.end(), v);
  };

  for (FunctorId root : nodes_) {
    if (index.count(root) > 0) continue;
    std::vector<Frame> frames{{root, 0}};
    index[root] = low[root] = counter++;
    stack.push_back(root);
    on_stack[root] = true;

    while (!frames.empty()) {
      Frame& frame = frames.back();
      const auto& out = neighbors(frame.v);
      bool descended = false;
      while (frame.edge < out.size()) {
        FunctorId w = out[frame.edge].first;
        ++frame.edge;
        if (!defined(w)) continue;  // undefined callees cannot close cycles
        if (index.count(w) == 0) {
          index[w] = low[w] = counter++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back(Frame{w, 0});
          descended = true;
          break;
        }
        if (on_stack[w]) low[frame.v] = std::min(low[frame.v], index[w]);
      }
      if (descended) continue;
      if (low[frame.v] == index[frame.v]) {
        SccInfo scc;
        while (true) {
          FunctorId w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          result_.scc_of[w] = static_cast<int>(result_.sccs.size());
          if (!IsHub(w)) scc.members.push_back(w);
          if (w == frame.v) break;
        }
        std::sort(scc.members.begin(), scc.members.end());
        result_.sccs.push_back(std::move(scc));
      }
      FunctorId done = frame.v;
      frames.pop_back();
      if (!frames.empty()) {
        low[frames.back().v] = std::min(low[frames.back().v], low[done]);
      }
    }
  }

  // Mark recursive components: size > 1, or a self-edge (for a widened
  // caller, its edge to a hub).
  for (const CallEdge& edge : result_.edges) {
    auto it_from = result_.scc_of.find(edge.from);
    auto it_to = result_.scc_of.find(edge.to);
    if (it_from == result_.scc_of.end() || it_to == result_.scc_of.end()) {
      continue;
    }
    if (it_from->second != it_to->second) continue;
    SccInfo& scc = result_.sccs[static_cast<size_t>(it_from->second)];
    scc.recursive = true;
    if (edge.kind != EdgeKind::kPositive && !scc.negative_internal) {
      scc.negative_internal = true;
      scc.witness = edge;
      // The first internal target of a direct edge to every predicate.
      if (IsHub(edge.to)) scc.witness.to = scc.members.front();
    }
  }
  for (SccInfo& scc : result_.sccs) {
    if (scc.members.size() > 1) scc.recursive = true;
  }
}

void Analyzer::StratificationPass() {
  for (const SccInfo& scc : result_.sccs) {
    if (!scc.negative_internal) continue;
    result_.verdict = StratVerdict::kWfsRequired;
    std::string members;
    size_t shown = 0;
    for (FunctorId f : scc.members) {
      if (shown++ == 4) {
        members += ", ...";
        break;
      }
      if (!members.empty()) members += ", ";
      members += PredName(f);
    }
    const char* how =
        scc.witness.kind == EdgeKind::kAggregate ? "aggregation" : "negation";
    Diag(DiagCode::kNonStratified, Severity::kError, scc.witness.from,
         "recursive component {" + members + "} crosses " + how + " (" +
             PredName(scc.witness.from) + " -> " + PredName(scc.witness.to) +
             "): the program is not stratified; evaluate under well-founded "
             "semantics or break the cycle",
         scc.witness.span);
  }
}

// Aggregate stratification for answer subsumption (`:- table p(_, min)`).
// A lattice choosing among a predicate's answers is only well-defined when
// the full answer set it selects from is monotonically derivable:
//   * Recursion through min/max over the predicate's own SCC is the intended
//     fixpoint-optimization use (shortest path) and stays silent.
//   * Negation inside the SCC makes the aggregate see a non-monotone answer
//     set — rejected with T001 (an error: strict consults fail).
//   * first(N) inside a recursive SCC keeps whichever N derivations the
//     scheduler produced first — not rejected, but downgraded to a T002
//     warning since re-evaluation order can change the table.
void Analyzer::SubsumptionPass() {
  for (FunctorId f : nodes_) {
    const Predicate* pred = program_.Lookup(f);
    const TableSpec* spec = pred == nullptr ? nullptr : pred->table_spec();
    if (spec == nullptr || !spec->subsumptive()) continue;
    auto it = result_.scc_of.find(f);
    if (it == result_.scc_of.end()) continue;
    const SccInfo& scc = result_.sccs[static_cast<size_t>(it->second)];
    if (scc.negative_internal) {
      Diag(DiagCode::kSubsumptionNegation, Severity::kError, f,
           "answer subsumption on " + PredName(f) +
               " inside a recursive component crossed by negation (" +
               PredName(scc.witness.from) + " -> " +
               PredName(scc.witness.to) +
               "): the lattice aggregate is not stratified; break the cycle "
               "or drop the lattice declaration",
           scc.witness.span);
      continue;
    }
    bool first_n = spec->args[spec->agg_pos].agg == TableSpec::Agg::kFirst;
    if (first_n && scc.recursive) {
      SourceSpan span;
      for (const Clause& clause : pred->clauses()) {
        if (!clause.erased) {
          span = clause.span;
          break;
        }
      }
      Diag(DiagCode::kSubsumptionOrdered, Severity::kWarning, f,
           "first(N) subsumption on recursive " + PredName(f) +
               " keeps whichever N answers are derived first; the table "
               "contents depend on evaluation order",
           span);
    }
  }
}

void Analyzer::ModePass() {
  result_.modes = AnalyzeModes(program_, result_, options_.mode_entries);

  std::vector<FunctorId> preds;
  preds.reserve(result_.modes.preds.size());
  for (const auto& [f, pm] : result_.modes.preds) {
    (void)pm;
    preds.push_back(f);
  }
  std::sort(preds.begin(), preds.end());

  for (FunctorId f : preds) {
    const PredModes& pm = result_.modes.preds[f];
    // M001: report inferred modes only when they carry information beyond
    // all-`any` (every predicate trivially has the top pattern).
    bool informative = false;
    for (Inst i : pm.site_join) informative = informative || i != Inst::kAny;
    for (Inst i : pm.success_join) {
      informative = informative || i != Inst::kAny;
    }
    if (informative) {
      std::string message = "inferred modes: call " +
                            (pm.site_join.empty()
                                 ? std::string("(unknown)")
                                 : FormatInstVec(pm.site_join)) +
                            ", success " +
                            (pm.success_join.empty()
                                 ? std::string("(never succeeds)")
                                 : FormatInstVec(pm.success_join));
      Diag(DiagCode::kInferredModes, Severity::kInfo, f, std::move(message),
           SourceSpan{});
    }
    // M002: an argument position no analyzed call site ever binds. Feeds
    // the index advisor: indexing on such an argument can never be used.
    for (size_t i = 0; i < pm.site_join.size(); ++i) {
      if (pm.site_join[i] == Inst::kFree) {
        Diag(DiagCode::kNeverBound, Severity::kInfo, f,
             "argument " + std::to_string(i + 1) +
                 " is passed a free variable at every analyzed call site; "
                 "an index on it would never be consulted",
             SourceSpan{});
      }
    }
  }

  // M003: a call feeds a definitely-free variable into a position the
  // callee's every clause demands bound before its arithmetic.
  for (const ModeViolation& v : result_.modes.violations) {
    Diag(DiagCode::kModeViolation, Severity::kWarning, v.caller,
         "call to " + PredName(v.callee) + " passes a free variable as "
             "argument " + std::to_string(v.argnum) +
             ", which every clause of " + PredName(v.callee) +
             " feeds into arithmetic: the call will raise an "
             "instantiation error",
         v.span);
  }
}

void Analyzer::TableAdvisorPass() {
  // Auto-table advisor: any predicate on a call-graph cycle can loop under
  // plain SLD; tabling every member of a recursive component breaks every
  // loop (the paper's table_all analysis, section 4.3). Structural, so a
  // structure-only analysis gives the suggestions too, without A001.
  for (const SccInfo& scc : result_.sccs) {
    if (!scc.recursive) continue;
    for (FunctorId f : scc.members) {
      const Predicate* pred = program_.Lookup(f);
      if (pred == nullptr || pred->tabled() ||
          pred->num_live_clauses() == 0) {
        continue;
      }
      result_.table_suggestions.push_back(f);
      if (options_.structure_only) continue;
      SourceSpan span;
      for (const Clause& clause : pred->clauses()) {
        if (!clause.erased) {
          span = clause.span;
          break;
        }
      }
      Diag(DiagCode::kAutoTable, Severity::kInfo, f,
           "recursive predicate (component of " +
               std::to_string(scc.members.size()) +
               "): plain SLD may not terminate; add :- table " + PredName(f) +
               ". or use :- auto_table.",
           span);
    }
  }
  std::sort(result_.table_suggestions.begin(),
            result_.table_suggestions.end());
}

void Analyzer::IndexAdvisorPass() {
  // Index advisor: a predicate whose call sites never bind argument 1 but
  // always bind some other argument wants an index on that argument
  // (section 4.5's binding-pattern driven index directives).
  std::vector<FunctorId> callees;
  callees.reserve(profiles_.size());
  for (const auto& [f, profile] : profiles_) {
    (void)profile;
    callees.push_back(f);
  }
  std::sort(callees.begin(), callees.end());
  for (FunctorId f : callees) {
    const CallProfile& profile = profiles_[f];
    const Predicate* pred = program_.Lookup(f);
    if (pred == nullptr || pred->num_live_clauses() == 0) continue;
    if (pred->index_kind() != IndexKind::kFirstArg &&
        pred->index_kind() != IndexKind::kNone) {
      continue;  // a hand-written directive wins
    }
    if (profile.calls == 0 || profile.bound_count.empty()) continue;
    // First-argument key census, mirroring the WAM compiler's switchability
    // test (src/wam/compile.cc): constant (atom/int) and structure-functor
    // keys both dispatch through the two-level switch_on_term tables since
    // switch_on_structure, so structure-keyed predicates no longer earn
    // advice. The remaining defeat is a variable-keyed clause, which forces
    // the whole predicate onto the linear chain for every call.
    size_t live = 0, var_keyed = 0;
    SourceSpan var_span;
    for (const Clause& clause : pred->clauses()) {
      if (clause.erased) continue;
      ++live;
      size_t pos =
          FlatArgPos(symbols_, clause.term.cells, clause.head_pos, 0);
      Word key = clause.term.cells[pos];
      if (!IsAtom(key) && !IsInt(key) && !IsFunctor(key)) {
        ++var_keyed;
        if (var_keyed == 1) var_span = clause.span;
      }
    }
    if (profile.bound_count[0] > 0) {
      // Bound-first-argument call sites are served by the switch whether
      // the keys are constants or functors — unless one variable-keyed
      // clause in an otherwise keyed set pins dispatch to the chain. An
      // all-variable head is ordinary Prolog (nothing to switch on) and
      // stays silent.
      if (var_keyed > 0 && var_keyed < live) {
        Diag(DiagCode::kChainDispatch, Severity::kInfo, f,
             std::to_string(var_keyed) + " of " + std::to_string(live) +
                 " clauses key argument 1 on a variable, which disables the "
                 "constant/structure switch for the whole predicate: every "
                 "call walks the full clause chain. Key the clause on a "
                 "symbol or split the predicate.",
             var_span);
      }
      continue;  // first-arg dispatch (constant or functor keys) is usable
    }
    bool suggested = false;
    for (size_t i = 1; i < profile.bound_count.size(); ++i) {
      if (profile.bound_count[i] == profile.calls) {
        int argnum = static_cast<int>(i) + 1;
        result_.index_suggestions.emplace_back(f, argnum);
        Diag(DiagCode::kIndexAdvice, Severity::kInfo, f,
             "all " + std::to_string(profile.calls) +
                 " call sites bind argument " + std::to_string(argnum) +
                 " but never argument 1; consider :- index(" + PredName(f) +
                 ", " + std::to_string(argnum) + ").",
             SourceSpan{});
        suggested = true;
        break;
      }
    }
    if (suggested) continue;
    // Mode-informed fallback: the abstract interpreter propagates bindings
    // through call patterns (a head variable bound by the *caller* counts),
    // so it can prove an argument always-bound where the syntactic profile
    // above cannot.
    auto mit = result_.modes.preds.find(f);
    if (mit == result_.modes.preds.end()) continue;
    const InstVec& sj = mit->second.site_join;
    if (sj.empty() || sj[0] != Inst::kFree) continue;
    for (size_t i = 1; i < sj.size(); ++i) {
      if (sj[i] == Inst::kGround || sj[i] == Inst::kNonvar) {
        int argnum = static_cast<int>(i) + 1;
        result_.index_suggestions.emplace_back(f, argnum);
        Diag(DiagCode::kIndexAdvice, Severity::kInfo, f,
             "mode analysis proves every call binds argument " +
                 std::to_string(argnum) +
                 " and never argument 1; consider :- index(" + PredName(f) +
                 ", " + std::to_string(argnum) + ").",
             SourceSpan{});
        break;
      }
    }
  }
}

void Analyzer::LintPass() {
  // L002: clauses of one predicate interleaved with another's. Only clauses
  // with known spans participate (runtime asserts have none).
  struct Start {
    AtomId file;
    int line;
    int column;
    FunctorId functor;
  };
  std::vector<Start> starts;
  for (FunctorId f : nodes_) {
    const Predicate* pred = program_.Lookup(f);
    for (const Clause& clause : pred->clauses()) {
      if (clause.erased || !clause.span.known()) continue;
      starts.push_back(Start{clause.span.file, clause.span.line,
                             clause.span.column, f});
    }
  }
  std::sort(starts.begin(), starts.end(), [](const Start& a, const Start& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.column < b.column;
  });
  std::unordered_map<FunctorId, size_t> last_seen;  // index into starts
  std::unordered_set<FunctorId> reported_l002;
  for (size_t i = 0; i < starts.size(); ++i) {
    FunctorId f = starts[i].functor;
    auto it = last_seen.find(f);
    if (it != last_seen.end() && it->second + 1 != i &&
        starts[it->second].file == starts[i].file &&
        reported_l002.insert(f).second) {
      const Predicate* pred = program_.Lookup(f);
      if (pred != nullptr && !pred->discontiguous_ok()) {
        Diag(DiagCode::kDiscontiguous, Severity::kWarning, f,
             "clauses are not contiguous (interrupted by " +
                 PredName(starts[i - 1].functor) + "); add :- discontiguous " +
                 PredName(f) + ". if intended",
             SourceSpan{starts[i].file, starts[i].line, starts[i].column});
      }
    }
    last_seen[f] = i;
  }

  // L003: calls to predicates with no clauses and no declaration.
  std::unordered_set<FunctorId> reported;
  for (const CallEdge& edge : result_.edges) {
    if (IsHub(edge.to)) continue;
    if (!reported.insert(edge.to).second) continue;
    const Predicate* pred = program_.Lookup(edge.to);
    if (pred != nullptr &&
        (pred->num_live_clauses() > 0 || pred->tabled() ||
         pred->declared())) {
      continue;
    }
    if (builtins_.Find(edge.to) != nullptr || IsControl(edge.to)) continue;
    Diag(DiagCode::kUnknownPredicate, Severity::kWarning, edge.to,
         "called from " + PredName(edge.from) +
             " but has no clauses and no declaration: the call always "
             "fails (or errors)",
         edge.span);
  }
}

AnalysisResult Analyzer::Run() {
  // Node set: every predicate with at least one live clause.
  for (const auto& pred : program_.predicates()) {
    if (pred == nullptr) continue;
    FunctorId f = pred->functor();
    if (pred->num_live_clauses() > 0) nodes_.push_back(f);
  }
  std::sort(nodes_.begin(), nodes_.end());

  for (FunctorId f : nodes_) {
    const Predicate* pred = program_.Lookup(f);
    for (const Clause& clause : pred->clauses()) {
      if (clause.erased) continue;
      CollectClause(f, clause);
    }
  }

  ComputeSccs();
  StratificationPass();
  SubsumptionPass();
  if (!options_.structure_only) ModePass();
  TableAdvisorPass();
  if (options_.structure_only) return result_;
  IndexAdvisorPass();
  LintPass();

  // L001 singleton lints are found while reading (variable names do not
  // survive flattening); the loader parked them on the program.
  for (const Diagnostic& lint : program_.consult_lints()) {
    result_.diagnostics.push_back(lint);
  }
  return result_;
}

void PublishVerdict(Program* program, const AnalysisResult& result) {
  std::unordered_map<FunctorId, std::string> reasons;
  const SymbolTable& symbols = *program->symbols();
  for (const Diagnostic& diagnostic : result.diagnostics) {
    if (diagnostic.code != DiagCode::kNonStratified) continue;
    auto it = result.scc_of.find(diagnostic.functor);
    if (it == result.scc_of.end()) continue;
    const SccInfo& scc = result.sccs[static_cast<size_t>(it->second)];
    std::string message = FormatDiagnostic(symbols, diagnostic);
    for (FunctorId member : scc.members) {
      reasons.emplace(member, message);
    }
  }
  program->SetUnstratified(std::move(reasons));
}

std::unordered_map<FunctorId, std::vector<FunctorId>> IncrementalDependencies(
    const Program& program, const AnalysisResult& result) {
  // Reverse adjacency: for each callee, who calls it. Edge kinds do not
  // matter here — a change below a negation or aggregation still changes
  // the caller's answers.
  std::unordered_map<FunctorId, std::vector<FunctorId>> callers;
  for (const CallEdge& edge : result.edges) {
    callers[edge.to].push_back(edge.from);
  }
  std::unordered_map<FunctorId, std::vector<FunctorId>> deps;
  for (const auto& pred : program.predicates()) {
    if (pred == nullptr) continue;
    FunctorId functor = pred->functor();
    if (!pred->incremental()) continue;
    // Every predicate that can reach `functor` (including itself) depends
    // on it: walk the reversed call graph.
    std::vector<FunctorId> work{functor};
    std::unordered_set<FunctorId> seen{functor};
    while (!work.empty()) {
      FunctorId reached = work.back();
      work.pop_back();
      if (!IsHub(reached)) deps[reached].push_back(functor);
      auto it = callers.find(reached);
      if (it == callers.end()) continue;
      for (FunctorId caller : it->second) {
        if (seen.insert(caller).second) work.push_back(caller);
      }
    }
  }
  return deps;
}

// Assigns each predicate its evaluation shard (call-graph SCC index mod
// kNumEvalShards) and the mask of shards holding *tabled* SCCs statically
// reachable from it. The shared-table evaluator acquires a cold batch's
// whole reach mask up front, so batches over call-graph-independent tabled
// subgoals own disjoint shard sets and evaluate concurrently. Masks are
// hints, not load-bearing: clauses asserted after this pass can understate
// reachability, which the evaluator's per-call ownership check repairs at
// runtime (shard escalation, or the coarse-lock fallback).
void PublishEvalShards(Program* program, const AnalysisResult& result,
                       const std::vector<ShardMask>& reach) {
  // A widened graph already reaches everything tabled, but make the coarse
  // fallback explicit: unknown masks mean "all shards" downstream.
  for (const auto& pred : program->predicates()) {
    if (pred == nullptr) continue;
    FunctorId functor = pred->functor();
    auto it = result.scc_of.find(functor);
    if (it == result.scc_of.end()) {
      pred->set_eval_shards(-1, 0);
      continue;
    }
    int scc = it->second;
    ShardMask mask = result.widened ? kAllEvalShards
                                    : reach[static_cast<size_t>(scc)];
    pred->set_eval_shards(scc % kNumEvalShards, mask);
  }
}

}  // namespace

AnalysisResult Analyze(const Program& program, const AnalyzeOptions& options) {
  Analyzer analyzer(program, options);
  return analyzer.Run();
}

AnalysisResult AnalyzeAndPublish(Program* program,
                                 const AnalyzeOptions& options) {
  AnalysisResult result = Analyze(*program, options);
  PublishVerdict(program, result);
  program->SetIncrementalDeps(IncrementalDependencies(*program, result));
  SccShards shards = ComputeSccShards(*program, result);
  PublishEvalShards(program, result, shards.reach);
  // A structure-only result has no modes; publishing its empty mode set
  // would clear the modes published before.
  if (!options.structure_only) PublishModes(program, result, shards);
  return result;
}

void ApplyTableSuggestions(Program* program, const AnalysisResult& result,
                           const std::vector<FunctorId>& scope) {
  for (FunctorId f : result.table_suggestions) {
    if (!std::binary_search(scope.begin(), scope.end(), f)) continue;
    Predicate* pred = program->Lookup(f);
    if (pred != nullptr && !pred->tabled()) pred->set_tabled(true);
  }
}

}  // namespace xsb::analysis
