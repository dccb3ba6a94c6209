#include "engine/builtins.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "analysis/analyzer.h"
#include "parser/writer.h"

namespace xsb {
namespace {

Word Arg(Machine& m, Word goal, int i) {
  return m.store()->Deref(m.store()->Arg(m.store()->Deref(goal), i));
}

BuiltinResult UnifyResult(Machine& m, Word a, Word b) {
  return m.store()->Unify(a, b) ? BuiltinResult::kTrue : BuiltinResult::kFail;
}

BuiltinResult Bool(bool ok) {
  return ok ? BuiltinResult::kTrue : BuiltinResult::kFail;
}

// --- Unification and comparison ---------------------------------------------

BuiltinResult BuiltinUnify(Machine& m, Word goal, const GoalNode*) {
  return UnifyResult(m, Arg(m, goal, 0), Arg(m, goal, 1));
}

BuiltinResult BuiltinNotUnify(Machine& m, Word goal, const GoalNode*) {
  TermStore* store = m.store();
  size_t trail = store->TrailMark();
  bool ok = store->Unify(Arg(m, goal, 0), Arg(m, goal, 1));
  store->UndoTrail(trail);
  return Bool(!ok);
}

BuiltinResult BuiltinIdentical(Machine& m, Word goal, const GoalNode*) {
  return Bool(m.store()->Identical(Arg(m, goal, 0), Arg(m, goal, 1)));
}

BuiltinResult BuiltinNotIdentical(Machine& m, Word goal, const GoalNode*) {
  return Bool(!m.store()->Identical(Arg(m, goal, 0), Arg(m, goal, 1)));
}

BuiltinResult BuiltinTermLess(Machine& m, Word goal, const GoalNode*) {
  return Bool(m.store()->Compare(Arg(m, goal, 0), Arg(m, goal, 1)) < 0);
}
BuiltinResult BuiltinTermGreater(Machine& m, Word goal, const GoalNode*) {
  return Bool(m.store()->Compare(Arg(m, goal, 0), Arg(m, goal, 1)) > 0);
}
BuiltinResult BuiltinTermLessEq(Machine& m, Word goal, const GoalNode*) {
  return Bool(m.store()->Compare(Arg(m, goal, 0), Arg(m, goal, 1)) <= 0);
}
BuiltinResult BuiltinTermGreaterEq(Machine& m, Word goal, const GoalNode*) {
  return Bool(m.store()->Compare(Arg(m, goal, 0), Arg(m, goal, 1)) >= 0);
}

BuiltinResult BuiltinCompare(Machine& m, Word goal, const GoalNode*) {
  int c = m.store()->Compare(Arg(m, goal, 1), Arg(m, goal, 2));
  const char* name = c < 0 ? "<" : (c > 0 ? ">" : "=");
  Word order = AtomCell(m.store()->symbols()->InternAtom(name));
  return UnifyResult(m, Arg(m, goal, 0), order);
}

// --- Type tests ----------------------------------------------------------------

BuiltinResult BuiltinVar(Machine& m, Word goal, const GoalNode*) {
  return Bool(IsRef(Arg(m, goal, 0)));
}
BuiltinResult BuiltinNonvar(Machine& m, Word goal, const GoalNode*) {
  return Bool(!IsRef(Arg(m, goal, 0)));
}
BuiltinResult BuiltinAtom(Machine& m, Word goal, const GoalNode*) {
  return Bool(IsAtom(Arg(m, goal, 0)));
}
BuiltinResult BuiltinNumber(Machine& m, Word goal, const GoalNode*) {
  return Bool(IsInt(Arg(m, goal, 0)));
}
BuiltinResult BuiltinAtomic(Machine& m, Word goal, const GoalNode*) {
  Word t = Arg(m, goal, 0);
  return Bool(IsAtom(t) || IsInt(t));
}
BuiltinResult BuiltinCompound(Machine& m, Word goal, const GoalNode*) {
  return Bool(IsStruct(Arg(m, goal, 0)));
}
BuiltinResult BuiltinCallable(Machine& m, Word goal, const GoalNode*) {
  Word t = Arg(m, goal, 0);
  return Bool(IsAtom(t) || IsStruct(t));
}
BuiltinResult BuiltinGround(Machine& m, Word goal, const GoalNode*) {
  return Bool(m.store()->IsGround(Arg(m, goal, 0)));
}

// --- Arithmetic -----------------------------------------------------------------

BuiltinResult BuiltinIs(Machine& m, Word goal, const GoalNode*) {
  Result<int64_t> v = m.EvalArith(Arg(m, goal, 1));
  if (!v.ok()) {
    m.SetError(v.status());
    return BuiltinResult::kError;
  }
  return UnifyResult(m, Arg(m, goal, 0), IntCell(v.value()));
}

template <typename Cmp>
BuiltinResult ArithCompare(Machine& m, Word goal, Cmp cmp) {
  Result<int64_t> a = m.EvalArith(Arg(m, goal, 0));
  if (!a.ok()) {
    m.SetError(a.status());
    return BuiltinResult::kError;
  }
  Result<int64_t> b = m.EvalArith(Arg(m, goal, 1));
  if (!b.ok()) {
    m.SetError(b.status());
    return BuiltinResult::kError;
  }
  return Bool(cmp(a.value(), b.value()));
}

BuiltinResult BuiltinArithEq(Machine& m, Word goal, const GoalNode*) {
  return ArithCompare(m, goal, [](int64_t a, int64_t b) { return a == b; });
}
BuiltinResult BuiltinArithNeq(Machine& m, Word goal, const GoalNode*) {
  return ArithCompare(m, goal, [](int64_t a, int64_t b) { return a != b; });
}
BuiltinResult BuiltinLess(Machine& m, Word goal, const GoalNode*) {
  return ArithCompare(m, goal, [](int64_t a, int64_t b) { return a < b; });
}
BuiltinResult BuiltinGreater(Machine& m, Word goal, const GoalNode*) {
  return ArithCompare(m, goal, [](int64_t a, int64_t b) { return a > b; });
}
BuiltinResult BuiltinLessEq(Machine& m, Word goal, const GoalNode*) {
  return ArithCompare(m, goal, [](int64_t a, int64_t b) { return a <= b; });
}
BuiltinResult BuiltinGreaterEq(Machine& m, Word goal, const GoalNode*) {
  return ArithCompare(m, goal, [](int64_t a, int64_t b) { return a >= b; });
}

// --- Term construction / inspection ---------------------------------------------

BuiltinResult BuiltinFunctor(Machine& m, Word goal, const GoalNode*) {
  TermStore* store = m.store();
  SymbolTable* symbols = store->symbols();
  Word t = Arg(m, goal, 0);
  Word name = Arg(m, goal, 1);
  Word arity = Arg(m, goal, 2);
  if (!IsRef(t)) {
    if (IsStruct(t)) {
      FunctorId f = store->StructFunctor(t);
      if (!store->Unify(name, AtomCell(symbols->FunctorAtom(f)))) {
        return BuiltinResult::kFail;
      }
      return UnifyResult(m, arity, IntCell(symbols->FunctorArity(f)));
    }
    if (!store->Unify(name, t)) return BuiltinResult::kFail;
    return UnifyResult(m, arity, IntCell(0));
  }
  if (IsRef(name) || IsRef(arity) || !IsInt(arity)) {
    m.SetError(InstantiationError("functor/3: insufficiently instantiated"));
    return BuiltinResult::kError;
  }
  int64_t n = IntValue(arity);
  if (n == 0) return UnifyResult(m, t, name);
  if (!IsAtom(name) || n < 0) {
    m.SetError(TypeError("functor/3: bad name/arity"));
    return BuiltinResult::kError;
  }
  FunctorId f = symbols->InternFunctor(AtomOf(name), static_cast<int>(n));
  // MakeStructUninit leaves the args as fresh unbound cells.
  Word s = store->MakeStructUninit(f);
  return UnifyResult(m, t, s);
}

BuiltinResult BuiltinArg(Machine& m, Word goal, const GoalNode*) {
  TermStore* store = m.store();
  Word n = Arg(m, goal, 0);
  Word t = Arg(m, goal, 1);
  if (!IsInt(n) || !IsStruct(t)) {
    m.SetError(TypeError("arg/3: expects an integer and a compound term"));
    return BuiltinResult::kError;
  }
  int64_t i = IntValue(n);
  int arity = store->StructArity(t);
  if (i < 1 || i > arity) return BuiltinResult::kFail;
  return UnifyResult(m, Arg(m, goal, 2),
                     store->Arg(t, static_cast<int>(i - 1)));
}

BuiltinResult BuiltinUniv(Machine& m, Word goal, const GoalNode*) {
  TermStore* store = m.store();
  SymbolTable* symbols = store->symbols();
  Word t = Arg(m, goal, 0);
  Word list = Arg(m, goal, 1);
  if (!IsRef(t)) {
    std::vector<Word> items;
    if (IsStruct(t)) {
      FunctorId f = store->StructFunctor(t);
      items.push_back(AtomCell(symbols->FunctorAtom(f)));
      int arity = symbols->FunctorArity(f);
      for (int i = 0; i < arity; ++i) items.push_back(store->Arg(t, i));
    } else {
      items.push_back(t);
    }
    Word l = store->MakeList(items, AtomCell(symbols->nil()));
    return UnifyResult(m, list, l);
  }
  // Build the term from the list.
  std::vector<Word> items;
  Word cur = list;
  FunctorId cons = symbols->cons();
  while (true) {
    cur = store->Deref(cur);
    if (IsAtom(cur) && AtomOf(cur) == symbols->nil()) break;
    if (!IsStruct(cur) || store->StructFunctor(cur) != cons) {
      m.SetError(TypeError("=../2: second argument is not a proper list"));
      return BuiltinResult::kError;
    }
    items.push_back(store->Deref(store->Arg(cur, 0)));
    cur = store->Arg(cur, 1);
  }
  if (items.empty()) {
    m.SetError(TypeError("=../2: empty list"));
    return BuiltinResult::kError;
  }
  if (items.size() == 1) return UnifyResult(m, t, items[0]);
  if (!IsAtom(items[0])) {
    m.SetError(TypeError("=../2: functor must be an atom"));
    return BuiltinResult::kError;
  }
  FunctorId f = symbols->InternFunctor(AtomOf(items[0]),
                                       static_cast<int>(items.size() - 1));
  std::vector<Word> args(items.begin() + 1, items.end());
  return UnifyResult(m, t, store->MakeStruct(f, args));
}

BuiltinResult BuiltinCopyTerm(Machine& m, Word goal, const GoalNode*) {
  Word copy = m.store()->CopyTerm(Arg(m, goal, 0));
  return UnifyResult(m, Arg(m, goal, 1), copy);
}

// --- Control ----------------------------------------------------------------------

BuiltinResult CallWithExtraArgs(Machine& m, Word goal, int extra) {
  TermStore* store = m.store();
  SymbolTable* symbols = store->symbols();
  Word g = Arg(m, goal, 0);
  if (IsRef(g)) {
    m.SetError(InstantiationError("call/N on an unbound variable"));
    return BuiltinResult::kError;
  }
  if (extra == 0) {
    m.PushPendingGoalOpaqueCut(g);
    return BuiltinResult::kTrue;
  }
  std::vector<Word> args;
  AtomId name;
  bool is_apply = false;
  if (IsAtom(g)) {
    name = AtomOf(g);
  } else if (IsStruct(g)) {
    FunctorId f = store->StructFunctor(g);
    name = symbols->FunctorAtom(f);
    int arity = symbols->FunctorArity(f);
    if (name == symbols->apply()) {
      // HiLog closure: call(T, X) is T(X) = apply(T, X).
      is_apply = true;
      args.push_back(g);
    } else {
      for (int i = 0; i < arity; ++i) args.push_back(store->Arg(g, i));
    }
  } else {
    m.SetError(TypeError("call/N on a non-callable term"));
    return BuiltinResult::kError;
  }
  for (int i = 0; i < extra; ++i) {
    args.push_back(m.store()->Arg(m.store()->Deref(goal), 1 + i));
  }
  Word built;
  if (is_apply) {
    FunctorId f = symbols->InternFunctor(symbols->apply(),
                                         static_cast<int>(args.size()));
    built = store->MakeStruct(f, args);
  } else {
    FunctorId f =
        symbols->InternFunctor(name, static_cast<int>(args.size()));
    built = store->MakeStruct(f, args);
  }
  m.PushPendingGoalOpaqueCut(built);
  return BuiltinResult::kTrue;
}

BuiltinResult BuiltinCall1(Machine& m, Word goal, const GoalNode*) {
  return CallWithExtraArgs(m, goal, 0);
}
BuiltinResult BuiltinCall2(Machine& m, Word goal, const GoalNode*) {
  return CallWithExtraArgs(m, goal, 1);
}
BuiltinResult BuiltinCall3(Machine& m, Word goal, const GoalNode*) {
  return CallWithExtraArgs(m, goal, 2);
}
BuiltinResult BuiltinCall4(Machine& m, Word goal, const GoalNode*) {
  return CallWithExtraArgs(m, goal, 3);
}
BuiltinResult BuiltinCall5(Machine& m, Word goal, const GoalNode*) {
  return CallWithExtraArgs(m, goal, 4);
}

BuiltinResult BuiltinOnce(Machine& m, Word goal, const GoalNode*) {
  bool found = false;
  const GoalNode* sub =
      m.Cons(Arg(m, goal, 0), nullptr,
             static_cast<uint32_t>(m.choice_point_count()));
  Status status = m.Run(sub, [&found]() {
    found = true;
    return SolveAction::kStop;
  });
  if (!status.ok()) {
    m.SetError(status);
    return BuiltinResult::kError;
  }
  return Bool(found);
}

BuiltinResult BuiltinNot(Machine& m, Word goal, const GoalNode*) {
  TermStore* store = m.store();
  size_t trail = store->TrailMark();
  size_t heap = store->HeapMark();
  bool found = false;
  const GoalNode* sub =
      m.Cons(Arg(m, goal, 0), nullptr,
             static_cast<uint32_t>(m.choice_point_count()));
  Status status = m.Run(sub, [&found]() {
    found = true;
    return SolveAction::kStop;
  });
  store->UndoTrail(trail);
  store->TruncateHeap(heap);
  if (!status.ok()) {
    m.SetError(status);
    return BuiltinResult::kError;
  }
  return Bool(!found);
}

BuiltinResult BuiltinFindall(Machine& m, Word goal, const GoalNode*) {
  TermStore* store = m.store();
  Result<std::vector<FlatTerm>> collected =
      m.FindAll(Arg(m, goal, 0), Arg(m, goal, 1));
  if (!collected.ok()) {
    m.SetError(collected.status());
    return BuiltinResult::kError;
  }
  std::vector<Word> items;
  items.reserve(collected.value().size());
  for (const FlatTerm& flat : collected.value()) {
    items.push_back(Unflatten(store, flat));
  }
  Word list =
      store->MakeList(items, AtomCell(store->symbols()->nil()));
  return UnifyResult(m, Arg(m, goal, 2), list);
}

BuiltinResult BuiltinBetween(Machine& m, Word goal, const GoalNode* node) {
  Word lo = Arg(m, goal, 0);
  Word hi = Arg(m, goal, 1);
  Word x = Arg(m, goal, 2);
  if (!IsInt(lo) || !IsInt(hi)) {
    m.SetError(TypeError("between/3: bounds must be integers"));
    return BuiltinResult::kError;
  }
  if (IsInt(x)) {
    return Bool(IntValue(lo) <= IntValue(x) && IntValue(x) <= IntValue(hi));
  }
  if (!IsRef(x)) return BuiltinResult::kFail;
  m.PushBetweenChoices(x, IntValue(lo), IntValue(hi), node->next);
  return BuiltinResult::kFail;  // enter the choice point
}

BuiltinResult BuiltinLength(Machine& m, Word goal, const GoalNode*) {
  TermStore* store = m.store();
  SymbolTable* symbols = store->symbols();
  Word list = Arg(m, goal, 0);
  Word n = Arg(m, goal, 1);
  FunctorId cons = symbols->cons();
  // Walk the list as far as it is bound.
  int64_t count = 0;
  Word cur = list;
  while (true) {
    cur = store->Deref(cur);
    if (IsAtom(cur) && AtomOf(cur) == symbols->nil()) {
      return UnifyResult(m, n, IntCell(count));
    }
    if (IsStruct(cur) && store->StructFunctor(cur) == cons) {
      ++count;
      cur = store->Arg(cur, 1);
      continue;
    }
    break;
  }
  if (IsRef(cur) && IsInt(n)) {
    // Extend the partial list with fresh variables.
    int64_t want = IntValue(n) - count;
    if (want < 0) return BuiltinResult::kFail;
    std::vector<Word> fresh(static_cast<size_t>(want));
    for (auto& v : fresh) v = store->MakeVar();
    Word tail = store->MakeList(fresh, AtomCell(symbols->nil()));
    return UnifyResult(m, cur, tail);
  }
  m.SetError(InstantiationError("length/2: insufficiently instantiated"));
  return BuiltinResult::kError;
}

// --- Sorting and all-solutions --------------------------------------------------

// Reads a proper list into *items; false if not a proper list.
bool ListToVector(Machine& m, Word list, std::vector<Word>* items) {
  TermStore* store = m.store();
  SymbolTable* symbols = store->symbols();
  FunctorId cons = symbols->cons();
  Word cur = store->Deref(list);
  while (true) {
    if (IsAtom(cur) && AtomOf(cur) == symbols->nil()) return true;
    if (!IsStruct(cur) || store->StructFunctor(cur) != cons) return false;
    items->push_back(store->Arg(cur, 0));
    cur = store->Deref(store->Arg(cur, 1));
  }
}

BuiltinResult SortImpl(Machine& m, Word goal, bool dedup) {
  TermStore* store = m.store();
  std::vector<Word> items;
  if (!ListToVector(m, Arg(m, goal, 0), &items)) {
    m.SetError(TypeError("sort/2: not a proper list"));
    return BuiltinResult::kError;
  }
  std::stable_sort(items.begin(), items.end(), [&](Word a, Word b) {
    return store->Compare(a, b) < 0;
  });
  if (dedup) {
    items.erase(std::unique(items.begin(), items.end(),
                            [&](Word a, Word b) {
                              return store->Compare(a, b) == 0;
                            }),
                items.end());
  }
  Word sorted = store->MakeList(items, AtomCell(store->symbols()->nil()));
  return UnifyResult(m, Arg(m, goal, 1), sorted);
}

BuiltinResult BuiltinSort(Machine& m, Word goal, const GoalNode*) {
  return SortImpl(m, goal, /*dedup=*/true);
}
BuiltinResult BuiltinMsort(Machine& m, Word goal, const GoalNode*) {
  return SortImpl(m, goal, /*dedup=*/false);
}

// Strips `Var^Goal` wrappers (existential quantification markers).
Word StripCarets(Machine& m, Word goal) {
  TermStore* store = m.store();
  SymbolTable* symbols = store->symbols();
  FunctorId caret = symbols->InternFunctor(symbols->InternAtom("^"), 2);
  Word g = store->Deref(goal);
  while (IsStruct(g) && store->StructFunctor(g) == caret) {
    g = store->Deref(store->Arg(g, 1));
  }
  return g;
}

// bagof/3 and setof/3, in their common findall-like reading: the template's
// solutions are collected (existential ^ prefixes are honored by stripping),
// the empty bag fails, and setof sorts and deduplicates. Free-variable
// grouping (backtracking over witness bindings) is not implemented; this is
// the behavior most database-style uses rely on and is documented in
// README.md.
BuiltinResult BagofImpl(Machine& m, Word goal, bool is_setof) {
  TermStore* store = m.store();
  Word templ = Arg(m, goal, 0);
  Word inner = StripCarets(m, Arg(m, goal, 1));
  Result<std::vector<FlatTerm>> collected = m.FindAll(templ, inner);
  if (!collected.ok()) {
    m.SetError(collected.status());
    return BuiltinResult::kError;
  }
  if (collected.value().empty()) return BuiltinResult::kFail;
  std::vector<Word> items;
  items.reserve(collected.value().size());
  for (const FlatTerm& flat : collected.value()) {
    items.push_back(Unflatten(store, flat));
  }
  if (is_setof) {
    std::stable_sort(items.begin(), items.end(), [&](Word a, Word b) {
      return store->Compare(a, b) < 0;
    });
    items.erase(std::unique(items.begin(), items.end(),
                            [&](Word a, Word b) {
                              return store->Compare(a, b) == 0;
                            }),
                items.end());
  }
  Word list = store->MakeList(items, AtomCell(store->symbols()->nil()));
  return UnifyResult(m, Arg(m, goal, 2), list);
}

BuiltinResult BuiltinBagof(Machine& m, Word goal, const GoalNode*) {
  return BagofImpl(m, goal, /*is_setof=*/false);
}
BuiltinResult BuiltinSetof(Machine& m, Word goal, const GoalNode*) {
  return BagofImpl(m, goal, /*is_setof=*/true);
}

BuiltinResult BuiltinSucc(Machine& m, Word goal, const GoalNode*) {
  Word a = Arg(m, goal, 0);
  Word b = Arg(m, goal, 1);
  if (IsInt(a)) return UnifyResult(m, b, IntCell(IntValue(a) + 1));
  if (IsInt(b)) {
    if (IntValue(b) <= 0) return BuiltinResult::kFail;
    return UnifyResult(m, a, IntCell(IntValue(b) - 1));
  }
  m.SetError(InstantiationError("succ/2: both arguments unbound"));
  return BuiltinResult::kError;
}

// --- Database updates ---------------------------------------------------------------

BuiltinResult AssertImpl(Machine& m, Word goal, bool front) {
  Status status =
      m.program()->AddClauseTerm(*m.store(), Arg(m, goal, 0), front);
  if (!status.ok()) {
    m.SetError(status);
    return BuiltinResult::kError;
  }
  return BuiltinResult::kTrue;
}

BuiltinResult BuiltinAssertz(Machine& m, Word goal, const GoalNode*) {
  return AssertImpl(m, goal, false);
}
BuiltinResult BuiltinAsserta(Machine& m, Word goal, const GoalNode*) {
  return AssertImpl(m, goal, true);
}

// Splits a retract pattern into its head and body (`true` for a bare
// head).
void SplitClausePattern(Machine& m, Word pattern, Word* head, Word* body) {
  TermStore* store = m.store();
  SymbolTable* symbols = store->symbols();
  pattern = store->Deref(pattern);
  *head = pattern;
  *body = AtomCell(symbols->truth());
  if (IsStruct(pattern)) {
    FunctorId f = store->StructFunctor(pattern);
    if (symbols->FunctorAtom(f) == symbols->neck() &&
        symbols->FunctorArity(f) == 2) {
      *head = store->Deref(store->Arg(pattern, 0));
      *body = store->Arg(pattern, 1);
    }
  }
}

// Erasing a rule shrinks the call graph: the verdict, shard reach masks and
// incremental dependency seeds published for the old clause set are now
// stale (still sound — a shrunken program only satisfies the published
// upper bounds more — but loose, so every cold call over-acquires shards).
// Recompute the structural analyses and republish. Erasing a fact needs none
// of this: a fact adds no call-graph edge, so the published seeds and masks
// are exactly what a re-analysis would give, and first-argument key masks
// stay upper bounds. The mode pass is skipped: published call/success modes
// are likewise upper bounds that erasure can only tighten, and the fixpoint
// is the expensive part.
void RepublishAfterErasure(Machine& m) {
  analysis::AnalyzeOptions options;
  options.structure_only = true;
  analysis::AnalyzeAndPublish(m.program(), options);
}

BuiltinResult BuiltinRetract(Machine& m, Word goal, const GoalNode*) {
  TermStore* store = m.store();
  Word head, body;
  SplitClausePattern(m, Arg(m, goal, 0), &head, &body);
  std::optional<FunctorId> functor = Program::CallableFunctor(*store, head);
  if (!functor.has_value()) {
    m.SetError(TypeError("retract/1: head not callable"));
    return BuiltinResult::kError;
  }
  Predicate* pred = m.program()->Lookup(*functor);
  if (pred == nullptr) return BuiltinResult::kFail;
  for (ClauseId id : pred->Candidates(*store, head)) {
    const Clause& clause = pred->clause(id);
    if (clause.erased) continue;
    size_t trail = store->TrailMark();
    size_t heap = store->HeapMark();
    // A bare pattern retracts clauses whose body is `true` (facts); a
    // (H :- B) pattern matches against the stored body.
    if (m.MatchClause(clause, head, body)) {
      bool rule = clause.is_rule;
      pred->EraseClause(id);
      if (pred->incremental()) m.program()->NotifyIncrementalUpdate(*functor);
      if (rule) RepublishAfterErasure(m);
      return BuiltinResult::kTrue;  // bindings stay, as in ISO retract
    }
    store->UndoTrail(trail);
    store->TruncateHeap(heap);
  }
  return BuiltinResult::kFail;
}

BuiltinResult BuiltinRetractAll(Machine& m, Word goal, const GoalNode*) {
  TermStore* store = m.store();
  Word head = Arg(m, goal, 0);
  std::optional<FunctorId> functor = Program::CallableFunctor(*store, head);
  if (!functor.has_value()) {
    m.SetError(TypeError("retractall/1: head not callable"));
    return BuiltinResult::kError;
  }
  Predicate* pred = m.program()->Lookup(*functor);
  if (pred == nullptr) return BuiltinResult::kTrue;
  bool erased_any = false;
  bool erased_rule = false;
  for (ClauseId id : pred->Candidates(*store, head)) {
    const Clause& clause = pred->clause(id);
    if (clause.erased) continue;
    size_t trail = store->TrailMark();
    size_t heap = store->HeapMark();
    if (m.MatchClause(clause, head, /*body=*/kNoVar)) {
      pred->EraseClause(id);
      erased_any = true;
      erased_rule |= clause.is_rule;
    }
    store->UndoTrail(trail);
    store->TruncateHeap(heap);
  }
  if (erased_any && pred->incremental()) {
    m.program()->NotifyIncrementalUpdate(*functor);
  }
  if (erased_rule) RepublishAfterErasure(m);
  return BuiltinResult::kTrue;
}

BuiltinResult BuiltinAbolish(Machine& m, Word goal, const GoalNode*) {
  TermStore* store = m.store();
  SymbolTable* symbols = store->symbols();
  Word spec = Arg(m, goal, 0);
  FunctorId slash = symbols->InternFunctor(symbols->InternAtom("/"), 2);
  if (!IsStruct(spec) || store->StructFunctor(spec) != slash) {
    m.SetError(TypeError("abolish/1: expected Name/Arity"));
    return BuiltinResult::kError;
  }
  Word name = store->Deref(store->Arg(spec, 0));
  Word arity = store->Deref(store->Arg(spec, 1));
  if (!IsAtom(name) || !IsInt(arity)) {
    m.SetError(TypeError("abolish/1: expected Name/Arity"));
    return BuiltinResult::kError;
  }
  FunctorId f = symbols->InternFunctor(AtomOf(name),
                                       static_cast<int>(IntValue(arity)));
  Predicate* pred = m.program()->Lookup(f);
  if (pred != nullptr) {
    bool erased_any = pred->num_live_clauses() > 0;
    bool erased_rule = false;
    for (ClauseId id = 0; id < pred->clauses().size(); ++id) {
      erased_rule |= !pred->clause(id).erased && pred->clause(id).is_rule;
      pred->EraseClause(id);
    }
    if (erased_any && pred->incremental()) {
      m.program()->NotifyIncrementalUpdate(f);
    }
    if (erased_rule) RepublishAfterErasure(m);
  }
  return BuiltinResult::kTrue;
}

// --- Atoms and strings ----------------------------------------------------------

// atom_codes/2, number_codes/2, atom_length/2, atom_concat/3.
BuiltinResult BuiltinAtomCodes(Machine& m, Word goal, const GoalNode*) {
  TermStore* store = m.store();
  SymbolTable* symbols = store->symbols();
  Word a = Arg(m, goal, 0);
  Word codes = Arg(m, goal, 1);
  if (IsAtom(a) || IsInt(a)) {
    std::string text = IsAtom(a) ? symbols->AtomName(AtomOf(a))
                                 : std::to_string(IntValue(a));
    std::vector<Word> items;
    for (unsigned char c : text) items.push_back(IntCell(c));
    Word list = store->MakeList(items, AtomCell(symbols->nil()));
    return UnifyResult(m, codes, list);
  }
  std::vector<Word> items;
  if (!ListToVector(m, codes, &items)) {
    m.SetError(InstantiationError("atom_codes/2: need an atom or codes"));
    return BuiltinResult::kError;
  }
  std::string text;
  for (Word w : items) {
    Word d = store->Deref(w);
    if (!IsInt(d)) {
      m.SetError(TypeError("atom_codes/2: code list must hold integers"));
      return BuiltinResult::kError;
    }
    text.push_back(static_cast<char>(IntValue(d)));
  }
  return UnifyResult(m, a, AtomCell(symbols->InternAtom(text)));
}

BuiltinResult BuiltinNumberCodes(Machine& m, Word goal, const GoalNode*) {
  TermStore* store = m.store();
  SymbolTable* symbols = store->symbols();
  Word n = Arg(m, goal, 0);
  Word codes = Arg(m, goal, 1);
  if (IsInt(n)) {
    std::string text = std::to_string(IntValue(n));
    std::vector<Word> items;
    for (unsigned char c : text) items.push_back(IntCell(c));
    Word list = store->MakeList(items, AtomCell(symbols->nil()));
    return UnifyResult(m, codes, list);
  }
  std::vector<Word> items;
  if (!ListToVector(m, codes, &items) || items.empty()) {
    m.SetError(InstantiationError("number_codes/2: need a number or codes"));
    return BuiltinResult::kError;
  }
  std::string text;
  for (Word w : items) {
    Word d = store->Deref(w);
    if (!IsInt(d)) {
      m.SetError(TypeError("number_codes/2: code list must hold integers"));
      return BuiltinResult::kError;
    }
    text.push_back(static_cast<char>(IntValue(d)));
  }
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    return BuiltinResult::kFail;  // not a number
  }
  return UnifyResult(m, n, IntCell(value));
}

BuiltinResult BuiltinAtomLength(Machine& m, Word goal, const GoalNode*) {
  Word a = Arg(m, goal, 0);
  if (!IsAtom(a)) {
    m.SetError(TypeError("atom_length/2: first argument must be an atom"));
    return BuiltinResult::kError;
  }
  const std::string& name = m.store()->symbols()->AtomName(AtomOf(a));
  return UnifyResult(m, Arg(m, goal, 1),
                     IntCell(static_cast<int64_t>(name.size())));
}

BuiltinResult BuiltinAtomConcat(Machine& m, Word goal, const GoalNode*) {
  SymbolTable* symbols = m.store()->symbols();
  Word a = Arg(m, goal, 0);
  Word b = Arg(m, goal, 1);
  auto text_of = [&](Word w, std::string* out) {
    if (IsAtom(w)) {
      *out = symbols->AtomName(AtomOf(w));
      return true;
    }
    if (IsInt(w)) {
      *out = std::to_string(IntValue(w));
      return true;
    }
    return false;
  };
  std::string ta, tb;
  if (text_of(a, &ta) && text_of(b, &tb)) {
    return UnifyResult(m, Arg(m, goal, 2),
                       AtomCell(symbols->InternAtom(ta + tb)));
  }
  m.SetError(InstantiationError(
      "atom_concat/3: first two arguments must be atomic"));
  return BuiltinResult::kError;
}

// clause/2: enumerates the clauses of a predicate whose head unifies with
// Head and whose body (`true` for a fact) unifies with Body. It reads them
// the way a call to Head would: through the clause choice point of a call
// (logical update view, retracted clauses skipped, a cut after it prunes
// the rest), and a table computed over it depends on them.
BuiltinResult BuiltinClause(Machine& m, Word goal, const GoalNode* node) {
  TermStore* store = m.store();
  Word head = Arg(m, goal, 0);
  std::optional<FunctorId> functor = Program::CallableFunctor(*store, head);
  if (!functor.has_value()) {
    m.SetError(InstantiationError("clause/2: head must be callable"));
    return BuiltinResult::kError;
  }
  Predicate* pred = m.program()->Lookup(*functor);
  if (pred == nullptr) return BuiltinResult::kFail;
  m.NoteClauseRead(*pred, *functor);
  m.PushClauseChoices(pred, head, Arg(m, goal, 1), node->next);
  return BuiltinResult::kFail;  // enter the choice point
}

// table_stats/2: table_stats(Goal, Stats) unifies Stats with
// [subgoals-N, answers-N, trie_nodes-N, call_trie_nodes-N, interned_terms-N,
// bytes-N, factored_saved_bytes-N, findall_flatten_reuses-N,
// shared_table_hits-N, waits_on_inprogress-N, epochs_retired-N,
// coarse_fallbacks-N, mode_violations-N, subsumed_dropped-N,
// subsumed_replaced-N, answers_inserted-N] for the
// variant table of Goal, or aggregated over the whole table space when Goal
// is the atom `all`. Fails when Goal has no table; errors when no tabling
// evaluator is installed. The shared-serving counters are relaxed atomics:
// each is an independent monotonic event count, with no cross-counter
// snapshot implied.
BuiltinResult BuiltinTableStats(Machine& m, Word goal, const GoalNode*) {
  TermStore* store = m.store();
  SymbolTable* symbols = store->symbols();
  TabledCallHandler* handler = m.tabled_handler();
  if (handler == nullptr) {
    m.SetError(TypeError("table_stats/2: no tabling evaluator installed"));
    return BuiltinResult::kError;
  }
  Word subject = store->Deref(Arg(m, goal, 0));
  Word probe = 0;  // 0 = aggregate over the whole table space
  if (!(IsAtom(subject) &&
        AtomOf(subject) == symbols->InternAtom("all"))) {
    if (!Program::CallableFunctor(*store, subject).has_value()) {
      m.SetError(InstantiationError(
          "table_stats/2: first argument must be `all` or a callable goal"));
      return BuiltinResult::kError;
    }
    probe = subject;
  }
  TabledCallHandler::TableStatsInfo info = handler->GetTableStats(&m, probe);
  if (!info.found) return BuiltinResult::kFail;
  FunctorId dash = symbols->InternFunctor(symbols->InternAtom("-"), 2);
  auto pair = [&](const char* name, uint64_t value) {
    return store->MakeStruct(dash,
                             {AtomCell(symbols->InternAtom(name)),
                              IntCell(static_cast<int64_t>(value))});
  };
  std::vector<Word> items = {
      pair("subgoals", info.subgoals),
      pair("answers", info.answers),
      pair("trie_nodes", info.trie_nodes),
      pair("call_trie_nodes", info.call_trie_nodes),
      pair("interned_terms", info.interned_terms),
      pair("bytes", info.bytes),
      pair("factored_saved_bytes", info.factored_saved_bytes),
      pair("findall_flatten_reuses", m.stats().findall_flatten_reuses),
      pair("shared_table_hits", info.shared_table_hits),
      pair("waits_on_inprogress", info.waits_on_inprogress),
      pair("epochs_retired", info.epochs_retired),
      pair("coarse_fallbacks", info.coarse_fallbacks),
      pair("mode_violations", info.mode_violations),
      pair("subsumed_dropped", info.subsumed_dropped),
      pair("subsumed_replaced", info.subsumed_replaced),
      pair("answers_inserted", info.answers_inserted),
  };
  Word list = store->MakeList(items, AtomCell(symbols->nil()));
  return UnifyResult(m, Arg(m, goal, 1), list);
}

// analyze/1: reruns the consult-time program analyzer on demand and unifies
// its argument with a report:
//   [sccs-N, stratified-B, widened-B,
//    table_suggestions-[p/N, ...],
//    index_suggestions-[index(p/N, K), ...],
//    diagnostics-[diag(Code, Severity, p/N, Message, span(File, Line, Col)),
//                 ...]]
// Also refreshes the program's published stratification verdict, so asserts
// made since the last consult are taken into account.
BuiltinResult BuiltinAnalyze(Machine& m, Word goal, const GoalNode*) {
  TermStore* store = m.store();
  SymbolTable* symbols = store->symbols();
  analysis::AnalysisResult result = analysis::AnalyzeAndPublish(m.program());

  FunctorId dash = symbols->InternFunctor(symbols->InternAtom("-"), 2);
  FunctorId slash = symbols->InternFunctor(symbols->InternAtom("/"), 2);
  FunctorId diag5 = symbols->InternFunctor(symbols->InternAtom("diag"), 5);
  FunctorId span3 = symbols->InternFunctor(symbols->InternAtom("span"), 3);
  FunctorId index2 = symbols->InternFunctor(symbols->InternAtom("index"), 2);
  Word nil = AtomCell(symbols->nil());
  auto atom = [&](const char* name) {
    return AtomCell(symbols->InternAtom(name));
  };
  auto pred_indicator = [&](FunctorId f) {
    return store->MakeStruct(slash,
                             {AtomCell(symbols->FunctorAtom(f)),
                              IntCell(symbols->FunctorArity(f))});
  };
  auto pair = [&](const char* name, Word value) {
    return store->MakeStruct(dash,
                             {AtomCell(symbols->InternAtom(name)), value});
  };

  std::vector<Word> tables;
  for (FunctorId f : result.table_suggestions) {
    tables.push_back(pred_indicator(f));
  }
  std::vector<Word> indexes;
  for (const auto& [f, argnum] : result.index_suggestions) {
    indexes.push_back(
        store->MakeStruct(index2, {pred_indicator(f), IntCell(argnum)}));
  }
  std::vector<Word> diags;
  for (const analysis::Diagnostic& d : result.diagnostics) {
    Word subject = d.functor == analysis::kNoFunctor ? atom("program")
                                                     : pred_indicator(d.functor);
    Word file = d.span.file != 0 ? AtomCell(d.span.file) : atom("unknown");
    Word span = store->MakeStruct(
        span3, {file, IntCell(d.span.line), IntCell(d.span.column)});
    diags.push_back(store->MakeStruct(
        diag5, {atom(analysis::DiagCodeName(d.code)),
                atom(analysis::SeverityName(d.severity)), subject,
                AtomCell(symbols->InternAtom(d.message)), span}));
  }
  std::vector<Word> items = {
      pair("sccs", IntCell(static_cast<int64_t>(result.sccs.size()))),
      pair("stratified", atom(result.stratified() ? "true" : "false")),
      pair("widened", atom(result.widened ? "true" : "false")),
      pair("table_suggestions", store->MakeList(tables, nil)),
      pair("index_suggestions", store->MakeList(indexes, nil)),
      pair("diagnostics", store->MakeList(diags, nil)),
  };
  Word report = store->MakeList(items, nil);
  m.program()->SetAnalysisDiagnostics(std::move(result.diagnostics));
  return UnifyResult(m, Arg(m, goal, 0), report);
}

// predicate_mode/2: predicate_mode(Name/Arity, Modes) unifies Modes with
// the call/success modes the mode analysis published for the predicate:
//   [call-[ground|nonvar|free|any, ...], success-[...]]
// `call-unknown` when the analysis saw no call site of the predicate;
// `success-never` when it proved the predicate cannot succeed. Fails when
// the predicate is unknown or no analysis has published modes for it.
BuiltinResult BuiltinPredicateMode(Machine& m, Word goal, const GoalNode*) {
  TermStore* store = m.store();
  SymbolTable* symbols = store->symbols();
  Word spec = store->Deref(Arg(m, goal, 0));
  FunctorId slash = symbols->InternFunctor(symbols->InternAtom("/"), 2);
  if (!IsStruct(spec) || store->StructFunctor(spec) != slash) {
    m.SetError(TypeError("predicate_mode/2: expected Name/Arity"));
    return BuiltinResult::kError;
  }
  Word name = store->Deref(store->Arg(spec, 0));
  Word arity = store->Deref(store->Arg(spec, 1));
  if (!IsAtom(name) || !IsInt(arity)) {
    m.SetError(TypeError("predicate_mode/2: expected Name/Arity"));
    return BuiltinResult::kError;
  }
  FunctorId f = symbols->InternFunctor(AtomOf(name),
                                       static_cast<int>(IntValue(arity)));
  const Predicate* pred = m.program()->Lookup(f);
  if (pred == nullptr || pred->modes() == nullptr) {
    return BuiltinResult::kFail;
  }
  const PublishedModes& modes = *pred->modes();
  Word nil = AtomCell(symbols->nil());
  auto atom = [&](const char* text) {
    return AtomCell(symbols->InternAtom(text));
  };
  auto mode_atom = [&](uint8_t mode) {
    switch (mode) {
      case kModeGround:
        return atom("ground");
      case kModeNonvar:
        return atom("nonvar");
      case kModeFree:
        return atom("free");
      default:
        return atom("any");
    }
  };
  auto mode_list = [&](const std::vector<uint8_t>& vec) {
    std::vector<Word> items;
    for (uint8_t mode : vec) items.push_back(mode_atom(mode));
    return store->MakeList(items, nil);
  };
  FunctorId dash = symbols->InternFunctor(symbols->InternAtom("-"), 2);
  auto pair = [&](const char* key, Word value) {
    return store->MakeStruct(dash, {atom(key), value});
  };
  std::vector<Word> items = {
      pair("call", modes.site_join.empty() ? atom("unknown")
                                           : mode_list(modes.site_join)),
      pair("success", modes.success_join.empty()
                          ? atom("never")
                          : mode_list(modes.success_join)),
  };
  return UnifyResult(m, Arg(m, goal, 1), store->MakeList(items, nil));
}

// --- Incremental table maintenance ----------------------------------------------

// Walks an incremental/1 spec: Name/Arity, a comma conjunction, or a list.
Status DeclareIncrementalSpec(Machine& m, Word spec) {
  TermStore* store = m.store();
  SymbolTable* symbols = store->symbols();
  spec = store->Deref(spec);
  FunctorId comma = symbols->InternFunctor(symbols->comma(), 2);
  FunctorId cons = symbols->cons();
  FunctorId slash = symbols->InternFunctor(symbols->InternAtom("/"), 2);
  if (IsStruct(spec)) {
    FunctorId f = store->StructFunctor(spec);
    if (f == comma || f == cons) {
      Status s = DeclareIncrementalSpec(m, store->Arg(spec, 0));
      if (!s.ok()) return s;
      Word rest = store->Deref(store->Arg(spec, 1));
      if (IsAtom(rest) && AtomOf(rest) == symbols->nil()) return Status::Ok();
      return DeclareIncrementalSpec(m, rest);
    }
    if (f == slash) {
      Word name = store->Deref(store->Arg(spec, 0));
      Word arity = store->Deref(store->Arg(spec, 1));
      if (IsAtom(name) && IsInt(arity)) {
        FunctorId functor = symbols->InternFunctor(
            AtomOf(name), static_cast<int>(IntValue(arity)));
        return m.program()->DeclareIncremental(functor);
      }
    }
  }
  return TypeError("incremental/1: expected Name/Arity spec(s)");
}

// incremental/1: runtime counterpart of the `:- incremental(p/N)` directive.
// After declaring, reruns the structural analysis so the static dependency
// seeds given to tables created from here on cover the fresh declarations.
BuiltinResult BuiltinIncremental(Machine& m, Word goal, const GoalNode*) {
  Status status = DeclareIncrementalSpec(m, Arg(m, goal, 0));
  if (!status.ok()) {
    m.SetError(status);
    return BuiltinResult::kError;
  }
  analysis::AnalyzeOptions options;
  options.structure_only = true;
  analysis::AnalyzeAndPublish(m.program(), options);
  return BuiltinResult::kTrue;
}

// abolish_table_call/1: disposes the variant table of Goal (its dependents
// are untouched — use updates for that). Fails when Goal has no table.
BuiltinResult BuiltinAbolishTableCall(Machine& m, Word goal, const GoalNode*) {
  TabledCallHandler* handler = m.tabled_handler();
  if (handler == nullptr) {
    m.SetError(
        TypeError("abolish_table_call/1: no tabling evaluator installed"));
    return BuiltinResult::kError;
  }
  TermStore* store = m.store();
  Word subject = store->Deref(Arg(m, goal, 0));
  if (!Program::CallableFunctor(*store, subject).has_value()) {
    m.SetError(
        InstantiationError("abolish_table_call/1: goal must be callable"));
    return BuiltinResult::kError;
  }
  return handler->AbolishTableCall(&m, subject) ? BuiltinResult::kTrue
                                                : BuiltinResult::kFail;
}

// table_state/2: table_state(Goal, State) unifies State with the variant
// table's lifecycle state: undefined | incomplete | complete | invalid.
BuiltinResult BuiltinTableState(Machine& m, Word goal, const GoalNode*) {
  TabledCallHandler* handler = m.tabled_handler();
  if (handler == nullptr) {
    m.SetError(TypeError("table_state/2: no tabling evaluator installed"));
    return BuiltinResult::kError;
  }
  TermStore* store = m.store();
  SymbolTable* symbols = store->symbols();
  Word subject = store->Deref(Arg(m, goal, 0));
  if (!Program::CallableFunctor(*store, subject).has_value()) {
    m.SetError(InstantiationError("table_state/2: goal must be callable"));
    return BuiltinResult::kError;
  }
  const char* name = "undefined";
  switch (handler->GetTableState(&m, subject)) {
    case TabledCallHandler::TableState::kNoTable:
      name = "undefined";
      break;
    case TabledCallHandler::TableState::kIncomplete:
      name = "incomplete";
      break;
    case TabledCallHandler::TableState::kComplete:
      name = "complete";
      break;
    case TabledCallHandler::TableState::kInvalid:
      name = "invalid";
      break;
  }
  return UnifyResult(m, Arg(m, goal, 1), AtomCell(symbols->InternAtom(name)));
}

// --- Output ------------------------------------------------------------------------

BuiltinResult WriteImpl(Machine& m, Word goal, bool quoted, bool newline) {
  WriteOptions options;
  options.quoted = quoted;
  std::cout << WriteTerm(*m.store(), *m.program()->ops(),
                         m.store()->Arg(m.store()->Deref(goal), 0), options);
  if (newline) std::cout << '\n';
  return BuiltinResult::kTrue;
}

BuiltinResult BuiltinWrite(Machine& m, Word goal, const GoalNode*) {
  return WriteImpl(m, goal, /*quoted=*/false, /*newline=*/false);
}
BuiltinResult BuiltinPrint(Machine& m, Word goal, const GoalNode*) {
  return WriteImpl(m, goal, /*quoted=*/true, /*newline=*/false);
}
BuiltinResult BuiltinWriteln(Machine& m, Word goal, const GoalNode*) {
  return WriteImpl(m, goal, /*quoted=*/false, /*newline=*/true);
}
BuiltinResult BuiltinNl(Machine&, Word, const GoalNode*) {
  std::cout << '\n';
  return BuiltinResult::kTrue;
}

}  // namespace

BuiltinRegistry::BuiltinRegistry(SymbolTable* symbols) {
  Register(symbols, "=", 2, BuiltinUnify);
  Register(symbols, "\\=", 2, BuiltinNotUnify);
  Register(symbols, "==", 2, BuiltinIdentical);
  Register(symbols, "\\==", 2, BuiltinNotIdentical);
  Register(symbols, "@<", 2, BuiltinTermLess);
  Register(symbols, "@>", 2, BuiltinTermGreater);
  Register(symbols, "@=<", 2, BuiltinTermLessEq);
  Register(symbols, "@>=", 2, BuiltinTermGreaterEq);
  Register(symbols, "compare", 3, BuiltinCompare);
  Register(symbols, "var", 1, BuiltinVar);
  Register(symbols, "nonvar", 1, BuiltinNonvar);
  Register(symbols, "atom", 1, BuiltinAtom);
  Register(symbols, "number", 1, BuiltinNumber);
  Register(symbols, "integer", 1, BuiltinNumber);
  Register(symbols, "atomic", 1, BuiltinAtomic);
  Register(symbols, "compound", 1, BuiltinCompound);
  Register(symbols, "callable", 1, BuiltinCallable);
  Register(symbols, "ground", 1, BuiltinGround);
  Register(symbols, "is", 2, BuiltinIs);
  Register(symbols, "=:=", 2, BuiltinArithEq);
  Register(symbols, "=\\=", 2, BuiltinArithNeq);
  Register(symbols, "<", 2, BuiltinLess);
  Register(symbols, ">", 2, BuiltinGreater);
  Register(symbols, "=<", 2, BuiltinLessEq);
  Register(symbols, ">=", 2, BuiltinGreaterEq);
  Register(symbols, "functor", 3, BuiltinFunctor);
  Register(symbols, "arg", 3, BuiltinArg);
  Register(symbols, "=..", 2, BuiltinUniv);
  Register(symbols, "copy_term", 2, BuiltinCopyTerm);
  Register(symbols, "call", 1, BuiltinCall1);
  Register(symbols, "call", 2, BuiltinCall2);
  Register(symbols, "call", 3, BuiltinCall3);
  Register(symbols, "call", 4, BuiltinCall4);
  Register(symbols, "call", 5, BuiltinCall5);
  Register(symbols, "once", 1, BuiltinOnce);
  Register(symbols, "not", 1, BuiltinNot);
  Register(symbols, "findall", 3, BuiltinFindall);
  Register(symbols, "bagof", 3, BuiltinBagof);
  Register(symbols, "setof", 3, BuiltinSetof);
  Register(symbols, "sort", 2, BuiltinSort);
  Register(symbols, "msort", 2, BuiltinMsort);
  Register(symbols, "succ", 2, BuiltinSucc);
  Register(symbols, "atom_codes", 2, BuiltinAtomCodes);
  Register(symbols, "number_codes", 2, BuiltinNumberCodes);
  Register(symbols, "atom_length", 2, BuiltinAtomLength);
  Register(symbols, "atom_concat", 3, BuiltinAtomConcat);
  Register(symbols, "clause", 2, BuiltinClause);
  Register(symbols, "table_stats", 2, BuiltinTableStats);
  Register(symbols, "table_state", 2, BuiltinTableState);
  Register(symbols, "analyze", 1, BuiltinAnalyze);
  Register(symbols, "predicate_mode", 2, BuiltinPredicateMode);
  Register(symbols, "incremental", 1, BuiltinIncremental);
  Register(symbols, "abolish_table_call", 1, BuiltinAbolishTableCall);
  Register(symbols, "between", 3, BuiltinBetween);
  Register(symbols, "length", 2, BuiltinLength);
  Register(symbols, "assert", 1, BuiltinAssertz);
  Register(symbols, "assertz", 1, BuiltinAssertz);
  Register(symbols, "asserta", 1, BuiltinAsserta);
  Register(symbols, "retract", 1, BuiltinRetract);
  Register(symbols, "retractall", 1, BuiltinRetractAll);
  Register(symbols, "abolish", 1, BuiltinAbolish);
  Register(symbols, "write", 1, BuiltinWrite);
  Register(symbols, "print", 1, BuiltinPrint);
  Register(symbols, "writeln", 1, BuiltinWriteln);
  Register(symbols, "nl", 0, BuiltinNl);
}

void BuiltinRegistry::Register(SymbolTable* symbols, const char* name,
                               int arity, BuiltinFn fn) {
  FunctorId f = symbols->InternFunctor(symbols->InternAtom(name), arity);
  if (f >= table_.size()) table_.resize(f + 1, nullptr);
  table_[f] = fn;
}

}  // namespace xsb
