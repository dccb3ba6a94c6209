#include "hilog/hilog.h"

#include <map>
#include <vector>

namespace xsb::hilog {
namespace {

struct Specialization {
  FunctorId apply_functor;  // apply/N
  FunctorId inner_functor;  // f/k in functor position
  FunctorId specialized;    // 'apply$f/k' / (k + N - 1)
};

}  // namespace

Result<SpecializeStats> Specialize(TermStore* store, Program* program) {
  SymbolTable* symbols = store->symbols();
  SpecializeStats stats;
  AtomId apply_atom = symbols->apply();

  // 1. Identify specializable apply/N predicates: every live clause head has
  // a compound functor-position argument with one common outer symbol.
  std::map<FunctorId, Specialization> specs;
  for (const auto& pred : program->predicates()) {
    if (pred == nullptr) continue;
    FunctorId functor = pred->functor();
    if (symbols->FunctorAtom(functor) != apply_atom) continue;
    int arity = symbols->FunctorArity(functor);
    if (arity < 2 || pred->num_live_clauses() == 0) continue;
    bool ok = true;
    FunctorId common = 0;
    bool have_common = false;
    for (const Clause& clause : pred->clauses()) {
      if (clause.erased) continue;
      const std::vector<Word>& cells = clause.term.cells;
      // cells[head_pos] is the apply/N functor cell; the functor-position
      // argument starts right after it.
      Word first = cells[clause.head_pos + 1];
      if (!IsFunctor(first)) {
        ok = false;
        break;
      }
      if (!have_common) {
        common = FunctorOf(first);
        have_common = true;
      } else if (common != FunctorOf(first)) {
        ok = false;
        break;
      }
    }
    if (!ok || !have_common) continue;
    int k = symbols->FunctorArity(common);
    std::string name = "apply$" +
                       symbols->AtomName(symbols->FunctorAtom(common)) + "/" +
                       std::to_string(k);
    FunctorId specialized = symbols->InternFunctor(
        symbols->InternAtom(name), k + arity - 1);
    specs.emplace(functor,
                  Specialization{functor, common, specialized});
  }
  if (specs.empty()) return stats;

  // Builds 'apply$f'(T1..Tk, A1..An-1) from apply(f(T..), A..).
  auto specialize_call = [&](Word goal, const Specialization& sp) -> Word {
    Word inner = store->Deref(store->Arg(goal, 0));
    std::vector<Word> args;
    int k = symbols->FunctorArity(sp.inner_functor);
    for (int i = 0; i < k; ++i) args.push_back(store->Arg(inner, i));
    int n = symbols->FunctorArity(sp.apply_functor);
    for (int i = 1; i < n; ++i) args.push_back(store->Arg(goal, i));
    return store->MakeStruct(sp.specialized, args);
  };

  // Rewrites known HiLog calls in goal position.
  auto rewrite = [&](auto&& self, Word goal) -> Word {
    Word g = store->Deref(goal);
    if (!IsStruct(g)) return g;
    FunctorId f = store->StructFunctor(g);
    const std::string& name = symbols->AtomName(symbols->FunctorAtom(f));
    int arity = symbols->FunctorArity(f);
    auto rebuild2 = [&]() {
      Word a = self(self, store->Arg(g, 0));
      Word b = self(self, store->Arg(g, 1));
      return store->MakeStruct(f, {a, b});
    };
    if ((name == "," || name == ";" || name == "->") && arity == 2) {
      return rebuild2();
    }
    if ((name == "\\+" || name == "tnot" || name == "e_tnot" ||
         name == "once" || name == "call") &&
        arity == 1) {
      return store->MakeStruct(f, {self(self, store->Arg(g, 0))});
    }
    if ((name == "findall" || name == "tfindall") && arity == 3) {
      return store->MakeStruct(f, {store->Arg(g, 0),
                                   self(self, store->Arg(g, 1)),
                                   store->Arg(g, 2)});
    }
    auto it = specs.find(f);
    if (it != specs.end()) {
      Word inner = store->Deref(store->Arg(g, 0));
      if (IsStruct(inner) &&
          store->StructFunctor(inner) == it->second.inner_functor) {
        ++stats.calls_rewritten;
        return specialize_call(g, it->second);
      }
    }
    return g;
  };

  // 2. Rewrite every clause of every predicate.
  FunctorId neck2 = symbols->InternFunctor(symbols->neck(), 2);
  std::vector<std::pair<Predicate*, std::vector<Word>>> rebuilt;
  for (const auto& pred : program->predicates()) {
    if (pred == nullptr) continue;
    FunctorId functor = pred->functor();
    if (pred->num_live_clauses() == 0) continue;
    auto spec_it = specs.find(functor);
    std::vector<Word> new_clauses;
    bool changed = spec_it != specs.end();
    for (ClauseId id : pred->AllClauses()) {
      const Clause& clause = pred->clause(id);
      if (clause.erased) continue;
      Word term = Unflatten(store, clause.term);
      Word head = term;
      Word body = 0;
      if (clause.is_rule) {
        Word d = store->Deref(term);
        head = store->Deref(store->Arg(d, 0));
        body = store->Arg(d, 1);
      }
      if (spec_it != specs.end()) {
        head = specialize_call(head, spec_it->second);
      }
      Word new_term = head;
      if (clause.is_rule) {
        int before = stats.calls_rewritten;
        Word new_body = rewrite(rewrite, body);
        if (stats.calls_rewritten != before) changed = true;
        new_term = store->MakeStruct(neck2, {head, new_body});
      }
      new_clauses.push_back(new_term);
    }
    if (changed) rebuilt.emplace_back(pred.get(), std::move(new_clauses));
  }

  for (auto& [pred, clauses] : rebuilt) {
    pred->ClearClauses();
    for (Word clause : clauses) {
      Status s = program->AddClauseTerm(*store, clause);
      if (!s.ok()) return s;
    }
  }

  // 3. Bridges and tabling transfer.
  for (const auto& [functor, sp] : specs) {
    Predicate* apply_pred = program->Lookup(functor);
    int k = symbols->FunctorArity(sp.inner_functor);
    int n = symbols->FunctorArity(functor);
    std::vector<Word> inner_vars, all_args;
    for (int i = 0; i < k; ++i) inner_vars.push_back(store->MakeVar());
    Word inner = store->MakeStruct(sp.inner_functor, inner_vars);
    std::vector<Word> head_args{inner};
    all_args = inner_vars;
    for (int i = 1; i < n; ++i) {
      Word v = store->MakeVar();
      head_args.push_back(v);
      all_args.push_back(v);
    }
    Word head = store->MakeStruct(functor, head_args);
    Word body = store->MakeStruct(sp.specialized, all_args);
    Word bridge = store->MakeStruct(neck2, {head, body});
    Status s = program->AddClauseTerm(*store, bridge);
    if (!s.ok()) return s;
    if (apply_pred->tabled()) {
      program->LookupOrCreate(sp.specialized)->set_tabled(true);
      apply_pred->set_tabled(false);
    }
    ++stats.predicates_specialized;
  }
  return stats;
}

}  // namespace xsb::hilog
