#include "db/program.h"

#include <algorithm>

namespace xsb {

ClauseId Predicate::AddClause(const SymbolTable& symbols, Clause clause,
                              bool front) {
  ++live_count_;
  ClauseId id = static_cast<ClauseId>(clauses_.size());
  clause.order = front ? -static_cast<int64_t>(all_.front().size()) - 1 : id;
  clauses_.push_back(std::move(clause));
  all_.Add(id, front);
  IndexClause(symbols, id, front);
  return id;
}

void Predicate::ClearClauses() {
  clauses_.clear();
  all_ = ClauseList();
  live_count_ = 0;
  first_arg_.reset();
  hash_indexes_.clear();
  trie_.reset();
}

void Predicate::EraseClause(ClauseId id) {
  if (!clauses_[id].erased) {
    clauses_[id].erased = true;
    --live_count_;
  }
  // Indexes keep the tombstoned id; retrieval filters on `erased`.
}

std::vector<Word> Predicate::KeysFor(const SymbolTable& symbols,
                                     const Clause& clause,
                                     const std::vector<int>& fields) const {
  std::vector<Word> keys;
  keys.reserve(fields.size());
  const std::vector<Word>& cells = clause.term.cells;
  for (int field : fields) {
    size_t pos =
        FlatArgPos(symbols, cells, clause.head_pos, field - 1);
    keys.push_back(FlatArgKey(cells, pos));
  }
  return keys;
}

void Predicate::IndexClause(const SymbolTable& symbols, ClauseId id,
                            bool front) {
  const Clause& clause = clauses_[id];
  int arity = symbols.FunctorArity(functor_);
  switch (index_kind_) {
    case IndexKind::kNone:
      return;
    case IndexKind::kFirstArg: {
      if (arity == 0) return;
      if (first_arg_ == nullptr) {
        first_arg_ = std::make_unique<ArgHashIndex>(1);
      }
      size_t pos = FlatArgPos(symbols, clause.term.cells, clause.head_pos, 0);
      first_arg_->Insert(id, FlatArgKey(clause.term.cells, pos), front);
      return;
    }
    case IndexKind::kMultiField: {
      for (size_t i = 0; i < field_sets_.size(); ++i) {
        if (hash_indexes_.size() <= i) {
          hash_indexes_.push_back(
              std::make_unique<CombinedHashIndex>(field_sets_[i]));
        }
        hash_indexes_[i]->Insert(id, KeysFor(symbols, clause, field_sets_[i]),
                                 front);
      }
      return;
    }
    case IndexKind::kFirstString: {
      if (trie_ == nullptr) trie_ = std::make_unique<FirstStringIndex>();
      trie_->Insert(id, symbols, clause.term.cells, clause.head_pos);
      return;
    }
  }
}

void Predicate::Reindex(const SymbolTable& symbols) {
  first_arg_.reset();
  hash_indexes_.clear();
  trie_.reset();
  for (ClauseId id : AllClauses()) {
    if (!clauses_[id].erased) IndexClause(symbols, id, /*front=*/false);
  }
}

void Predicate::SetHashIndex(const SymbolTable& symbols,
                             std::vector<std::vector<int>> field_sets) {
  if (field_sets.empty()) {
    SetNoIndex();
    return;
  }
  if (field_sets.size() == 1 && field_sets[0].size() == 1 &&
      field_sets[0][0] == 1) {
    index_kind_ = IndexKind::kFirstArg;
    field_sets_ = {{1}};
  } else {
    index_kind_ = IndexKind::kMultiField;
    field_sets_ = std::move(field_sets);
  }
  Reindex(symbols);
}

void Predicate::SetFirstStringIndex(const SymbolTable& symbols) {
  index_kind_ = IndexKind::kFirstString;
  Reindex(symbols);
}

void Predicate::SetNoIndex() {
  index_kind_ = IndexKind::kNone;
  first_arg_.reset();
  hash_indexes_.clear();
  trie_.reset();
}

CandidateView Predicate::Candidates(const TermStore& store, Word goal) const {
  goal = store.Deref(goal);
  auto key_of = [&](int arg) {
    Word a = store.Deref(store.Arg(goal, arg));
    if (IsRef(a)) return Word{0};
    return IsStruct(a) ? FunctorCell(store.StructFunctor(a)) : a;
  };
  switch (index_kind_) {
    case IndexKind::kNone:
      break;
    case IndexKind::kFirstArg: {
      if (first_arg_ == nullptr || !IsStruct(goal)) break;
      Word key = key_of(0);
      if (key == 0) break;
      return CandidateView(first_arg_->Lookup(key));
    }
    case IndexKind::kMultiField: {
      if (!IsStruct(goal)) break;
      // First declared index whose fields are all bound in the call wins,
      // mirroring ":- index(p/5,[1,2,3+5])" semantics from the paper.
      for (const auto& index : hash_indexes_) {
        Word keys[CombinedHashIndex::kMaxFields];
        size_t n = 0;
        for (int field : index->args()) {
          keys[n] = key_of(field - 1);
          if (keys[n] == 0) break;
          ++n;
        }
        if (n == index->args().size()) {
          return CandidateView(index->Lookup(keys));
        }
      }
      break;
    }
    case IndexKind::kFirstString: {
      if (trie_ == nullptr) break;
      std::vector<ClauseId> ids = trie_->Lookup(store, goal);
      if (!all_.front().empty()) {
        // The ids come sorted, which is clause order except for asserta'd
        // clauses: those go first, the newest first.
        std::sort(ids.begin(), ids.end(), [this](ClauseId a, ClauseId b) {
          return clauses_[a].order < clauses_[b].order;
        });
      }
      return CandidateView(std::move(ids));
    }
  }
  return AllClauses();
}

Predicate* Program::LookupOrCreate(FunctorId functor) {
  if (Predicate* found = Lookup(functor)) return found;
  if (functor >= predicates_.size()) predicates_.resize(functor + 1);
  predicates_[functor] = std::make_unique<Predicate>(functor, current_module_);
  return predicates_[functor].get();
}

std::optional<FunctorId> Program::CallableFunctor(const TermStore& store,
                                                  Word goal) {
  goal = store.Deref(goal);
  if (IsAtom(goal)) {
    return store.symbols()->InternFunctor(AtomOf(goal), 0);
  }
  if (IsStruct(goal)) return store.StructFunctor(goal);
  return std::nullopt;
}

Status Program::AddClauseTerm(const TermStore& store, Word clause_term,
                              bool front, SourceSpan span) {
  clause_term = store.Deref(clause_term);
  Clause clause;
  clause.term = Flatten(store, clause_term);
  clause.span = span;

  // Split H :- B.
  Word head = clause_term;
  if (IsStruct(clause_term)) {
    FunctorId f = store.StructFunctor(clause_term);
    if (symbols_->FunctorAtom(f) == symbols_->neck() &&
        symbols_->FunctorArity(f) == 2) {
      clause.is_rule = true;
      clause.head_pos = 1;  // cells[0] is the ':-' functor cell
      head = store.Deref(store.Arg(clause_term, 0));
    }
  }

  std::optional<FunctorId> functor = CallableFunctor(store, head);
  if (!functor.has_value()) {
    return TypeError("clause head is not callable");
  }
  Predicate* pred = LookupOrCreate(*functor);
  pred->AddClause(*symbols_, std::move(clause), front);
  BumpClauseEpoch();
  if (pred->incremental()) NotifyIncrementalUpdate(*functor);
  return Status::Ok();
}

Status Program::DeclareTabled(FunctorId functor) {
  Predicate* pred = LookupOrCreate(functor);
  pred->set_tabled(true);
  pred->set_declared(true);
  return Status::Ok();
}

Status Program::DeclareTabledSubsumptive(FunctorId functor, TableSpec spec) {
  int arity = symbols_->FunctorArity(functor);
  if (static_cast<int>(spec.args.size()) != arity) {
    return InvalidError("table spec arity does not match predicate arity");
  }
  spec.agg_pos = -1;
  for (size_t i = 0; i < spec.args.size(); ++i) {
    if (spec.args[i].agg == TableSpec::Agg::kAll) continue;
    if (spec.agg_pos >= 0) {
      return InvalidError(
          "table spec declares more than one aggregated argument");
    }
    if (spec.args[i].agg == TableSpec::Agg::kFirst && spec.args[i].n < 0) {
      return InvalidError("first(N) requires a non-negative N");
    }
    spec.agg_pos = static_cast<int>(i);
  }
  Predicate* pred = LookupOrCreate(functor);
  pred->set_tabled(true);
  pred->set_declared(true);
  pred->set_table_spec(
      std::make_unique<const TableSpec>(std::move(spec)));
  return Status::Ok();
}

Status Program::DeclareIncremental(FunctorId functor) {
  Predicate* pred = LookupOrCreate(functor);
  bool newly_incremental = !pred->incremental();
  pred->set_incremental(true);
  pred->set_dynamic(true);
  pred->set_declared(true);
  if (newly_incremental && update_listener_ != nullptr) {
    update_listener_->OnIncrementalDeclaration(functor);
  }
  return Status::Ok();
}

Status Program::DeclareHilog(AtomId atom) {
  hilog_atoms_.insert(atom);
  return Status::Ok();
}

Status Program::DeclareIndex(FunctorId functor,
                             std::vector<std::vector<int>> field_sets) {
  int arity = symbols_->FunctorArity(functor);
  for (const auto& fields : field_sets) {
    if (fields.empty() || fields.size() > CombinedHashIndex::kMaxFields) {
      return InvalidError("index field sets must have 1 to 3 fields");
    }
    for (int f : fields) {
      if (f < 1 || f > arity) {
        return InvalidError("index field out of range for predicate arity");
      }
    }
  }
  Predicate* pred = LookupOrCreate(functor);
  pred->SetHashIndex(*symbols_, std::move(field_sets));
  pred->set_declared(true);
  return Status::Ok();
}

Status Program::DeclareFirstString(FunctorId functor) {
  Predicate* pred = LookupOrCreate(functor);
  pred->SetFirstStringIndex(*symbols_);
  pred->set_declared(true);
  return Status::Ok();
}

}  // namespace xsb
