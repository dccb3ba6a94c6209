#include "db/loader.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "analysis/analyzer.h"
#include "parser/reader.h"

namespace xsb {

Result<FunctorId> Loader::ParsePredSpec(Word spec) {
  SymbolTable* symbols = store_->symbols();
  spec = store_->Deref(spec);
  FunctorId slash = symbols->InternFunctor(symbols->InternAtom("/"), 2);
  if (IsStruct(spec) && store_->StructFunctor(spec) == slash) {
    Word name = store_->Deref(store_->Arg(spec, 0));
    Word arity = store_->Deref(store_->Arg(spec, 1));
    if (IsAtom(name) && IsInt(arity) && IntValue(arity) >= 0) {
      return symbols->InternFunctor(AtomOf(name),
                                    static_cast<int>(IntValue(arity)));
    }
  }
  return InvalidError("expected a Name/Arity predicate specification");
}

Status Loader::ForEachPredSpec(Word spec,
                               const std::function<Status(FunctorId)>& fn) {
  SymbolTable* symbols = store_->symbols();
  spec = store_->Deref(spec);
  // Allow conjunctions and lists of specs.
  FunctorId comma = symbols->InternFunctor(symbols->comma(), 2);
  FunctorId cons = symbols->cons();
  if (IsStruct(spec)) {
    FunctorId f = store_->StructFunctor(spec);
    if (f == comma || f == cons) {
      Status s = ForEachPredSpec(store_->Arg(spec, 0), fn);
      if (!s.ok()) return s;
      Word rest = store_->Deref(store_->Arg(spec, 1));
      if (IsAtom(rest) && AtomOf(rest) == symbols->nil()) return Status::Ok();
      return ForEachPredSpec(rest, fn);
    }
  }
  Result<FunctorId> functor = ParsePredSpec(spec);
  if (!functor.ok()) return functor.status();
  return fn(functor.value());
}

Status Loader::HandleTableSpec(Word spec) {
  SymbolTable* symbols = store_->symbols();
  spec = store_->Deref(spec);
  // Conjunctions and lists mix freely; each element is either Name/Arity or
  // an answer-subsumption template like `p(_, min)`.
  FunctorId comma = symbols->InternFunctor(symbols->comma(), 2);
  FunctorId cons = symbols->cons();
  if (IsStruct(spec)) {
    FunctorId f = store_->StructFunctor(spec);
    if (f == comma || f == cons) {
      Status s = HandleTableSpec(store_->Arg(spec, 0));
      if (!s.ok()) return s;
      Word rest = store_->Deref(store_->Arg(spec, 1));
      if (IsAtom(rest) && AtomOf(rest) == symbols->nil()) return Status::Ok();
      return HandleTableSpec(rest);
    }
  }
  Result<FunctorId> functor = ParsePredSpec(spec);
  if (functor.ok()) return program_->DeclareTabled(functor.value());
  return ParseSubsumptionSpec(spec);
}

// `:- table p(_, min).` — each argument of the template is `_` (tabled as
// usual), `min`/`max` (keep the lattice-best integer answer per key), or
// `first(N)` (keep at most N answers per key, insertion order).
Status Loader::ParseSubsumptionSpec(Word spec) {
  SymbolTable* symbols = store_->symbols();
  spec = store_->Deref(spec);
  if (!IsStruct(spec)) {
    return InvalidError(
        "expected Name/Arity or an answer-subsumption template like "
        "p(_, min) in :- table");
  }
  FunctorId functor = store_->StructFunctor(spec);
  int arity = symbols->FunctorArity(functor);
  FunctorId first1 = symbols->InternFunctor(symbols->InternAtom("first"), 1);
  TableSpec table_spec;
  table_spec.args.resize(arity);
  bool has_agg = false;
  for (int i = 0; i < arity; ++i) {
    Word arg = store_->Deref(store_->Arg(spec, i));
    if (IsRef(arg)) continue;  // `_`: plain argument
    TableSpec::Arg& out = table_spec.args[i];
    if (IsAtom(arg)) {
      const std::string& name = symbols->AtomName(AtomOf(arg));
      if (name == "min") {
        out.agg = TableSpec::Agg::kMin;
      } else if (name == "max") {
        out.agg = TableSpec::Agg::kMax;
      } else {
        return InvalidError("unknown table lattice '" + name +
                            "' (expected min, max, or first(N))");
      }
    } else if (IsStruct(arg) && store_->StructFunctor(arg) == first1) {
      Word n = store_->Deref(store_->Arg(arg, 0));
      if (!IsInt(n) || IntValue(n) < 0) {
        return InvalidError("first(N) requires a non-negative integer N");
      }
      out.agg = TableSpec::Agg::kFirst;
      out.n = IntValue(n);
    } else {
      return InvalidError(
          "table spec arguments must be _, min, max, or first(N)");
    }
    has_agg = true;
  }
  if (!has_agg) return program_->DeclareTabled(functor);
  return program_->DeclareTabledSubsumptive(functor, std::move(table_spec));
}

Status Loader::HandleDiscontiguousSpec(Word spec) {
  return ForEachPredSpec(spec, [this](FunctorId f) {
    program_->LookupOrCreate(f)->set_discontiguous_ok(true);
    return Status::Ok();
  });
}

Status Loader::HandleIndexSpec(Word pred_spec, Word index_spec) {
  SymbolTable* symbols = store_->symbols();
  Result<FunctorId> functor = ParsePredSpec(pred_spec);
  if (!functor.ok()) return functor.status();
  index_spec = store_->Deref(index_spec);

  // `:- index(p/2, trie)` selects first-string indexing.
  if (IsAtom(index_spec) &&
      symbols->AtomName(AtomOf(index_spec)) == "trie") {
    return program_->DeclareFirstString(functor.value());
  }
  // `:- index(p/2, 0)` disables indexing.
  if (IsInt(index_spec) && IntValue(index_spec) == 0) {
    Predicate* pred = program_->LookupOrCreate(functor.value());
    pred->SetNoIndex();
    return Status::Ok();
  }
  // `:- index(p/2, K)` or `:- index(p/5, [1, 2, 3+5])`.
  std::vector<std::vector<int>> field_sets;
  auto parse_field_set = [&](Word w) -> Status {
    std::vector<int> fields;
    FunctorId plus = symbols->InternFunctor(symbols->InternAtom("+"), 2);
    // A field set is K or K1+K2(+K3); '+' is left associative.
    std::vector<Word> work{store_->Deref(w)};
    while (!work.empty()) {
      Word x = store_->Deref(work.back());
      work.pop_back();
      if (IsInt(x)) {
        fields.push_back(static_cast<int>(IntValue(x)));
      } else if (IsStruct(x) && store_->StructFunctor(x) == plus) {
        work.push_back(store_->Arg(x, 1));
        work.push_back(store_->Arg(x, 0));
      } else {
        return InvalidError("bad index field specification");
      }
    }
    field_sets.push_back(std::move(fields));
    return Status::Ok();
  };

  if (IsInt(index_spec)) {
    Status s = parse_field_set(index_spec);
    if (!s.ok()) return s;
  } else {
    FunctorId cons = symbols->cons();
    Word cur = index_spec;
    while (true) {
      cur = store_->Deref(cur);
      if (IsAtom(cur) && AtomOf(cur) == symbols->nil()) break;
      if (!IsStruct(cur) || store_->StructFunctor(cur) != cons) {
        return InvalidError("index spec must be an integer or a list");
      }
      Status s = parse_field_set(store_->Arg(cur, 0));
      if (!s.ok()) return s;
      cur = store_->Arg(cur, 1);
    }
  }
  return program_->DeclareIndex(functor.value(), std::move(field_sets));
}

Status Loader::HandleDirective(Word directive) {
  SymbolTable* symbols = store_->symbols();
  directive = store_->Deref(directive);
  if (IsAtom(directive)) {
    const std::string& name = symbols->AtomName(AtomOf(directive));
    if (name == "auto_table" || name == "table_all") {
      auto_table_requested_ = true;
      return Status::Ok();
    }
    return InvalidError("unsupported directive: " + name);
  }
  if (!IsStruct(directive)) return InvalidError("bad directive");

  FunctorId f = store_->StructFunctor(directive);
  const std::string& name = symbols->AtomName(symbols->FunctorAtom(f));
  int arity = symbols->FunctorArity(f);

  if (name == "table" && arity == 1) {
    return HandleTableSpec(store_->Arg(directive, 0));
  }
  if (name == "hilog" && arity >= 1) {
    // `:- hilog h.` possibly with a conjunction of atoms.
    std::vector<Word> work{store_->Arg(directive, 0)};
    FunctorId comma = symbols->InternFunctor(symbols->comma(), 2);
    while (!work.empty()) {
      Word x = store_->Deref(work.back());
      work.pop_back();
      if (IsAtom(x)) {
        Status s = program_->DeclareHilog(AtomOf(x));
        if (!s.ok()) return s;
      } else if (IsStruct(x) && store_->StructFunctor(x) == comma) {
        work.push_back(store_->Arg(x, 1));
        work.push_back(store_->Arg(x, 0));
      } else {
        return InvalidError("hilog directive expects atoms");
      }
    }
    return Status::Ok();
  }
  if (name == "index" && arity == 2) {
    return HandleIndexSpec(store_->Arg(directive, 0),
                           store_->Arg(directive, 1));
  }
  if (name == "dynamic" && arity == 1) {
    return ForEachPredSpec(store_->Arg(directive, 0), [this](FunctorId f) {
      Predicate* pred = program_->LookupOrCreate(f);
      pred->set_dynamic(true);
      pred->set_declared(true);
      return Status::Ok();
    });
  }
  if (name == "incremental" && arity == 1) {
    return ForEachPredSpec(store_->Arg(directive, 0), [this](FunctorId f) {
      return program_->DeclareIncremental(f);
    });
  }
  if (name == "discontiguous" && arity == 1) {
    return HandleDiscontiguousSpec(store_->Arg(directive, 0));
  }
  if (name == "module" && arity >= 1) {
    Word module = store_->Deref(store_->Arg(directive, 0));
    if (!IsAtom(module)) return InvalidError("module name must be an atom");
    program_->set_current_module(AtomOf(module));
    return Status::Ok();
  }
  if (name == "import" || name == "export") {
    return Status::Ok();  // accepted for compatibility; names are global
  }
  if (name == "op" && arity == 3) {
    Word priority = store_->Deref(store_->Arg(directive, 0));
    Word type = store_->Deref(store_->Arg(directive, 1));
    Word op_name = store_->Deref(store_->Arg(directive, 2));
    if (!IsInt(priority) || !IsAtom(type) || !IsAtom(op_name)) {
      return InvalidError("op/3 expects (Priority, Type, Name)");
    }
    int64_t p = IntValue(priority);
    if (p < 1 || p > 1200) return InvalidError("op/3: priority out of range");
    const std::string& type_name = symbols->AtomName(AtomOf(type));
    OpType op_type;
    if (type_name == "xfx") {
      op_type = OpType::kXfx;
    } else if (type_name == "xfy") {
      op_type = OpType::kXfy;
    } else if (type_name == "yfx") {
      op_type = OpType::kYfx;
    } else if (type_name == "fy") {
      op_type = OpType::kFy;
    } else if (type_name == "fx") {
      op_type = OpType::kFx;
    } else {
      return InvalidError("op/3: unsupported operator type " + type_name);
    }
    program_->ops()->Add(static_cast<int>(p), op_type, AtomOf(op_name));
    return Status::Ok();
  }
  return InvalidError("unsupported directive: " + name + "/" +
                      std::to_string(arity));
}

Status Loader::ConsultString(std::string_view text) {
  SymbolTable* symbols = store_->symbols();
  Reader reader(store_, program_->ops(), text, program_->hilog_atoms());
  AtomId eof = symbols->InternAtom("end_of_file");
  FunctorId neck1 = symbols->InternFunctor(symbols->neck(), 1);

  if (source_name_.empty()) {
    source_name_ = "<consult-" + std::to_string(program_->NextConsultId()) +
                   ">";
  }
  AtomId file = symbols->InternAtom(source_name_);

  while (!reader.AtEof()) {
    Result<Word> clause = reader.ReadClause();
    if (!clause.ok()) return clause.status();
    Word t = store_->Deref(clause.value());
    if (IsAtom(t) && AtomOf(t) == eof) break;
    if (IsStruct(t) && store_->StructFunctor(t) == neck1) {
      Status s = HandleDirective(store_->Arg(t, 0));
      if (!s.ok()) return s;
      continue;
    }
    // Track the defined predicate: the unit's scope for :- auto_table. and
    // the cut check.
    Word head = t;
    FunctorId neck2 = symbols->InternFunctor(symbols->neck(), 2);
    if (IsStruct(t) && store_->StructFunctor(t) == neck2) {
      head = store_->Deref(store_->Arg(t, 0));
    }
    std::optional<FunctorId> functor =
        Program::CallableFunctor(*store_, head);
    if (functor.has_value()) {
      if (defined_.empty() || defined_.back() != *functor) {
        defined_.push_back(*functor);
      }
      // L001: a named variable (not '_'-prefixed) occurring exactly once.
      // Collected here because variable names do not survive flattening.
      for (const Reader::VarInfo& info : reader.var_infos()) {
        if (info.occurrences != 1 || info.name[0] == '_') continue;
        program_->AddConsultLint(analysis::Diagnostic{
            analysis::DiagCode::kSingletonVar, analysis::Severity::kWarning,
            *functor, "singleton variable " + info.name,
            SourceSpan{file, info.line, info.column}});
      }
    }
    SourceSpan span{file, reader.clause_line(), reader.clause_column()};
    Status s = program_->AddClauseTerm(*store_, t, /*front=*/false, span);
    if (!s.ok()) return s;
  }
  std::sort(defined_.begin(), defined_.end());
  defined_.erase(std::unique(defined_.begin(), defined_.end()),
                 defined_.end());
  return RunAnalysis();
}

Status Loader::RunAnalysis() {
  if (auto_table_requested_) {
    // :- auto_table. applies the advisor's suggestions, restricted to the
    // predicates this consult unit defined; then the analysis re-runs so the
    // published diagnostics describe the final program.
    analysis::AnalyzeOptions options;
    options.structure_only = true;
    analysis::ApplyTableSuggestions(
        program_, analysis::Analyze(*program_, options), defined_);
    auto_table_requested_ = false;
  }
  analysis::AnalysisResult result = analysis::AnalyzeAndPublish(program_);
  // Section 4.4: no cut in this unit's clauses may close over a table.
  for (const analysis::Diagnostic& diagnostic : result.diagnostics) {
    if (diagnostic.code == analysis::DiagCode::kCutOverTable &&
        std::binary_search(defined_.begin(), defined_.end(),
                           diagnostic.functor)) {
      return PermissionError(diagnostic.message);
    }
  }
  if (strict_) {
    for (const analysis::Diagnostic& diagnostic : result.diagnostics) {
      if (diagnostic.severity == analysis::Severity::kError) {
        return StratificationError(
            FormatDiagnostic(*program_->symbols(), diagnostic));
      }
    }
  }
  program_->SetAnalysisDiagnostics(std::move(result.diagnostics));
  return Status::Ok();
}

Status Loader::ConsultFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (source_name_.empty()) source_name_ = path;
  return ConsultString(buffer.str());
}

Result<size_t> Loader::LoadFactsFormatted(std::istream& in,
                                          const std::string& name,
                                          int arity) {
  SymbolTable* symbols = store_->symbols();
  FunctorId functor = symbols->InternFunctor(symbols->InternAtom(name), arity);
  Predicate* pred = program_->LookupOrCreate(functor);

  size_t count = 0;
  std::string line;
  std::vector<Word> cells;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    cells.clear();
    cells.push_back(FunctorCell(functor));
    size_t pos = 0;
    int fields = 0;
    while (pos <= line.size() && fields < arity) {
      size_t next = line.find(',', pos);
      if (next == std::string::npos) next = line.size();
      std::string_view field(line.data() + pos, next - pos);
      if (field.empty()) {
        return InvalidError("empty field in formatted input: " + line);
      }
      bool numeric = true;
      size_t start = field[0] == '-' ? 1 : 0;
      if (start == field.size()) numeric = false;
      for (size_t i = start; i < field.size(); ++i) {
        if (field[i] < '0' || field[i] > '9') {
          numeric = false;
          break;
        }
      }
      if (numeric) {
        int64_t v = 0;
        bool negative = field[0] == '-';
        for (size_t i = start; i < field.size(); ++i) {
          v = v * 10 + (field[i] - '0');
        }
        cells.push_back(IntCell(negative ? -v : v));
      } else {
        cells.push_back(AtomCell(symbols->InternAtom(field)));
      }
      ++fields;
      pos = next + 1;
    }
    if (fields != arity) {
      return InvalidError("wrong field count in formatted input: " + line);
    }
    Clause clause;
    clause.term.cells = cells;
    clause.term.num_vars = 0;
    pred->AddClause(*symbols, std::move(clause), /*front=*/false);
    ++count;
  }
  return count;
}

Result<size_t> Loader::LoadFactsFormattedFile(const std::string& path,
                                              const std::string& name,
                                              int arity) {
  std::ifstream in(path);
  if (!in) return IoError("cannot open " + path);
  return LoadFactsFormatted(in, name, arity);
}

}  // namespace xsb
