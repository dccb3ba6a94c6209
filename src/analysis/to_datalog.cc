#include "analysis/to_datalog.h"

#include <unordered_map>

#include "db/index.h"

namespace xsb::analysis {
namespace {

// Interns name/arity, rejecting the same name at two arities (the datalog
// side keys predicates by name alone).
class PredInterner {
 public:
  explicit PredInterner(datalog::DatalogProgram* out) : out_(out) {}

  Result<datalog::PredId> Intern(const std::string& name, int arity) {
    auto it = arity_of_.find(name);
    if (it != arity_of_.end() && it->second != arity) {
      return InvalidError("predicate " + name +
                          " used at two arities; outside the datalog subset");
    }
    arity_of_.emplace(name, arity);
    return out_->InternPred(name, arity);
  }

 private:
  datalog::DatalogProgram* out_;
  std::unordered_map<std::string, int> arity_of_;
};

class Translator {
 public:
  Translator(const Program& program, datalog::DatalogProgram* out)
      : symbols_(*program.symbols()), out_(out), interner_(out) {}

  Status AddClause(const Clause& clause);

 private:
  // Converts the goal at `pos` into a single literal (no control).
  Result<datalog::Literal> LiteralAt(const std::vector<Word>& cells,
                                     size_t pos, bool allow_vars);
  Status BodyAt(const std::vector<Word>& cells, size_t pos,
                std::vector<datalog::Literal>* body);

  SymbolTable& symbols_;
  datalog::DatalogProgram* out_;
  PredInterner interner_;
};

Result<datalog::Literal> Translator::LiteralAt(const std::vector<Word>& cells,
                                               size_t pos, bool allow_vars) {
  Word w = cells[pos];
  datalog::Literal literal;
  if (IsAtom(w)) {
    Result<datalog::PredId> pred =
        interner_.Intern(symbols_.AtomName(AtomOf(w)), 0);
    if (!pred.ok()) return pred.status();
    literal.pred = pred.value();
    return literal;
  }
  if (!IsFunctor(w)) {
    return InvalidError("non-callable in literal position");
  }
  FunctorId f = FunctorOf(w);
  int arity = symbols_.FunctorArity(f);
  Result<datalog::PredId> pred =
      interner_.Intern(symbols_.AtomName(symbols_.FunctorAtom(f)), arity);
  if (!pred.ok()) return pred.status();
  literal.pred = pred.value();
  literal.args.reserve(static_cast<size_t>(arity));
  size_t arg = pos + 1;
  for (int i = 0; i < arity; ++i) {
    Word a = cells[arg];
    if (IsLocal(a)) {
      if (!allow_vars) {
        return InvalidError("variable in a fact; outside the datalog subset");
      }
      literal.args.push_back(
          datalog::Arg::Var(static_cast<datalog::VarId>(PayloadOf(a))));
    } else if (IsAtom(a)) {
      literal.args.push_back(datalog::Arg::Const(
          out_->consts().Symbol(symbols_.AtomName(AtomOf(a)))));
    } else if (IsInt(a)) {
      literal.args.push_back(
          datalog::Arg::Const(out_->consts().Int(IntValue(a))));
    } else {
      return InvalidError(
          "compound argument; outside the datalog subset");
    }
    arg = SkipFlatSubterm(symbols_, cells, arg);
  }
  return literal;
}

Status Translator::BodyAt(const std::vector<Word>& cells, size_t pos,
                          std::vector<datalog::Literal>* body) {
  Word w = cells[pos];
  if (IsAtom(w)) {
    const std::string& name = symbols_.AtomName(AtomOf(w));
    if (name == "true") return Status::Ok();
    Result<datalog::Literal> literal =
        LiteralAt(cells, pos, /*allow_vars=*/true);
    if (!literal.ok()) return literal.status();
    body->push_back(std::move(literal.value()));
    return Status::Ok();
  }
  if (!IsFunctor(w)) {
    return InvalidError("non-callable body goal");
  }
  FunctorId f = FunctorOf(w);
  const std::string& name = symbols_.AtomName(symbols_.FunctorAtom(f));
  int arity = symbols_.FunctorArity(f);
  if (name == "," && arity == 2) {
    size_t left = pos + 1;
    size_t right = SkipFlatSubterm(symbols_, cells, left);
    Status s = BodyAt(cells, left, body);
    if (!s.ok()) return s;
    return BodyAt(cells, right, body);
  }
  if ((name == "\\+" || name == "tnot" || name == "e_tnot" ||
       name == "not") &&
      arity == 1) {
    Result<datalog::Literal> literal =
        LiteralAt(cells, pos + 1, /*allow_vars=*/true);
    if (!literal.ok()) return literal.status();
    literal.value().negated = true;
    body->push_back(std::move(literal.value()));
    return Status::Ok();
  }
  Result<datalog::Literal> literal =
      LiteralAt(cells, pos, /*allow_vars=*/true);
  if (!literal.ok()) return literal.status();
  body->push_back(std::move(literal.value()));
  return Status::Ok();
}

Status Translator::AddClause(const Clause& clause) {
  const std::vector<Word>& cells = clause.term.cells;
  if (!clause.is_rule) {
    if (clause.term.num_vars != 0) {
      return InvalidError("fact with variables; outside the datalog subset");
    }
    Result<datalog::Literal> fact =
        LiteralAt(cells, clause.head_pos, /*allow_vars=*/false);
    if (!fact.ok()) return fact.status();
    datalog::Tuple tuple;
    tuple.reserve(fact.value().args.size());
    for (const datalog::Arg& arg : fact.value().args) {
      tuple.push_back(arg.id);
    }
    out_->AddFact(fact.value().pred, std::move(tuple));
    return Status::Ok();
  }

  datalog::Rule rule;
  Result<datalog::Literal> head =
      LiteralAt(cells, clause.head_pos, /*allow_vars=*/true);
  if (!head.ok()) return head.status();
  rule.head = std::move(head.value());
  size_t body_pos = SkipFlatSubterm(symbols_, cells, clause.head_pos);
  Status s = BodyAt(cells, body_pos, &rule.body);
  if (!s.ok()) return s;
  rule.num_vars = clause.term.num_vars;
  out_->AddRule(std::move(rule));
  return Status::Ok();
}

}  // namespace

Status ToDatalog(const Program& program, datalog::DatalogProgram* out) {
  Translator translator(program, out);
  // Deterministic order: predicates by functor id.
  for (const auto& pred : program.predicates()) {
    if (pred == nullptr) continue;
    for (const Clause& clause : pred->clauses()) {
      if (clause.erased) continue;
      Status s = translator.AddClause(clause);
      if (!s.ok()) return s;
    }
  }
  return Status::Ok();
}

}  // namespace xsb::analysis
