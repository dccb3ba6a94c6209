#include "xsb/session.h"

#include "parser/reader.h"
#include "parser/writer.h"

namespace xsb {

std::string Answer::operator[](std::string_view variable) const {
  for (const auto& [name, value] : bindings) {
    if (name == variable) return value;
  }
  return std::string();
}

std::string Answer::ToString() const {
  if (bindings.empty()) return "true";
  std::string out;
  for (size_t i = 0; i < bindings.size(); ++i) {
    if (i > 0) out += ", ";
    out += bindings[i].first + " = " + bindings[i].second;
  }
  return out;
}

Session::Session(Database* db, Evaluator::Options options)
    : store_(&db->symbols),
      machine_(&store_, &db->program),
      evaluator_(&machine_, &db->tables, options) {}

Status Session::Run(std::string_view goal, const AnswerFn& on_answer) {
  // Marks come before parsing, so the parsed goal is reclaimed too.
  size_t trail = store_.TrailMark();
  size_t heap = store_.HeapMark();
  ++depth_;
  Status status = ParseAndSolve(goal, on_answer);
  --depth_;
  store_.UndoTrail(trail);
  store_.TruncateHeap(heap);
  // Goal nodes may back choice points of an enclosing query, so only the
  // outermost query rewinds the arena.
  if (depth_ == 0) machine_.ResetArena();
  return status;
}

Status Session::ParseAndSolve(std::string_view goal,
                              const AnswerFn& on_answer) {
  std::string buffer(goal);
  buffer += " .";
  Program* program = machine_.program();
  Reader reader(&store_, program->ops(), buffer, program->hilog_atoms());
  Result<Word> parsed = reader.ReadClause();
  if (!parsed.ok()) return parsed.status();
  const auto& names = reader.var_names();
  // One Answer serves every solution: its vector and strings are rendered
  // over in place, so an answer allocates only what outgrows the previous
  // one. A callee that moves the answer away leaves it empty; it is then
  // rebuilt.
  Answer answer;
  return machine_.Solve(parsed.value(), [&]() {
    answer.bindings.resize(names.size());
    for (size_t i = 0; i < names.size(); ++i) {
      auto& [name, value] = answer.bindings[i];
      name = names[i].first;
      WriteTermTo(store_, *program->ops(), names[i].second, &value);
    }
    return on_answer(std::move(answer)) ? SolveAction::kContinue
                                        : SolveAction::kStop;
  });
}

}  // namespace xsb
