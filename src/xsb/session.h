#ifndef XSB_XSB_SESSION_H_
#define XSB_XSB_SESSION_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "db/program.h"
#include "engine/machine.h"
#include "tabling/evaluator.h"
#include "tabling/table_space.h"
#include "term/store.h"

namespace xsb {

// One answer to a query: the query's named variables with their bindings
// rendered as readable terms.
struct Answer {
  std::vector<std::pair<std::string, std::string>> bindings;

  // The binding of `variable`, or "" if absent.
  std::string operator[](std::string_view variable) const;
  std::string ToString() const;  // "X = 1, Y = f(a)"
};

// What every session of one engine shares: the symbols, the program and the
// table space. `shared_tables` selects the table space's concurrent mode
// (QueryService); see TableSpace.
struct Database {
  explicit Database(bool shared_tables)
      : program(&symbols), tables(&symbols, shared_tables) {}
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  SymbolTable symbols;
  Program program;
  TableSpace tables;
};

// One single-threaded evaluation context over a Database: a private term
// heap, the SLD machine and the SLG evaluator. Run() is the only query path:
// parse, solve, render. It reclaims everything a query allocates — the
// parsed goal and its heap, the goal arena (rewound; its chunks are kept for
// the next query) and clause/2 answer sources — when the outermost query on
// the session ends. Retired answer tables are
// the owner's to release (Engine after each outermost query, QueryService
// workers outside their epoch guard).
class Session {
 public:
  // Receives each answer; returns false to stop the enumeration.
  using AnswerFn = std::function<bool(Answer&&)>;

  Session(Database* db, Evaluator::Options options);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Parses `goal` and enumerates its answers. Re-entrant: an answer
  // callback may run further queries on the same session.
  Status Run(std::string_view goal, const AnswerFn& on_answer);

  // True when no query is running on this session.
  bool idle() const { return depth_ == 0; }

  TermStore& store() { return store_; }
  Machine& machine() { return machine_; }
  Evaluator& evaluator() { return evaluator_; }

 private:
  Status ParseAndSolve(std::string_view goal, const AnswerFn& on_answer);

  TermStore store_;
  Machine machine_;
  Evaluator evaluator_;
  int depth_ = 0;  // nested Run calls
};

}  // namespace xsb

#endif  // XSB_XSB_SESSION_H_
