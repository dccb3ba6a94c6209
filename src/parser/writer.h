#ifndef XSB_PARSER_WRITER_H_
#define XSB_PARSER_WRITER_H_

#include <string>

#include "parser/ops.h"
#include "term/flat.h"
#include "term/store.h"

namespace xsb {

struct WriteOptions {
  bool quoted = true;          // quote atoms that need it
  bool use_operators = true;   // print infix/prefix operators
  bool hilog_sugar = true;     // print apply(F,A,B) as F(A,B)
  int max_depth = 0;           // 0 = unlimited
};

// Renders `t` as readable (re-parsable) text.
std::string WriteTerm(const TermStore& store, const OpTable& ops, Word t,
                      const WriteOptions& options = WriteOptions());
// The same text, written over *out: a string with room for it already
// renders without allocating.
void WriteTermTo(const TermStore& store, const OpTable& ops, Word t,
                 std::string* out,
                 const WriteOptions& options = WriteOptions());

// Renders a flattened term (variables print as _0, _1, ...).
std::string WriteFlat(TermStore* scratch, const OpTable& ops,
                      const FlatTerm& flat,
                      const WriteOptions& options = WriteOptions());

}  // namespace xsb

#endif  // XSB_PARSER_WRITER_H_
