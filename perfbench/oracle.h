// The answer oracle: the benchmark computes every expected answer itself,
// independently of the engine, and compares rendered answers against it.
#ifndef XSB_PERFBENCH_ORACLE_H_
#define XSB_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

// A directed graph over int64 labels.
class Digraph {
 public:
  void AddEdge(int64_t from, int64_t to) { out_[from].push_back(to); }
  void RemoveEdge(int64_t from, int64_t to);
  const std::vector<int64_t>& Successors(int64_t node) const;
  // Nodes reachable from `source` in one or more steps (BFS), sorted.
  std::vector<int64_t> Reachable(int64_t source) const;

 private:
  std::unordered_map<int64_t, std::vector<int64_t>> out_;
};

// The grammar shape's token kinds; tok(I, Kind, I+1) facts.
enum class Tok : uint8_t { kNum, kPlus, kTimes, kLp, kRp };
const char* TokName(Tok tok);

// A random well-formed expression of about `length` tokens: sums of
// products of numbers and parenthesized subexpressions.
std::vector<Tok> RandomExpression(uint64_t seed, size_t length);

// DP recognizer for
//   expr -> expr + term | term      term -> term * factor | factor
//   factor -> num | ( expr )
// returning every K such that tokens [0, K) form an expr, sorted.
std::vector<int64_t> ExprEnds(const std::vector<Tok>& tokens);

// Sorted comparison of rendered integer answers against the oracle.
bool SameIntSet(const std::vector<std::string>& rendered,
                std::vector<int64_t> expected);

// An order-independent digest of a set of rendered answers: how many there
// are and the sum of a 64-bit hash of each text. Comparing a result's digest
// with one computed from the oracle beforehand needs no copy, parse or sort,
// so a client thread that checks every answer spends little time on it.
struct AnswerDigest {
  uint64_t count = 0;
  uint64_t sum = 0;
  void Add(std::string_view rendered);
  bool operator==(const AnswerDigest&) const = default;
};

// The digest of integers rendered in decimal, as the engine writes them.
AnswerDigest DigestOfInts(const std::vector<int64_t>& values);

}  // namespace perfbench

#endif  // XSB_PERFBENCH_ORACLE_H_
