#include "oracle.h"

#include <algorithm>
#include <charconv>
#include <deque>
#include <functional>
#include <unordered_set>

#include "common.h"

namespace perfbench {

void Digraph::RemoveEdge(int64_t from, int64_t to) {
  auto it = out_.find(from);
  if (it == out_.end()) return;
  std::vector<int64_t>& succ = it->second;
  auto pos = std::find(succ.begin(), succ.end(), to);
  if (pos != succ.end()) succ.erase(pos);
}

const std::vector<int64_t>& Digraph::Successors(int64_t node) const {
  static const std::vector<int64_t> kNone;
  auto it = out_.find(node);
  return it == out_.end() ? kNone : it->second;
}

std::vector<int64_t> Digraph::Reachable(int64_t source) const {
  std::unordered_set<int64_t> seen;
  std::deque<int64_t> queue{source};
  std::vector<int64_t> reached;
  while (!queue.empty()) {
    int64_t node = queue.front();
    queue.pop_front();
    for (int64_t next : Successors(node)) {
      if (seen.insert(next).second) {
        reached.push_back(next);
        queue.push_back(next);
      }
    }
  }
  std::sort(reached.begin(), reached.end());
  return reached;
}

const char* TokName(Tok tok) {
  switch (tok) {
    case Tok::kNum: return "num";
    case Tok::kPlus: return "plus";
    case Tok::kTimes: return "times";
    case Tok::kLp: return "lp";
    case Tok::kRp: return "rp";
  }
  return "?";
}

namespace {

// Appends a random expression of roughly `budget` tokens.
void GenExpr(Rng* rng, int depth, size_t budget, std::vector<Tok>* out);

void GenFactor(Rng* rng, int depth, size_t budget, std::vector<Tok>* out) {
  if (budget >= 6 && depth < 6 && rng->Below(4) == 0) {
    out->push_back(Tok::kLp);
    GenExpr(rng, depth + 1, budget - 2, out);
    out->push_back(Tok::kRp);
  } else {
    out->push_back(Tok::kNum);
  }
}

void GenExpr(Rng* rng, int depth, size_t budget, std::vector<Tok>* out) {
  size_t start = out->size();
  bool first = true;
  while (first || out->size() - start + 2 <= budget) {
    if (!first) out->push_back(rng->Below(2) == 0 ? Tok::kPlus : Tok::kTimes);
    first = false;
    size_t used = out->size() - start;
    size_t left = budget > used ? budget - used : 1;
    GenFactor(rng, depth, std::min<size_t>(left, 1 + rng->Below(12)), out);
  }
}

}  // namespace

std::vector<Tok> RandomExpression(uint64_t seed, size_t length) {
  Rng rng(seed);
  std::vector<Tok> tokens;
  GenExpr(&rng, 0, length, &tokens);
  return tokens;
}

std::vector<int64_t> ExprEnds(const std::vector<Tok>& tokens) {
  const size_t n = tokens.size();
  auto tok_at = [&](size_t i, Tok kind) {
    return i < n && tokens[i] == kind;
  };
  // Memoized end sets per start position, computed on demand (the same
  // subgoals the tabled grammar creates). Each closure is a small worklist
  // fixpoint over its left-recursive rule.
  std::vector<std::vector<int64_t>> expr_memo(n + 1), term_memo(n + 1);
  std::vector<uint8_t> expr_done(n + 1, 0), term_done(n + 1, 0);
  std::function<std::vector<int64_t>(size_t)> factor, term, expr;
  factor = [&](size_t i) {
    std::vector<int64_t> ends;
    if (tok_at(i, Tok::kNum)) ends.push_back(static_cast<int64_t>(i) + 1);
    if (tok_at(i, Tok::kLp)) {
      for (int64_t j : expr(i + 1)) {
        if (tok_at(static_cast<size_t>(j), Tok::kRp)) ends.push_back(j + 1);
      }
    }
    return ends;
  };
  // Left-recursive closure: start from base(i); every end j followed by
  // `op` extends by step(j + 1).
  auto closure = [&](Tok op, const std::vector<int64_t>& base,
                     const std::function<std::vector<int64_t>(size_t)>& step) {
    std::unordered_set<int64_t> seen(base.begin(), base.end());
    std::vector<int64_t> work(base.begin(), base.end());
    std::vector<int64_t> all(base.begin(), base.end());
    while (!work.empty()) {
      int64_t j = work.back();
      work.pop_back();
      if (!tok_at(static_cast<size_t>(j), op)) continue;
      for (int64_t k : step(static_cast<size_t>(j) + 1)) {
        if (seen.insert(k).second) {
          work.push_back(k);
          all.push_back(k);
        }
      }
    }
    std::sort(all.begin(), all.end());
    return all;
  };
  term = [&](size_t i) {
    if (i > n) return std::vector<int64_t>();
    if (!term_done[i]) {
      term_memo[i] = closure(Tok::kTimes, factor(i), factor);
      term_done[i] = 1;
    }
    return term_memo[i];
  };
  expr = [&](size_t i) {
    if (i > n) return std::vector<int64_t>();
    if (!expr_done[i]) {
      expr_memo[i] = closure(Tok::kPlus, term(i), term);
      expr_done[i] = 1;
    }
    return expr_memo[i];
  };
  return expr(0);
}

namespace {

// Parses rendered integer answers; false if any is not an integer.
bool ParseInts(const std::vector<std::string>& rendered,
               std::vector<int64_t>* out) {
  out->clear();
  out->reserve(rendered.size());
  for (const std::string& text : rendered) {
    int64_t value = 0;
    const char* end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end) return false;
    out->push_back(value);
  }
  return true;
}

}  // namespace

bool SameIntSet(const std::vector<std::string>& rendered,
                std::vector<int64_t> expected) {
  std::vector<int64_t> got;
  if (!ParseInts(rendered, &got)) return false;
  std::sort(got.begin(), got.end());
  std::sort(expected.begin(), expected.end());
  return got == expected;
}

void AnswerDigest::Add(std::string_view rendered) {
  // FNV-1a, then the splitmix64 finalizer so that the sum mixes well.
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : rendered) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  ++count;
  sum += h ^ (h >> 31);
}

AnswerDigest DigestOfInts(const std::vector<int64_t>& values) {
  AnswerDigest digest;
  for (int64_t value : values) digest.Add(std::to_string(value));
  return digest;
}

}  // namespace perfbench
