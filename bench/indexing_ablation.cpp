// Ablation A1 (DESIGN.md): the section 4.5 clause-indexing machinery. Clause
// access with no index vs first-argument hash vs first-string trie, on a
// relation keyed by compound terms (where the trie discriminates below the
// outer symbol and hashing cannot). The answer-table half of the ablation,
// hash set vs answer trie, is recorded in BENCH_interning.json.

#include <string>

#include "bench/bench_util.h"
#include "xsb/engine.h"

namespace {

std::string CompoundFacts(int n) {
  // p(g(K), f(I)) with K in 0..49: hashing on arg 1 buckets by g/1 only
  // (all clauses collide); the first string g K f I discriminates fully.
  std::string text;
  for (int i = 0; i < n; ++i) {
    text += "p(g(" + std::to_string(i % 50) + "),f(" + std::to_string(i) +
            ")).\n";
  }
  return text;
}

double TimeLookups(const std::string& index_directive, int n) {
  xsb::Engine engine;
  std::string program = CompoundFacts(n) + index_directive +
                        "probe(K, V) :- p(g(K), f(V)).\n"
                        "drive(I) :- I >= 0, K is I mod 50, probe(K, _), "
                        "J is I - 1, drive(J).\n"
                        "drive(I) :- I < 0.\n";
  if (!engine.ConsultString(program).ok()) std::abort();
  return xsb::bench::TimeBest([&]() {
    auto r = engine.Holds("drive(2000)");
    if (!r.ok() || !r.value()) std::abort();
  });
}

}  // namespace

int main() {
  using xsb::bench::Fmt;
  using xsb::bench::FmtMs;
  using xsb::bench::PrintHeader;
  using xsb::bench::PrintRow;

  PrintHeader("clause indexing: 2000 bound probes into p/2 (compound keys)");
  PrintRow("facts", {"no index", "hash arg1", "first-string"}, 14, 14);
  for (int n : {500, 2000, 8000}) {
    double none = TimeLookups(":- index(p/2, 0).\n", n);
    double hash = TimeLookups("", n);  // default first-arg hash
    double trie = TimeLookups(":- index(p/2, trie).\n", n);
    PrintRow(std::to_string(n),
             {FmtMs(none), FmtMs(hash), FmtMs(trie)}, 14, 14);
  }
  std::printf(
      "hash on arg 1 keys only the outer symbol g/1 here (all clauses in\n"
      "one bucket); the first-string trie discriminates inside the term.\n");
  return 0;
}
