// Section 4.6: bulk I/O paths. The paper reports the formatted read at
// about a millisecond per fact on a Sparc2 (including index maintenance) —
// "roughly equivalent to the data load times of other deductive database
// systems" — and object-file loading at about 12x faster than formatted
// read + assert. We compare all three load paths on a 100k-tuple relation:
//   1. the general reader (full HiLog parser + assert),
//   2. the formatted read,
//   3. binary object files.
// Then consult time against program shape, where the per-fact rows above
// cannot show it: N one-clause predicates calling each other in a cycle,
// and N predicates that each meta-call an unknown goal (`call(G)`, which
// the analyzer must assume reaches every predicate). Time per predicate
// should stay flat as N grows; a rising column is superlinear consult work.

#include <cstdio>
#include <fstream>
#include <string>

#include "bench/bench_util.h"
#include "xsb/engine.h"

int main() {
  using xsb::bench::Fmt;
  using xsb::bench::PrintHeader;
  using xsb::bench::PrintRow;

  constexpr int kTuples = 100000;

  // Prepare the three input files.
  std::string prolog_path = "/tmp/xsb_load_bench.P";
  std::string formatted_path = "/tmp/xsb_load_bench.dat";
  std::string object_path = "/tmp/xsb_load_bench.xob";
  {
    std::ofstream prolog(prolog_path);
    std::ofstream formatted(formatted_path);
    for (int i = 0; i < kTuples; ++i) {
      prolog << "rel(" << i << ",k" << (i % 977) << "," << (i * 7 % 10007)
             << ").\n";
      formatted << i << ",k" << (i % 977) << "," << (i * 7 % 10007) << "\n";
    }
  }
  {
    xsb::Engine engine;
    auto loaded = engine.LoadFactsFormattedFile(formatted_path, "rel", 3);
    if (!loaded.ok()) std::abort();
    if (!engine.SaveObjectFile(object_path).ok()) std::abort();
  }

  double general = xsb::bench::TimeOnce([&]() {
    xsb::Engine engine;
    if (!engine.ConsultFile(prolog_path).ok()) std::abort();
  });
  double formatted = xsb::bench::TimeOnce([&]() {
    xsb::Engine engine;
    auto loaded = engine.LoadFactsFormattedFile(formatted_path, "rel", 3);
    if (!loaded.ok() || loaded.value() != kTuples) std::abort();
  });
  double object = xsb::bench::TimeOnce([&]() {
    xsb::Engine engine;
    auto loaded = engine.LoadObjectFile(object_path);
    if (!loaded.ok() || loaded.value() != kTuples) std::abort();
  });

  PrintHeader("bulk loading a 100k-tuple relation (first-arg index built)");
  PrintRow("path", {"total ms", "us/fact", "speedup"}, 26, 12);
  PrintRow("general reader + assert",
           {Fmt(general * 1e3, 1), Fmt(general / kTuples * 1e6, 2), "1.0"},
           26, 12);
  PrintRow("formatted read",
           {Fmt(formatted * 1e3, 1), Fmt(formatted / kTuples * 1e6, 2),
            Fmt(general / formatted, 1)},
           26, 12);
  PrintRow("object file",
           {Fmt(object * 1e3, 1), Fmt(object / kTuples * 1e6, 2),
            Fmt(general / object, 1)},
           26, 12);
  std::printf("object file vs formatted read: %.1fx faster\n",
              formatted / object);

  std::printf(
      "\nPaper (Sparc2): formatted read ~1 ms/fact incl. index upkeep;\n"
      "object files ~12x faster than formatted read + assert. On modern\n"
      "hardware absolute times shrink; the ordering and the order-of-\n"
      "magnitude gap between parsing and binary loading are the shape.\n");

  // p0(X) :- p1(X). ... p{N-1}(X) :- p0(X).
  auto cycle = [](int n) {
    std::string text;
    for (int i = 0; i < n; ++i) {
      text += "p" + std::to_string(i) + "(X) :- p" +
              std::to_string((i + 1) % n) + "(X).\n";
    }
    return text;
  };
  // m0(G) :- call(G). ... m{N-1}(G) :- call(G).
  auto meta = [](int n) {
    std::string text;
    for (int i = 0; i < n; ++i) {
      text += "m" + std::to_string(i) + "(G) :- call(G).\n";
    }
    return text;
  };
  struct Shape {
    const char* label;
    int n;
    std::string text;
  };
  const Shape shapes[] = {
      {"cycle", 10000, cycle(10000)}, {"cycle", 50000, cycle(50000)},
      {"cycle", 200000, cycle(200000)}, {"meta-call", 1000, meta(1000)},
      {"meta-call", 4000, meta(4000)},
  };
  PrintHeader("consult time against program shape (one clause per predicate)");
  PrintRow("program", {"preds", "total ms", "us/pred"}, 26, 12);
  for (const Shape& shape : shapes) {
    double t = xsb::bench::TimeOnce([&]() {
      xsb::Engine engine;
      if (!engine.ConsultString(shape.text).ok()) std::abort();
    });
    PrintRow(shape.label,
             {std::to_string(shape.n), Fmt(t * 1e3, 1),
              Fmt(t / shape.n * 1e6, 2)},
             26, 12);
  }

  std::remove(prolog_path.c_str());
  std::remove(formatted_path.c_str());
  std::remove(object_path.c_str());
  return 0;
}
