// Section 3.2: "The SLG-WAM ... is roughly 100 times faster than its
// meta-interpreter running on a similar emulator."
//
// The meta-interpreter here is written in the object language itself and
// executed by this engine's SLD machinery: tabled answers live in an
// asserted ans/1 relation and the fixpoint is driven by repeated passes —
// the interpretive strategy one is forced into without engine support
// (section 3.2's discussion of why interpreters/preprocessors are slow).
//
// Two tables:
//   1. the paper's original comparison — meta-interpreted SLG vs the engine
//      on cycles (tabling required: plain SLD loops);
//   2. the full execution-tier ladder on acyclic chains, where every tier
//      terminates: meta-interpreter → engine SLG → WAM emulator
//      (DESIGN.md "Execution tiers").
//
// Usage: meta_overhead [OUT.json]  (JSON carries the ladder rows)

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/wam_tier.h"
#include "xsb/engine.h"

namespace {

constexpr char kMetaInterpreter[] = R"PROGRAM(
    % Object program, represented as mi_clause(Head, Body) facts.
    mi_clause(path(X,Y), edge(X,Y)).
    mi_clause(path(X,Y), (path(X,Z), edge(Z,Y))).

    :- dynamic(ans/1).
    :- dynamic(mi_changed/0).

    % One bottom-up pass of SLG-style answer derivation.
    mi_pass :-
        mi_clause(H, B),
        mi_prove(B),
        \+ ans(H),
        assert(ans(H)),
        ( mi_changed -> true ; assert(mi_changed) ),
        fail.
    mi_pass.

    mi_prove(true) :- !.
    mi_prove((A, B)) :- !, mi_prove(A), mi_prove(B).
    mi_prove(path(X,Y)) :- !, ans(path(X,Y)).   % tabled: read the table
    mi_prove(G) :- call(G).

    mi_fixpoint :-
        retractall(mi_changed),
        mi_pass,
        ( mi_changed -> mi_fixpoint ; true ).

    mi_solve(G) :- retractall(ans(_)), mi_fixpoint, ans(G).
)PROGRAM";

// Right recursion, so SLD terminates on acyclic data (the non-tabled tier).
constexpr char kChainTc[] =
    "path(X,Y) :- edge(X,Y).\n"
    "path(X,Y) :- edge(X,Z), path(Z,Y).\n";

double TimeEngine(const std::string& edges) {
  xsb::Engine engine;
  if (!engine
           .ConsultString(":- table path/2.\n"
                          "path(X,Y) :- edge(X,Y).\n"
                          "path(X,Y) :- path(X,Z), edge(Z,Y).\n" + edges)
           .ok()) {
    std::abort();
  }
  return xsb::bench::TimeBest([&]() {
    engine.AbolishAllTables();
    auto r = engine.Count("path(1, X)");
    if (!r.ok()) std::abort();
  });
}

double TimeMeta(const std::string& edges) {
  xsb::Engine meta;
  if (!meta.ConsultString(std::string(kMetaInterpreter) + edges).ok()) {
    std::abort();
  }
  return xsb::bench::TimeBest(
      [&]() {
        auto r = meta.Count("mi_solve(path(1, X))");
        if (!r.ok()) std::abort();
      },
      /*min_seconds=*/0.05, /*max_repeats=*/3);
}

struct LadderRow {
  int size = 0;
  double meta = -1;  // < 0: skipped (meta is too slow at this size)
  double engine = 0;
  xsb::bench::WamTierRun emu;
};

// The nrev ladder runs WAM-only (nrev is not a tabling workload): naive
// reverse of an n-element ground list on the emulator, carrying the
// choice-point and structure-switch counters so the first-argument-indexing
// win is diffable in the JSON snapshot.
struct NrevRow {
  int size = 0;
  xsb::bench::WamTierRun emu;
};

std::string NrevProgram() {
  return "app([], L, L).\n"
         "app([H|T], L, [H|R]) :- app(T, L, R).\n"
         "nrev([], []).\n"
         "nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).\n";
}

std::string NrevGoal(int n) {
  std::string list = "[";
  for (int i = 1; i <= n; ++i) {
    if (i > 1) list += ",";
    list += std::to_string(i);
  }
  return "nrev(" + list + "], R)";
}

}  // namespace

int main(int argc, char** argv) {
  using xsb::bench::Fmt;
  using xsb::bench::FmtMs;
  using xsb::bench::PrintHeader;
  using xsb::bench::PrintRow;

  PrintHeader("engine SLG vs meta-interpreted SLG: ?- path(1,X) on a cycle");
  PrintRow("cycle size", {"engine ms", "meta ms", "meta/engine"}, 18, 14);
  for (int n : {8, 12, 16}) {
    std::string edges = xsb::bench::CycleEdges(n);
    double native = TimeEngine(edges);
    double interpreted = TimeMeta(edges);
    PrintRow(std::to_string(n),
             {FmtMs(native), FmtMs(interpreted), Fmt(interpreted / native, 0)},
             18, 14);
  }

  PrintHeader(
      "execution tiers: ?- path(1,X) on a chain (meta -> SLG -> WAM)");
  PrintRow("chain size", {"meta ms", "SLG ms", "WAM emu ms", "instructions"},
           14, 14);
  std::vector<LadderRow> rows;
  for (int n : {8, 16, 64, 256}) {
    LadderRow row;
    row.size = n;
    std::string edges = xsb::bench::ChainEdges(n);
    std::string program = std::string(kChainTc) + edges;
    // The meta-interpreter recomputes whole passes per fixpoint round
    // (O(n^3)-ish); past tiny sizes it would dominate the bench's runtime.
    if (n <= 16) row.meta = TimeMeta(edges);
    row.engine = TimeEngine(edges);
    // Small chains solve in microseconds: amplify with in-loop repetitions
    // so the per-solve time is above timer noise.
    int reps = n <= 16 ? 400 : (n <= 64 ? 50 : 5);
    row.emu = xsb::bench::TimeWamTier(program, "path(1, X)", reps);
    // A chain of n nodes reaches n - 1 of them from node 1.
    if (row.emu.answers != static_cast<size_t>(n - 1)) std::abort();
    PrintRow(std::to_string(n),
             {row.meta < 0 ? "-" : FmtMs(row.meta), FmtMs(row.engine),
              FmtMs(row.emu.seconds), std::to_string(row.emu.instructions)},
             14, 14);
    rows.push_back(row);
  }

  PrintHeader("nrev ladder: ?- nrev([1..n], R) on the WAM emulator");
  PrintRow("list size", {"WAM emu ms", "choice pts", "struct hits"}, 14, 12);
  std::vector<NrevRow> nrev_rows;
  for (int n : {10, 30, 100}) {
    NrevRow row;
    row.size = n;
    int reps = n <= 30 ? 400 : 50;
    row.emu = xsb::bench::TimeWamTier(NrevProgram(), NrevGoal(n), reps);
    if (row.emu.answers != 1) std::abort();  // nrev of a ground list is det
    PrintRow(std::to_string(n),
             {FmtMs(row.emu.seconds), std::to_string(row.emu.choice_points),
              std::to_string(row.emu.switch_structure_hits)},
             14, 12);
    nrev_rows.push_back(row);
  }

  std::printf(
      "\nPaper: the engine is roughly two orders of magnitude faster than\n"
      "the meta-interpreter — the gap that justified building the SLG-WAM\n"
      "instead of interpreting or preprocessing (section 3.2). Our\n"
      "assert-based meta-interpreter recomputes whole passes per fixpoint\n"
      "round, so its gap *grows* with the cycle length; at small sizes it\n"
      "sits in the paper's hundreds-of-x regime. The chain ladder extends\n"
      "Table 3 downward: the same query, each tier dropping one layer of\n"
      "interpretation.\n");

  if (argc > 1) {
    std::string json =
        "{\n  \"bench\": \"meta_overhead\",\n  \"ladder_rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      const LadderRow& r = rows[i];
      json += "    {\"chain_size\": " + std::to_string(r.size) +
              ", \"answers\": " + std::to_string(r.emu.answers) +
              ", \"meta_ms\": " +
              (r.meta < 0 ? std::string("null") : xsb::bench::Fmt(r.meta * 1e3, 3)) +
              ", \"engine_slg_ms\": " + xsb::bench::Fmt(r.engine * 1e3, 3) +
              ", \"wam_emulator_ms\": " +
              xsb::bench::Fmt(r.emu.seconds * 1e3, 3) +
              ", \"instructions\": " + std::to_string(r.emu.instructions) +
              ", \"choice_points\": " + std::to_string(r.emu.choice_points) +
              "}";
      json += (i + 1 < rows.size()) ? ",\n" : "\n";
    }
    json += "  ],\n  \"nrev_rows\": [\n";
    for (size_t i = 0; i < nrev_rows.size(); ++i) {
      const NrevRow& r = nrev_rows[i];
      json += "    {\"list_size\": " + std::to_string(r.size) +
              ", \"wam_emulator_ms\": " +
              xsb::bench::Fmt(r.emu.seconds * 1e3, 3) +
              ", \"instructions\": " + std::to_string(r.emu.instructions) +
              ", \"choice_points\": " + std::to_string(r.emu.choice_points) +
              ", \"switch_structure_hits\": " +
              std::to_string(r.emu.switch_structure_hits) + "}";
      json += (i + 1 < nrev_rows.size()) ? ",\n" : "\n";
    }
    json += "  ]\n}\n";
    std::ofstream out(argv[1]);
    out << json;
    std::printf("wrote %s\n", argv[1]);
  }
  return 0;
}
