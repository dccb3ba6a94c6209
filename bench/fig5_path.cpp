// Figure 5 of the paper: the left-recursive path/2 program over cycles and
// fanout structures — XSB's tabled tuple-at-a-time evaluation vs the
// bottom-up set-at-a-time baseline (CORAL-def = semi-naive + magic sets;
// CORAL-fac = with the factoring optimization).
//
// The paper iterates the query 1000 times on cycles of length 8..2048 and
// on fanout relations; we report per-query times and the bottom-up/XSB
// ratios (paper: roughly an order of magnitude in XSB's favor).
//
// A third section runs the same path query through the raw WAM layer on
// acyclic chains (right recursion, so plain SLD terminates): the bytecode
// emulator, the engine-compilation rung underneath the tabled engine.
//
// Usage: fig5_path [OUT.json]

#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/wam_tier.h"
#include "bottomup/magic.h"
#include "bottomup/seminaive.h"
#include "xsb/engine.h"

namespace {

using xsb::datalog::DatalogProgram;
using xsb::datalog::Evaluation;
using xsb::datalog::FactorRewrite;
using xsb::datalog::Literal;
using xsb::datalog::MagicRewrite;
using xsb::datalog::ParseDatalog;
using xsb::datalog::ParseQuery;

constexpr char kTc[] =
    "path(X,Y) :- edge(X,Y).\n"
    "path(X,Y) :- path(X,Z), edge(Z,Y).\n";

// Right-recursive variant for the non-tabled WAM emulator.
constexpr char kTcRight[] =
    "path(X,Y) :- edge(X,Y).\n"
    "path(X,Y) :- edge(X,Z), path(Z,Y).\n";

// Tabled engine: load once, per-iteration abolish tables + query (the paper
// reclaims table space between iterations, section 5).
double TimeXsb(const std::string& edges) {
  xsb::Engine engine;
  if (!engine.ConsultString(":- table path/2.\n" + std::string(kTc) + edges)
           .ok()) {
    std::abort();
  }
  return xsb::bench::TimeBest([&]() {
    engine.AbolishAllTables();
    auto n = engine.Count("path(1, X)");
    if (!n.ok()) std::abort();
  });
}

enum class BottomUpMode { kMagic, kFactoring, kPlain };

double TimeBottomUp(const std::string& edges, BottomUpMode mode) {
  // Parse once; per-iteration work is rewrite + evaluation, as in CORAL.
  DatalogProgram base;
  if (!ParseDatalog(std::string(kTc) + edges, &base).ok()) std::abort();
  return xsb::bench::TimeBest([&]() {
    DatalogProgram program = base;
    auto query = ParseQuery("path(1, X)", &program);
    Literal target = query.value();
    if (mode == BottomUpMode::kMagic) {
      auto rewritten = MagicRewrite(&program, query.value());
      if (!rewritten.ok()) std::abort();
      target = rewritten.value();
    } else if (mode == BottomUpMode::kFactoring) {
      auto rewritten = FactorRewrite(&program, query.value());
      if (!rewritten.ok()) std::abort();
      target = rewritten.value();
    }
    Evaluation eval(&program);
    if (!eval.Run().ok()) std::abort();
    (void)eval.Select(target);
  });
}

struct FigRow {
  int size = 0;
  double xsb = 0, magic = 0, factored = 0;
};

std::vector<FigRow> Report(const char* title, const std::vector<int>& sizes,
                           const std::function<std::string(int)>& make_edges) {
  using xsb::bench::Fmt;
  using xsb::bench::FmtMs;
  using xsb::bench::PrintHeader;
  using xsb::bench::PrintRow;

  PrintHeader(title);
  std::vector<std::string> header;
  for (int n : sizes) header.push_back(std::to_string(n));
  PrintRow("size", header, 26, 10);

  std::vector<FigRow> rows;
  for (int n : sizes) {
    std::string edges = make_edges(n);
    FigRow row;
    row.size = n;
    row.xsb = TimeXsb(edges);
    row.magic = TimeBottomUp(edges, BottomUpMode::kMagic);
    row.factored = TimeBottomUp(edges, BottomUpMode::kFactoring);
    rows.push_back(row);
  }
  auto ms_row = [&](const char* label,
                    const std::function<double(const FigRow&)>& get) {
    std::vector<std::string> cells;
    for (const FigRow& r : rows) cells.push_back(FmtMs(get(r)));
    PrintRow(label, cells, 26, 10);
  };
  ms_row("XSB tabled (ms)", [](const FigRow& r) { return r.xsb; });
  ms_row("CORAL-def magic (ms)", [](const FigRow& r) { return r.magic; });
  ms_row("CORAL-fac factored (ms)", [](const FigRow& r) { return r.factored; });
  std::vector<std::string> r1, r2;
  for (const FigRow& r : rows) {
    r1.push_back(Fmt(r.magic / r.xsb, 1));
    r2.push_back(Fmt(r.factored / r.xsb, 1));
  }
  PrintRow("ratio magic/XSB", r1, 26, 10);
  PrintRow("ratio factored/XSB", r2, 26, 10);
  return rows;
}

struct WamRow {
  int size = 0;
  xsb::bench::WamTierRun emu;
};

std::string FigRowsJson(const std::vector<FigRow>& rows) {
  std::string json;
  for (size_t i = 0; i < rows.size(); ++i) {
    const FigRow& r = rows[i];
    json += "    {\"size\": " + std::to_string(r.size) +
            ", \"xsb_tabled_ms\": " + xsb::bench::Fmt(r.xsb * 1e3, 3) +
            ", \"coral_magic_ms\": " + xsb::bench::Fmt(r.magic * 1e3, 3) +
            ", \"coral_factored_ms\": " + xsb::bench::Fmt(r.factored * 1e3, 3) +
            "}";
    json += (i + 1 < rows.size()) ? ",\n" : "\n";
  }
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  using xsb::bench::Fmt;
  using xsb::bench::FmtMs;
  using xsb::bench::PrintHeader;
  using xsb::bench::PrintRow;

  std::vector<int> cycle_sizes{8, 32, 128, 512, 1024, 2048};
  std::vector<FigRow> cycle_rows =
      Report("Figure 5 (left): ?- path(1,X) on cycles of length 8..2048",
             cycle_sizes, [](int n) { return xsb::bench::CycleEdges(n); });

  std::vector<int> fanout_sizes{8, 64, 256, 1024, 4096};
  std::vector<FigRow> fanout_rows =
      Report("Figure 5 (right): ?- path(1,X) on fanout edge(1,1..N)",
             fanout_sizes, [](int n) { return xsb::bench::FanoutEdges(n); });

  PrintHeader("WAM emulator: ?- path(1,X), right recursion on acyclic chains");
  PrintRow("chain size", {"emulator ms", "instructions"}, 14, 14);
  std::vector<WamRow> wam_rows;
  for (int n : {128, 256, 512, 1024}) {
    std::string program = std::string(kTcRight) + xsb::bench::ChainEdges(n);
    WamRow row;
    row.size = n;
    int reps = n <= 256 ? 20 : 4;
    row.emu = xsb::bench::TimeWamTier(program, "path(1, X)", reps);
    // A chain of n nodes reaches n - 1 of them from node 1.
    if (row.emu.answers != static_cast<size_t>(n - 1)) std::abort();
    PrintRow(std::to_string(n),
             {FmtMs(row.emu.seconds), std::to_string(row.emu.instructions)},
             14, 14);
    wam_rows.push_back(row);
  }

  std::printf(
      "\nPaper's Figure 5 shape: XSB about an order of magnitude faster\n"
      "than CORAL(def); factoring narrows but does not close the gap.\n"
      "The WAM table is the engine-compilation rung underneath.\n");

  if (argc > 1) {
    std::string json =
        "{\n  \"bench\": \"fig5_path\",\n  \"cycle_rows\": [\n" +
        FigRowsJson(cycle_rows) + "  ],\n  \"fanout_rows\": [\n" +
        FigRowsJson(fanout_rows) + "  ],\n  \"wam_chain_rows\": [\n";
    for (size_t i = 0; i < wam_rows.size(); ++i) {
      const WamRow& r = wam_rows[i];
      json += "    {\"chain_size\": " + std::to_string(r.size) +
              ", \"answers\": " + std::to_string(r.emu.answers) +
              ", \"wam_emulator_ms\": " + Fmt(r.emu.seconds * 1e3, 3) +
              ", \"instructions\": " + std::to_string(r.emu.instructions) +
              "}";
      json += (i + 1 < wam_rows.size()) ? ",\n" : "\n";
    }
    json += "  ]\n}\n";
    std::ofstream out(argv[1]);
    out << json;
    std::printf("wrote %s\n", argv[1]);
  }
  return 0;
}
