#include <gtest/gtest.h>

#include <algorithm>
#include <regex>
#include <set>

#include "db/loader.h"
#include "db/program.h"
#include "engine/machine.h"
#include "parser/reader.h"
#include "parser/writer.h"
#include "wam/compile.h"
#include "wam/emulator.h"

namespace xsb::wam {
namespace {

class WamTest : public ::testing::Test {
 protected:
  WamTest() : store_(&symbols_), program_(&symbols_) {}

  void Load(const std::string& text) {
    Loader loader(&store_, &program_);
    Status s = loader.ConsultString(text);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  void CompileAll() {
    Result<CompiledModule> compiled = CompileModule(&store_, program_, {});
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    module_ = std::move(compiled.value());
    emulator_ = std::make_unique<Emulator>(&store_, &module_);
  }

  Word Parse(const std::string& text) {
    Result<Word> r = ParseTermString(&store_, program_.ops(), text);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.value();
  }

  size_t Count(const std::string& goal) {
    size_t count = 0;
    size_t trail = store_.TrailMark();
    Status s = emulator_->Solve(Parse(goal), [&count]() {
      ++count;
      return WamAction::kContinue;
    });
    store_.UndoTrail(trail);
    EXPECT_TRUE(s.ok()) << goal << ": " << s.ToString();
    return count;
  }

  bool Holds(const std::string& goal) { return Count(goal) > 0; }

  // First solution's instance of the goal, rendered.
  std::string First(const std::string& goal) {
    Word g = Parse(goal);
    size_t trail = store_.TrailMark();
    std::string out = "<none>";
    Status s = emulator_->Solve(g, [&]() {
      out = WriteTerm(store_, *program_.ops(), g);
      return WamAction::kStop;
    });
    store_.UndoTrail(trail);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return out;
  }

  // Every solution's instance of the goal, rendered, in derivation order:
  // on this module's emulator, and on the interpreter over the same program.
  std::vector<std::string> WamAnswers(const std::string& goal) {
    Word g = Parse(goal);
    size_t trail = store_.TrailMark();
    std::vector<std::string> out;
    Status s = emulator_->Solve(g, [&]() {
      out.push_back(WriteTerm(store_, *program_.ops(), g));
      return WamAction::kContinue;
    });
    store_.UndoTrail(trail);
    EXPECT_TRUE(s.ok()) << goal << ": " << s.ToString();
    return out;
  }
  std::vector<std::string> InterpretedAnswers(const std::string& goal) {
    xsb::Machine machine(&store_, &program_);
    Word g = Parse(goal);
    size_t trail = store_.TrailMark();
    std::vector<std::string> out;
    Status s = machine.Solve(g, [&]() {
      out.push_back(WriteTerm(store_, *program_.ops(), g));
      return xsb::SolveAction::kContinue;
    });
    store_.UndoTrail(trail);
    EXPECT_TRUE(s.ok()) << goal << ": " << s.ToString();
    return out;
  }

  // The differential: both tiers resolve clauses in source order, so the
  // same answers must come out in the same order. Answers are compared as
  // text, so every query's solutions must be ground.
  void ExpectAgreesWithInterpreter(const std::vector<std::string>& queries) {
    for (const std::string& q : queries) {
      EXPECT_EQ(WamAnswers(q), InterpretedAnswers(q)) << "query: " << q;
    }
  }

  SymbolTable symbols_;
  TermStore store_;
  Program program_;
  CompiledModule module_;
  std::unique_ptr<Emulator> emulator_;
};

TEST_F(WamTest, FactsUnifyConstants) {
  Load("e(1,2). e(2,3). e(3,4).\n");
  CompileAll();
  EXPECT_TRUE(Holds("e(1,2)"));
  EXPECT_FALSE(Holds("e(1,3)"));
  EXPECT_EQ(Count("e(X,Y)"), 3u);
  EXPECT_EQ(Count("e(2,X)"), 1u);
  EXPECT_EQ(First("e(2,X)"), "e(2,3)");
}

TEST_F(WamTest, SwitchOnConstantIndexes) {
  std::string facts;
  for (int i = 0; i < 500; ++i) {
    facts += "f(" + std::to_string(i) + "," + std::to_string(i * 2) + ").\n";
  }
  Load(facts);
  CompileAll();
  uint64_t before = 0;
  {
    // Bound first arg: the switch must go straight to one clause.
    size_t trail = store_.TrailMark();
    before = emulator_->stats().instructions;
    ASSERT_TRUE(emulator_
                    ->Solve(Parse("f(250, X)"),
                            []() { return WamAction::kContinue; })
                    .ok());
    store_.UndoTrail(trail);
  }
  uint64_t bound_cost = emulator_->stats().instructions - before;
  EXPECT_LT(bound_cost, 40u);  // no scan over 500 clauses
  EXPECT_EQ(Count("f(X, Y)"), 500u);  // unbound still enumerates all
}

TEST_F(WamTest, SwitchOnStructureIndexes) {
  // 200 clauses keyed by distinct functors plus a few constants: a bound
  // structure-keyed call must dispatch through the functor table, not scan.
  std::string facts = "g(nil, base). g(0, zero).\n";
  for (int i = 0; i < 200; ++i) {
    facts += "g(k" + std::to_string(i) + "(a), " + std::to_string(i) + ").\n";
  }
  Load(facts);
  CompileAll();
  uint64_t before = emulator_->stats().instructions;
  uint64_t hits_before = emulator_->stats().switch_structure_hits;
  EXPECT_EQ(First("g(k150(a), V)"), "g(k150(a),150)");
  EXPECT_LT(emulator_->stats().instructions - before, 40u);
  EXPECT_GT(emulator_->stats().switch_structure_hits, hits_before);
  // The constant side of the same two-level switch still works...
  EXPECT_EQ(First("g(nil, V)"), "g(nil,base)");
  EXPECT_EQ(First("g(0, V)"), "g(0,zero)");
  // ...misses on either side fail, and unbound enumerates everything.
  EXPECT_FALSE(Holds("g(nosuch(a), V)"));
  EXPECT_FALSE(Holds("g(nosuchatom, V)"));
  EXPECT_EQ(Count("g(X, Y)"), 202u);
}

TEST_F(WamTest, ListFastPathAndBucketChains) {
  // './2' rides the switch_on_structure list fast path; same-key clauses
  // share an order-preserving try/retry/trust bucket.
  Load("m([], empty).\n"
       "m([_|_], cons_a).\n"
       "m([_,_|_], cons_b).\n"
       "m(f(_), fun).\n");
  CompileAll();
  EXPECT_EQ(Count("m([1,2], V)"), 2u);  // both './2' bucket clauses
  EXPECT_EQ(First("m([1,2], V)"), "m([1,2],cons_a)");  // source order kept
  EXPECT_EQ(Count("m([1], V)"), 1u);
  EXPECT_EQ(First("m([], V)"), "m([],empty)");
  EXPECT_EQ(First("m(f(9), V)"), "m(f(9),fun)");
  EXPECT_EQ(Count("m(X, V)"), 4u);
}

TEST_F(WamTest, ListPredicatesDispatchOnStructureWithoutChains) {
  // app and nrev key on []/'.'/2: each compiles to one two-level switch,
  // with no try_me_else chain anywhere in the module.
  Load("app([], L, L).\n"
       "app([H|T], L, [H|R]) :- app(T, L, R).\n"
       "nrev([], []).\n"
       "nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).\n"
       "drive(R) :- nrev([1,2,3,4,5,6], R).\n");
  CompileAll();
  auto count_in = [](const std::string& listing, const std::string& needle) {
    size_t n = 0;
    for (size_t at = listing.find(needle); at != std::string::npos;
         at = listing.find(needle, at + needle.size())) {
      ++n;
    }
    return n;
  };
  std::string listing = module_.Disassemble(symbols_);
  EXPECT_EQ(count_in(listing, "switch_on_structure"), 2u);
  EXPECT_EQ(count_in(listing, "try_me_else"), 0u);
  EXPECT_EQ(First("drive(R)"), "drive([6,5,4,3,2,1])");
  EXPECT_GT(emulator_->stats().switch_structure_hits, 0u);
}

TEST_F(WamTest, MixedKeyBoundCallsPushNoChoicePoint) {
  // kind/2 mixes a constant key with structure keys, so its switch_on_term
  // has both tables live. A bound first argument lands on one clause in
  // either table: no choice point.
  Load("kind(nil, empty).\n"
       "kind(leaf(X), l(X)).\n"
       "kind(node(L, R), n(L, R)).\n"
       "probe(K) :- kind(leaf(7), K).\n"
       "probe2(K) :- kind(nil, K).\n");
  CompileAll();
  uint64_t cps0 = emulator_->stats().choice_points;
  EXPECT_EQ(First("probe(K)"), "probe(l(7))");
  EXPECT_EQ(First("probe2(K)"), "probe2(empty)");
  EXPECT_EQ(emulator_->stats().choice_points, cps0);
}

TEST_F(WamTest, StructureSwitchDeletesNrevChoicePoints) {
  // EXPERIMENTS.md §3.2's headroom item: nrev30 used to push 496 choice
  // points through try_me_else chains because app/nrev key on []/'.'(H,T).
  // With the structure side of the switch, every bound call lands in a
  // single-clause bucket: zero choice points.
  Load("app([], L, L).\n"
       "app([H|T], L, [H|R]) :- app(T, L, R).\n"
       "nrev([], []).\n"
       "nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).\n");
  CompileAll();
  std::string list = "[";
  for (int i = 1; i <= 30; ++i) {
    list += (i > 1 ? "," : "") + std::to_string(i);
  }
  uint64_t cps_before = emulator_->stats().choice_points;
  uint64_t miss_before = emulator_->stats().switch_miss_linear;
  EXPECT_EQ(Count("nrev(" + list + "], R)"), 1u);
  EXPECT_LE(emulator_->stats().choice_points - cps_before, 40u);
  EXPECT_EQ(emulator_->stats().switch_miss_linear - miss_before, 0u);
  EXPECT_GT(emulator_->stats().switch_structure_hits, 0u);
}

TEST_F(WamTest, IndexingOffForcesLinearChains) {
  // CompileOptions::index = false is the ablation baseline: same answers,
  // try_me_else chains instead of switches, and the miss counter shows it.
  Load("app([], L, L).\n"
       "app([H|T], L, [H|R]) :- app(T, L, R).\n");
  Result<CompiledModule> plain = CompileModule(&store_, program_, {});
  ASSERT_TRUE(plain.ok());
  CompileOptions off;
  off.index = false;
  Result<CompiledModule> linear = CompileModule(&store_, program_, {}, off);
  ASSERT_TRUE(linear.ok());
  EXPECT_EQ(linear.value().switch_tables.size(), 0u);
  EXPECT_NE(linear.value().Disassemble(symbols_).find("try_me_else"),
            std::string::npos);

  Emulator indexed(&store_, &plain.value());
  Emulator chained(&store_, &linear.value());
  auto count_goal = [&](Emulator* emu, const char* goal) {
    size_t count = 0;
    size_t trail = store_.TrailMark();
    Status s = emu->Solve(Parse(goal), [&count]() {
      ++count;
      return WamAction::kContinue;
    });
    store_.UndoTrail(trail);
    EXPECT_TRUE(s.ok()) << goal;
    return count;
  };
  // Bound first argument: indexed dispatch never touches a linear chain,
  // the forced-linear module enters one per call.
  EXPECT_EQ(count_goal(&indexed, "app([1,2,3], [4], R)"), 1u);
  EXPECT_EQ(count_goal(&chained, "app([1,2,3], [4], R)"), 1u);
  EXPECT_EQ(indexed.stats().switch_miss_linear, 0u);
  EXPECT_GT(chained.stats().switch_miss_linear, 0u);
  // Unbound first argument: both degrade to a linear chain (counted), with
  // identical answers.
  EXPECT_EQ(count_goal(&indexed, "app(X, Y, [1,2,3])"), 4u);
  EXPECT_EQ(count_goal(&chained, "app(X, Y, [1,2,3])"), 4u);
  EXPECT_GT(indexed.stats().switch_miss_linear, 0u);
}

TEST_F(WamTest, HashEscalationAboveFanoutThreshold) {
  // SwitchTable escalates from linear scan to hash above kHashFanout keys;
  // both regimes must dispatch identically.
  std::string small = "s(f1(x), 1).\ns(f2(x), 2).\ns(f3(x), 3).\n";
  std::string big;
  for (int i = 0; i < 2 * static_cast<int>(SwitchTable::kHashFanout); ++i) {
    big += "b(g" + std::to_string(i) + "(x), " + std::to_string(i) + ").\n";
  }
  Load(small + big);
  CompileAll();
  ASSERT_EQ(module_.switch_tables.size(), 2u);
  bool saw_linear = false;
  bool saw_hashed = false;
  for (const SwitchTable& t : module_.switch_tables) {
    (t.hashed() ? saw_hashed : saw_linear) = true;
    EXPECT_EQ(t.hashed(), t.size() > SwitchTable::kHashFanout);
  }
  EXPECT_TRUE(saw_linear);
  EXPECT_TRUE(saw_hashed);
  EXPECT_EQ(First("s(f2(x), V)"), "s(f2(x),2)");
  EXPECT_EQ(First("b(g11(x), V)"), "b(g11(x),11)");
  EXPECT_FALSE(Holds("b(g99(x), V)"));
}

TEST_F(WamTest, RulesWithConjunctions) {
  Load("e(1,2). e(2,3). e(3,4).\n"
       "p2(X,Y) :- e(X,Z), e(Z,Y).\n"
       "p3(X,Y) :- e(X,Z), p2(Z,Y).\n");
  CompileAll();
  EXPECT_TRUE(Holds("p2(1,3)"));
  EXPECT_TRUE(Holds("p3(1,4)"));
  EXPECT_FALSE(Holds("p3(2,4)"));
  EXPECT_EQ(Count("p2(X,Y)"), 2u);
}

TEST_F(WamTest, RecursionOverLists) {
  Load("app([], L, L).\n"
       "app([H|T], L, [H|R]) :- app(T, L, R).\n");
  CompileAll();
  EXPECT_TRUE(Holds("app([1,2], [3], [1,2,3])"));
  EXPECT_FALSE(Holds("app([1,2], [3], [1,2,4])"));
  EXPECT_EQ(First("app([1,2], [3,4], R)"), "app([1,2],[3,4],[1,2,3,4])");
  EXPECT_EQ(Count("app(X, Y, [1,2,3])"), 4u);
}

TEST_F(WamTest, NestedStructuresInHeadsAndBodies) {
  Load("shape(point(X, Y), box(point(X, Y), point(X, Y))).\n"
       "wrap(A, f(g(A), h(A, k))).\n");
  CompileAll();
  EXPECT_TRUE(Holds("shape(point(1,2), box(point(1,2), point(1,2)))"));
  EXPECT_FALSE(Holds("shape(point(1,2), box(point(1,2), point(3,2)))"));
  EXPECT_EQ(First("wrap(a, T)"), "wrap(a,f(g(a),h(a,k)))");
  EXPECT_EQ(First("shape(P, box(point(7,8), Q))"),
            "shape(point(7,8),box(point(7,8),point(7,8)))");
}

TEST_F(WamTest, ArithmeticBuiltins) {
  Load("double(X, Y) :- Y is X * 2.\n"
       "bigger(X, Y) :- X > Y.\n"
       "range_ok(X) :- X >= 10, X =< 20.\n");
  CompileAll();
  EXPECT_EQ(First("double(21, Y)"), "double(21,42)");
  EXPECT_TRUE(Holds("bigger(5, 3)"));
  EXPECT_FALSE(Holds("bigger(3, 5)"));
  EXPECT_TRUE(Holds("range_ok(15)"));
  EXPECT_FALSE(Holds("range_ok(25)"));
}

TEST_F(WamTest, UnifyBuiltinAndSharedVariables) {
  Load("same(X, X).\n"
       "pair(X, Y, p(X, Y)) :- X = Y.\n");
  CompileAll();
  EXPECT_TRUE(Holds("same(a, a)"));
  EXPECT_FALSE(Holds("same(a, b)"));
  EXPECT_EQ(First("pair(q, Y, P)"), "pair(q,q,p(q,q))");
}

TEST_F(WamTest, DeepRecursionCountdown) {
  Load("count(0).\n"
       "count(N) :- N > 0, M is N - 1, count(M).\n");
  CompileAll();
  EXPECT_TRUE(Holds("count(20000)"));
}

TEST_F(WamTest, BacktrackingThroughDeallocatedFrames) {
  // q leaves a choice point; p deallocates before q's retry happens.
  Load("q(1). q(2).\n"
       "r(2).\n"
       "p(X) :- q(X), r(X).\n");
  CompileAll();
  EXPECT_EQ(Count("p(X)"), 1u);
  EXPECT_EQ(First("p(X)"), "p(2)");
}

TEST_F(WamTest, CompileErrorsAreReported) {
  Load(":- table t/1.\nt(1).\nuses_cut(X) :- q(X), !.\nq(1).\n");
  Result<CompiledModule> compiled = CompileModule(&store_, program_, {});
  EXPECT_FALSE(compiled.ok());
}

TEST_F(WamTest, DisassemblerProducesListing) {
  Load("e(1,2).\np(X,Y) :- e(X,Y).\n");
  CompileAll();
  std::string listing = module_.Disassemble(symbols_);
  EXPECT_NE(listing.find("p/2:"), std::string::npos);
  EXPECT_NE(listing.find("get_constant"), std::string::npos);
  EXPECT_NE(listing.find("call e/2"), std::string::npos);
  EXPECT_NE(listing.find("proceed"), std::string::npos);
}

TEST_F(WamTest, DisassembleRoundTripsEveryOpcode) {
  // Property: every opcode in the instruction set has a distinct, stable
  // disassembly. The case table below must stay exhaustive — the set-size
  // check fails when an opcode is added without a rendering here, and the
  // one-line-per-instruction check fails when Disassemble skips an op.
  CompiledModule m;
  FunctorId f2 = symbols_.InternFunctor(symbols_.InternAtom("f"), 2);
  uint32_t seven = static_cast<uint32_t>(m.AddConstant(IntCell(7)));
  m.switch_tables.emplace_back();
  struct Case {
    Instr instr;
    const char* text;
  };
  const Case cases[] = {
      {{Op::kGetVariable, XReg(4), 2, 0}, "get_variable X4, A2"},
      {{Op::kGetValue, YReg(1), 3, 0}, "get_value Y1, A3"},
      {{Op::kGetConstant, seven, 1, 0}, "get_constant 7, A1"},
      {{Op::kGetStructure, f2, 1, 0}, "get_structure f/2, A1"},
      {{Op::kUnifyVariable, XReg(5), 0, 0}, "unify_variable X5"},
      {{Op::kUnifyValue, YReg(2), 0, 0}, "unify_value Y2"},
      {{Op::kUnifyConstant, seven, 0, 0}, "unify_constant 7"},
      {{Op::kUnifyVoid, 3, 0, 0}, "unify_void 3"},
      {{Op::kPutVariable, YReg(0), 2, 0}, "put_variable Y0, A2"},
      {{Op::kPutValue, XReg(6), 1, 0}, "put_value X6, A1"},
      {{Op::kPutConstant, seven, 2, 0}, "put_constant 7, A2"},
      {{Op::kPutStructure, f2, 1, 0}, "put_structure f/2, A1"},
      {{Op::kAllocate, 4, 0, 0}, "allocate 4"},
      {{Op::kDeallocate, 0, 0, 0}, "deallocate"},
      {{Op::kCall, 0, f2, 0}, "call f/2"},
      {{Op::kProceed, 0, 0, 0}, "proceed"},
      {{Op::kTryMeElse, 9, 2, 0}, "try_me_else 9"},
      {{Op::kRetryMeElse, 11, 0, 0}, "retry_me_else 11"},
      {{Op::kTrustMe, 0, 0, 0}, "trust_me"},
      {{Op::kSwitchOnTerm, 1, 2, 3}, "switch_on_term var=1 const=2 struct=3"},
      {{Op::kSwitchOnConstant, 0, 0, 0}, "switch_on_constant table#0"},
      {{Op::kTry, 21, 2, 0}, "try 21"},
      {{Op::kRetry, 22, 0, 0}, "retry 22"},
      {{Op::kTrust, 23, 0, 0}, "trust 23"},
      {{Op::kBuiltin, 0, 2, 0}, "builtin #0/2"},
      {{Op::kSolution, 0, 0, 0}, "solution"},
      {{Op::kHalt, 0, 0, 0}, "halt"},
      {{Op::kSwitchOnStructure, 0, 0, 17},
       "switch_on_structure table#0 list=17"},
  };
  std::set<uint8_t> covered;
  for (const Case& c : cases) {
    covered.insert(static_cast<uint8_t>(c.instr.op));
    m.code.push_back(c.instr);
  }
  // Exhaustive: one case per enumerator, contiguous from zero.
  EXPECT_EQ(covered.size(), std::size(cases));
  EXPECT_EQ(*covered.rbegin(),
            static_cast<uint8_t>(Op::kSwitchOnStructure));
  EXPECT_EQ(covered.size(),
            static_cast<size_t>(*covered.rbegin()) + 1);

  std::string listing = m.Disassemble(symbols_);
  EXPECT_EQ(static_cast<size_t>(
                std::count(listing.begin(), listing.end(), '\n')),
            m.code.size());
  for (const Case& c : cases) {
    EXPECT_NE(listing.find(c.text), std::string::npos)
        << "missing disassembly: " << c.text << "\n"
        << listing;
  }
}

TEST_F(WamTest, WamStatsBuiltinReportsEmulatorCounters) {
  // wam_stats/2 compiled as a WAM builtin reads this emulator's counters as
  // a name-Value list, once per solution of the goal before it. The key set
  // is exactly the WamStats fields, nothing more.
  Load("f(1). f(2).\n"
       "report(S) :- f(_), wam_stats(all, S).\n");
  CompileAll();
  EXPECT_EQ(Count("report(S)"), 2u);
  std::string first = First("report(S)");
  EXPECT_EQ(std::regex_replace(first, std::regex("[0-9]+"), "N"),
            "report([instructions - N,choice_points - N,"
            "switch_structure_hits - N,switch_miss_linear - N])");
  // The counters are live, not zero-filled.
  EXPECT_EQ(first.find("instructions - 0,"), std::string::npos) << first;
}

TEST_F(WamTest, AgreesWithInterpreterOnJoins) {
  // Property: WAM and the interpreter produce the same answers in the same
  // order.
  std::string facts;
  for (int i = 0; i < 60; ++i) {
    facts += "r(" + std::to_string(i % 10) + "," + std::to_string(i) + ").\n";
    facts += "s(" + std::to_string(i) + "," + std::to_string(i % 7) + ").\n";
  }
  Load(facts + "j(X,Z) :- r(X,Y), s(Y,Z).\n");
  CompileAll();
  std::vector<std::string> queries;
  for (int k = 0; k < 10; k += 3) {
    queries.push_back("j(" + std::to_string(k) + ", Z)");
  }
  queries.push_back("j(X, 3)");
  ExpectAgreesWithInterpreter(queries);
}

// More inputs to the same differential: head shapes (constant facts,
// structures with interior constants, list recursion, mixed constant and
// structure keys, arithmetic chains), each called bound, open, and with the
// first argument unbound where the program's own call sites always bind it.
struct CallShapeCase {
  const char* name;
  const char* program;
  std::vector<std::string> queries;
};

// Names the ctest entries after the case, not its raw bytes.
void PrintTo(const CallShapeCase& c, std::ostream* os) { *os << c.name; }

class WamInterpreterDifferential
    : public WamTest,
      public ::testing::WithParamInterface<CallShapeCase> {};

TEST_P(WamInterpreterDifferential, SameAnswersInOrder) {
  Load(GetParam().program);
  CompileAll();
  ExpectAgreesWithInterpreter(GetParam().queries);
}

const CallShapeCase kCallShapeCases[] = {
    {"constant_facts",
     "lookup(a, 1). lookup(b, 2). lookup(c, 3).\n"
     "use(V) :- lookup(a, V).\n",
     {"lookup(a, X)", "lookup(b, 2)", "lookup(c, 9)", "lookup(Z, 2)",
      "lookup(X, Y)", "use(V)"}},
    {"structure_arguments",
     "area(rect(W, H), A) :- A is W * H.\n"
     "area(circle(R), A) :- A is 3 * R * R.\n"
     "top(A) :- area(rect(3, 4), A).\n"
     "top2(A) :- area(circle(5), A).\n",
     {"area(rect(2, 5), A)", "area(circle(7), A)", "top(A)", "top2(A)"}},
    {"list_recursion",
     "app([], L, L).\n"
     "app([H|T], L, [H|R]) :- app(T, L, R).\n"
     "nrev([], []).\n"
     "nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).\n"
     "drive(R) :- nrev([1,2,3,4], R).\n",
     {"app([1,2], [3], Z)", "app(X, Y, [1,2,3])", "nrev([1,2,3], R)",
      "drive(R)"}},
    {"interior_constants",
     "tag(f(red, N), N).\n"
     "tag(g(blue), 0).\n"
     "drive(N) :- tag(f(red, 7), N).\n"
     "drive2(N) :- tag(g(blue), N).\n",
     {"tag(f(red, 3), X)", "tag(f(blue, 3), X)", "tag(g(blue), X)",
      "tag(Z, 0)", "drive(N)", "drive2(N)"}},
    {"mixed_keys",
     "kind(nil, empty).\n"
     "kind(leaf(X), l(X)).\n"
     "kind(node(L, R), n(L, R)).\n"
     "probe(K) :- kind(leaf(7), K).\n"
     "probe2(K) :- kind(nil, K).\n",
     {"kind(nil, K)", "kind(leaf(9), K)", "kind(node(a, b), K)",
      "kind(V, l(2))", "probe(K)", "probe2(K)"}},
    {"arithmetic_chains",
     "step(X, Y) :- Y is X + 7.\n"
     "twice(X, Z) :- step(X, Y), step(Y, Z).\n"
     "from_const(Z) :- twice(10, Z).\n",
     {"step(1, Y)", "twice(5, Z)", "from_const(Z)"}},
};

INSTANTIATE_TEST_SUITE_P(
    CallShapes, WamInterpreterDifferential,
    ::testing::ValuesIn(kCallShapeCases),
    [](const ::testing::TestParamInfo<CallShapeCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace xsb::wam
