#include <gtest/gtest.h>

#include "db/program.h"
#include "parser/reader.h"
#include "term/store.h"

namespace xsb {
namespace {

class IndexTest : public ::testing::Test {
 protected:
  IndexTest() : store_(&symbols_), program_(&symbols_) {}

  void Load(const std::string& text) {
    Reader reader(&store_, program_.ops(), text, program_.hilog_atoms());
    while (!reader.AtEof()) {
      Result<Word> r = reader.ReadClause();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_TRUE(program_.AddClauseTerm(store_, r.value()).ok());
    }
  }

  Word Parse(const std::string& text) {
    Result<Word> r = ParseTermString(&store_, program_.ops(), text);
    EXPECT_TRUE(r.ok());
    return r.value();
  }

  // A candidate view's ids, in clause order.
  static std::vector<ClauseId> Ids(const CandidateView& view) {
    return std::vector<ClauseId>(view.begin(), view.end());
  }

  Predicate* Pred(const char* name, int arity) {
    return program_.Lookup(
        symbols_.InternFunctor(symbols_.InternAtom(name), arity));
  }

  SymbolTable symbols_;
  TermStore store_;
  Program program_;
};

TEST_F(IndexTest, FirstArgHashNarrowsCandidates) {
  Load("edge(1,2). edge(1,3). edge(2,3). edge(3,4).");
  Predicate* p = Pred("edge", 2);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->Candidates(store_, Parse("edge(1,X)")).size(), 2u);
  EXPECT_EQ(p->Candidates(store_, Parse("edge(3,X)")).size(), 1u);
  EXPECT_EQ(p->Candidates(store_, Parse("edge(9,X)")).size(), 0u);
  EXPECT_EQ(p->Candidates(store_, Parse("edge(X,Y)")).size(), 4u);
}

TEST_F(IndexTest, FirstArgHashKeysOnOuterSymbolOnly) {
  Load("p(f(a)). p(f(b)). p(g(a)). p(c).");
  Predicate* p = Pred("p", 1);
  // f(a) and f(b) share the outer symbol f/1.
  EXPECT_EQ(p->Candidates(store_, Parse("p(f(x))")).size(), 2u);
  EXPECT_EQ(p->Candidates(store_, Parse("p(g(q))")).size(), 1u);
  EXPECT_EQ(p->Candidates(store_, Parse("p(c)")).size(), 1u);
}

TEST_F(IndexTest, VarHeadClausesAppearInEveryBucket) {
  Load("q(1,a). q(X,b). q(2,c).");
  Predicate* p = Pred("q", 2);
  // Key 1 matches clause 0 and the var clause 1.
  EXPECT_EQ(p->Candidates(store_, Parse("q(1,Z)")).size(), 2u);
  // Key 2 matches var clause and clause 2; order must be source order.
  auto c = p->Candidates(store_, Parse("q(2,Z)"));
  ASSERT_EQ(c.size(), 2u);
  EXPECT_LT(c[0], c[1]);
  // Unseen key still matches the var clause.
  EXPECT_EQ(p->Candidates(store_, Parse("q(99,Z)")).size(), 1u);
}

TEST_F(IndexTest, MultiFieldIndexDeclaration) {
  Load("r(1,a,x,u,7). r(1,b,y,u,7). r(2,a,x,v,8). r(2,a,z,v,9).");
  Predicate* p = Pred("r", 5);
  ASSERT_TRUE(program_
                  .DeclareIndex(p->functor(),
                                {{1}, {2}, {3, 5}})
                  .ok());
  // First field bound: uses index on arg 1.
  EXPECT_EQ(p->Candidates(store_, Parse("r(1,B,C,D,E)")).size(), 2u);
  // First unbound, second bound: index on arg 2.
  EXPECT_EQ(p->Candidates(store_, Parse("r(A,a,C,D,E)")).size(), 3u);
  // Only 3 and 5 bound: combined index.
  EXPECT_EQ(p->Candidates(store_, Parse("r(A,B,x,D,8)")).size(), 1u);
  // Nothing usable: all clauses.
  EXPECT_EQ(p->Candidates(store_, Parse("r(A,B,C,D,E)")).size(), 4u);
}

TEST_F(IndexTest, MultiFieldValidation) {
  Load("s(1,2).");
  Predicate* p = Pred("s", 2);
  EXPECT_FALSE(program_.DeclareIndex(p->functor(), {{1, 2, 3}}).ok());
  EXPECT_FALSE(
      program_.DeclareIndex(p->functor(), {{1, 2, 1, 2}}).ok());
  EXPECT_TRUE(program_.DeclareIndex(p->functor(), {{1, 2}}).ok());
}

TEST_F(IndexTest, FirstStringIndexPaperExample) {
  // Example 4.2 from the paper.
  Load("p(g(a),f(X)). p(g(a),f(a)). p(g(b),f(1)). p(g(X),Y).");
  Predicate* p = Pred("p", 2);
  ASSERT_TRUE(program_.DeclareFirstString(p->functor()).ok());
  ASSERT_NE(p->first_string_index(), nullptr);

  // Fully discriminating query: p(g(b), f(1)) -> clauses 2 and 3.
  auto c = Ids(p->Candidates(store_, Parse("p(g(b),f(1))")));
  EXPECT_EQ(c, (std::vector<ClauseId>{2, 3}));

  // p(g(a), f(b)): clause 0 (f(X) ended early), clause 3.
  c = Ids(p->Candidates(store_, Parse("p(g(a),f(b))")));
  EXPECT_EQ(c, (std::vector<ClauseId>{0, 3}));

  // Open query keeps everything.
  c = Ids(p->Candidates(store_, Parse("p(U,V)")));
  EXPECT_EQ(c.size(), 4u);

  // p(g(a), Z): variable in call stops discrimination under g(a).
  c = Ids(p->Candidates(store_, Parse("p(g(a),Z)")));
  EXPECT_EQ(c, (std::vector<ClauseId>{0, 1, 3}));
}

TEST_F(IndexTest, FirstStringTrieShapeMatchesFigure3) {
  Load("p(g(a),f(X)). p(g(a),f(a)). p(g(b),f(1)). p(g(X),Y).");
  Predicate* p = Pred("p", 2);
  ASSERT_TRUE(program_.DeclareFirstString(p->functor()).ok());
  std::string dump = p->first_string_index()->Dump(symbols_);
  // The trie discriminates g/1 then {a, b, var}; see Figure 3.
  EXPECT_NE(dump.find("g/1"), std::string::npos);
  EXPECT_NE(dump.find("f/1"), std::string::npos);
  // 4 strings: g a f, g a f a, g b f 1, g  -> shared prefix g/1.
  EXPECT_EQ(p->first_string_index()->NodeCount(), 8u);
}

TEST_F(IndexTest, RetractTombstonesStayOutOfLiveCount) {
  Load("t(1). t(2). t(3).");
  Predicate* p = Pred("t", 1);
  EXPECT_EQ(p->num_live_clauses(), 3u);
  p->EraseClause(1);
  EXPECT_EQ(p->num_live_clauses(), 2u);
  // Candidates may include the tombstone; caller filters.
  auto c = p->Candidates(store_, Parse("t(2)"));
  ASSERT_EQ(c.size(), 1u);
  EXPECT_TRUE(p->clause(c[0]).erased);
}

TEST_F(IndexTest, AssertaPrependsAndReindexes) {
  Load("u(1,a). u(2,b).");
  Word front = Parse("u(1,z)");
  ASSERT_TRUE(program_.AddClauseTerm(store_, front, /*front=*/true).ok());
  Predicate* p = Pred("u", 2);
  auto c = p->Candidates(store_, Parse("u(1,Q)"));
  ASSERT_EQ(c.size(), 2u);
  // The prepended clause must come first. Clause ids are stable, so it has
  // the next free id (2) rather than renumbering the others.
  EXPECT_EQ(c[0], 2u);
  EXPECT_EQ(c[1], 0u);
  EXPECT_EQ(Ids(p->AllClauses()), (std::vector<ClauseId>{2, 0, 1}));
}

TEST_F(IndexTest, CandidateViewIsASnapshotOfTheClauseOrder) {
  // The logical update view: clauses added after a view was taken, at
  // either end, stay outside it; clauses taken before keep their ids.
  Load("v(1,a). v(X,b). v(2,c).");
  Predicate* p = Pred("v", 2);
  Word goal = Parse("v(1,Q)");
  CandidateView keyed = p->Candidates(store_, goal);
  CandidateView all = p->Candidates(store_, Parse("v(K,Q)"));
  ASSERT_EQ(Ids(keyed), (std::vector<ClauseId>{0, 1}));
  ASSERT_TRUE(program_.AddClauseTerm(store_, Parse("v(1,d)"), true).ok());
  ASSERT_TRUE(program_.AddClauseTerm(store_, Parse("v(1,e)")).ok());
  ASSERT_TRUE(program_.AddClauseTerm(store_, Parse("v(Y,f)"), true).ok());
  EXPECT_EQ(Ids(keyed), (std::vector<ClauseId>{0, 1}));
  EXPECT_EQ(Ids(all), (std::vector<ClauseId>{0, 1, 2}));
  // A new view sees them, in clause order.
  EXPECT_EQ(Ids(p->Candidates(store_, goal)),
            (std::vector<ClauseId>{5, 3, 0, 1, 4}));
  EXPECT_EQ(Ids(p->Candidates(store_, Parse("v(2,Q)"))),
            (std::vector<ClauseId>{5, 1, 2}));
}

TEST_F(IndexTest, FirstStringCandidatesPutAssertaClausesFirst) {
  Load("w(g(a),1). w(g(b),2).");
  Predicate* p = Pred("w", 2);
  ASSERT_TRUE(program_.DeclareFirstString(p->functor()).ok());
  ASSERT_TRUE(program_.AddClauseTerm(store_, Parse("w(g(a),3)"), true).ok());
  ASSERT_TRUE(program_.AddClauseTerm(store_, Parse("w(g(X),4)"), true).ok());
  ASSERT_TRUE(program_.AddClauseTerm(store_, Parse("w(g(a),5)")).ok());
  // Clause order: 4 (id 3), 3 (id 2), 1 (id 0), 2 (id 1), 5 (id 4).
  EXPECT_EQ(Ids(p->Candidates(store_, Parse("w(g(a),Z)"))),
            (std::vector<ClauseId>{3, 2, 0, 4}));
  EXPECT_EQ(Ids(p->Candidates(store_, Parse("w(g(b),Z)"))),
            (std::vector<ClauseId>{3, 1}));
}

TEST_F(IndexTest, SkipFlatSubtermWalksNestedTerms) {
  Word t = Parse("f(g(h(a),b),c)");
  FlatTerm flat = Flatten(store_, t);
  // Stream: f/2 g/2 h/1 a b c
  EXPECT_EQ(SkipFlatSubterm(symbols_, flat.cells, 0), flat.cells.size());
  EXPECT_EQ(SkipFlatSubterm(symbols_, flat.cells, 1), 5u);  // g(h(a),b)
  EXPECT_EQ(SkipFlatSubterm(symbols_, flat.cells, 2), 4u);  // h(a)
}

TEST_F(IndexTest, PropertyIndexedLookupEqualsLinearScan) {
  // Property test: for a pyramid of facts, every bound query returns the
  // same candidate set through the hash index as a linear scan filter.
  std::string text;
  for (int i = 0; i < 40; ++i) {
    text +=
        "fact(" + std::to_string(i % 7) + "," + std::to_string(i) + "). ";
  }
  Load(text);
  Predicate* p = Pred("fact", 2);
  for (int key = 0; key < 9; ++key) {
    auto indexed =
        p->Candidates(store_, Parse("fact(" + std::to_string(key) + ",X)"));
    std::vector<ClauseId> linear;
    for (ClauseId id = 0; id < p->clauses().size(); ++id) {
      const Clause& clause = p->clause(id);
      size_t pos = FlatArgPos(symbols_, clause.term.cells, clause.head_pos, 0);
      if (clause.term.cells[pos] == IntCell(key)) linear.push_back(id);
    }
    EXPECT_EQ(Ids(indexed), linear) << "key " << key;
  }
}

}  // namespace
}  // namespace xsb
