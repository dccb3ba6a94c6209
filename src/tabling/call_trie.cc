#include "tabling/call_trie.h"

namespace xsb {

TokenScratch& CallTrie::Scratch() {
  static thread_local TokenScratch scratch;
  return scratch;
}

FlatTerm CallTrie::DecodeLastCall() const {
  return interns_->Decode(Scratch().tokens);
}

bool CallTrie::EncodeCall(const TermStore& store, Word goal, bool probing,
                          TokenScratch* scratch) const {
  scratch->Reset();
  Word x = store.Deref(goal);
  if (!IsStruct(x)) {
    if (probing) return interns_->ProbeHeap(store, x, scratch);
    interns_->EncodeHeap(store, x, scratch, nullptr);
    return true;
  }
  FunctorId f = store.StructFunctor(x);
  scratch->tokens.push_back(FunctorCell(f));
  int arity = interns_->symbols().FunctorArity(f);
  for (int i = 0; i < arity; ++i) {
    if (probing) {
      if (!interns_->ProbeHeap(store, store.Arg(x, i), scratch)) return false;
    } else {
      interns_->EncodeHeap(store, store.Arg(x, i), scratch, nullptr);
    }
  }
  return true;
}

TokenTrie::NodeId CallTrie::LookupOrInsert(const TermStore& store, Word goal) {
  TokenScratch& scratch = Scratch();
  EncodeCall(store, goal, /*probing=*/false, &scratch);
  TokenTrie::NodeId node = TokenTrie::root();
  for (Word token : scratch.tokens) {
    node = trie_.Extend(node, token, nullptr);
  }
  return node;
}

TokenTrie::NodeId CallTrie::Probe(const TermStore& store, Word goal) const {
  TokenScratch& scratch = Scratch();
  if (!EncodeCall(store, goal, /*probing=*/true, &scratch)) {
    return TokenTrie::kNilNode;
  }
  TokenTrie::NodeId node = TokenTrie::root();
  for (Word token : scratch.tokens) {
    node = trie_.Find(node, token);
    if (node == TokenTrie::kNilNode) return TokenTrie::kNilNode;
  }
  return node;
}

}  // namespace xsb
