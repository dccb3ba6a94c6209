#ifndef XSB_TABLING_CALL_TRIE_H_
#define XSB_TABLING_CALL_TRIE_H_

#include <cstddef>
#include <vector>

#include "db/token_trie.h"
#include "term/flat.h"
#include "term/intern.h"
#include "term/store.h"

namespace xsb {

// The call trie: XSB's variant-based subgoal index (section 3.2), realized
// over the shared TokenTrie. A tabled call is tokenized straight from the
// live heap term by the engine's one heap-to-token encoder
// (InternTable::EncodeHeap, shared with the answer tries) — no intermediate
// FlatTerm is materialized: variables become kLocal cells numbered by first
// occurrence, and every maximal ground compound subterm collapses to one
// kInterned token via the engine-wide intern store (so a repeated ground
// call is a handful of trie steps regardless of its size). Two calls are
// variants iff their token streams are equal iff they reach the same leaf.
//
// The leaf payload is owner-defined (table space stores the SubgoalId).
// Payloads can be cleared (abolish_table_call/1) without removing the path;
// a later variant call reuses the nodes and just re-sets the payload.
//
// Concurrency: LookupOrInsert mutates and must run under the table space's
// evaluation lock (single mutator). Probe is lock-free and may run from any
// number of serving threads concurrently with one inserter — its walk
// scratch is thread-local, and a kNilNode result is advisory (it can miss a
// variant inserted concurrently; the serving layer re-checks under the
// lock). DecodeLastCall reads the calling thread's own scratch, valid until
// that thread's next walk.
class CallTrie {
 public:
  explicit CallTrie(InternTable* interns) : interns_(interns) {}
  CallTrie(const CallTrie&) = delete;
  CallTrie& operator=(const CallTrie&) = delete;

  // Walks (and extends) the trie for the call `goal`; returns its leaf.
  TokenTrie::NodeId LookupOrInsert(const TermStore& store, Word goal);

  // Lookup-only walk; TokenTrie::kNilNode if no variant of `goal` was ever
  // inserted. Never mutates the trie or the intern store: ground compounds
  // are probed with InternTable::ProbeHeap, and a compound that was never
  // interned cannot occur in any stored call.
  TokenTrie::NodeId Probe(const TermStore& store, Word goal) const;

  uint32_t payload(TokenTrie::NodeId leaf) const {
    return trie_.payload(leaf);
  }
  void set_payload(TokenTrie::NodeId leaf, uint32_t payload) {
    trie_.set_payload(leaf, payload);
  }

  // Canonical FlatTerm of the last encoded call (the subgoal's answer
  // template); only needed on the miss path when a new subgoal is created.
  FlatTerm DecodeLastCall() const;

  size_t node_count() const { return trie_.node_count(); }
  size_t bytes() const { return trie_.bytes(); }

  void Clear() { trie_.Clear(); }

 private:
  // Per-thread walk scratch (see class comment).
  static TokenScratch& Scratch();

  // Tokenizes the whole call into the scratch: the top functor is kept as
  // its own token (as in AnswerTrie streams), each argument is encoded.
  // With `probing`, interns nothing and returns false on a never-interned
  // ground compound.
  bool EncodeCall(const TermStore& store, Word goal, bool probing,
                  TokenScratch* scratch) const;

  InternTable* interns_;
  TokenTrie trie_;
};

}  // namespace xsb

#endif  // XSB_TABLING_CALL_TRIE_H_
