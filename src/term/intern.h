#ifndef XSB_TERM_INTERN_H_
#define XSB_TERM_INTERN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "base/concurrent.h"
#include "term/cell.h"
#include "term/flat.h"
#include "term/store.h"
#include "term/symbols.h"

namespace xsb {

// Id of a hash-consed ground compound term. Ids are dense and stable for the
// lifetime of the InternTable; two interned terms are equal iff their ids
// are equal, so ground-term comparison is one integer compare.
using InternId = uint32_t;

inline InternId InternIdOf(Word w) {
  return static_cast<InternId>(PayloadOf(w));
}

// Reusable state of the heap-to-token encoder (InternTable::EncodeHeap):
// the token stream built so far, the heap addresses of the variables
// numbered so far, and the walk's work stack. Reset starts a new stream;
// the buffers keep their capacity, so a warm encoder allocates nothing.
struct TokenScratch {
  struct Frame {
    Word term;       // dereferenced struct being encoded
    uint32_t mark;   // tokens[mark] is its functor token
    int32_t next;    // next argument to encode
    int32_t arity;
    bool ground;     // every argument so far was ground
  };
  std::vector<Word> tokens;
  std::vector<uint64_t> var_cells;
  std::vector<Frame> frames;

  void Reset() {
    tokens.clear();
    var_cells.clear();
  }
  uint32_t num_vars() const { return static_cast<uint32_t>(var_cells.size()); }
};

// Hash-consing store for ground terms (Warren, "Interning Ground Terms in
// XSB"): every distinct ground compound term is stored exactly once as a
// functor plus interned argument tokens, giving full structure sharing
// across table space. Atoms and integers are already canonical single
// cells, so only compound terms get table entries.
//
// A *token* is a Word that is either a plain atomic cell (kAtom / kInt), a
// kLocal variable cell, or a kInterned cell naming a stored compound term.
// Token streams are the compressed form of FlatTerm cell streams: every
// maximal ground compound subterm collapses to one kInterned token. Answer
// tries and canonical call keys are built over tokens, which is what makes
// tabled answer check/insert effectively constant-time on ground-heavy
// workloads.
//
// Concurrency: the store is shared by every serving thread of a
// QueryService. Reads (ProbeHeap, FindNode, AppendExpansion, Decode,
// ArgsOfId, ...) are lock-free — node and argument storage live in
// append-only arenas that never move, and the dedup index is an open bucket
// array of atomic chain heads published with release stores. Writes (the
// EncodeHeap miss path) take a shard lock chosen by the key's hash plus a
// single allocation lock for the arena appends; distinct shards dedup-check
// in parallel. A lock-free FindNode may miss a term interned concurrently —
// a miss is advisory (callers re-probe under the evaluation lock before
// concluding a call variant is new); a hit is definitive.
class InternTable {
 public:
  explicit InternTable(const SymbolTable* symbols);
  InternTable(const InternTable&) = delete;
  InternTable& operator=(const InternTable&) = delete;
  ~InternTable();

  // Appends the token stream of the heap term `t` to scratch->tokens: each
  // maximal ground compound subterm becomes one kInterned token, interned
  // on the way; atoms and ints pass through; unbound variables become
  // kLocal cells numbered by first occurrence across every Encode since the
  // scratch was last Reset (substitution factoring numbers an answer's
  // bindings as one stream). Adds to *flat_cells (may be null) the number
  // of cells Flatten would produce for `t`. Walks on an explicit stack.
  void EncodeHeap(const TermStore& store, Word t, TokenScratch* scratch,
                  size_t* flat_cells);

  // Lookup-only EncodeHeap: never interns. Returns false, with the stream
  // cut short, when `t` has a ground compound subterm that was never
  // interned — no stored token stream can contain it. Lock-free; a false
  // result is advisory under concurrency (see class comment).
  bool ProbeHeap(const TermStore& store, Word t, TokenScratch* scratch) const;

  // Appends the plain flat-cell expansion of `token` to *out (the inverse
  // of EncodeHeap, one token at a time). Lock-free.
  void AppendExpansion(Word token, std::vector<Word>* out) const;

  // Expands a whole token stream back into a FlatTerm. num_vars is
  // recomputed from the kLocal ordinals present. Lock-free.
  FlatTerm Decode(const std::vector<Word>& tokens) const;

  // Interns the compound (functor, args) where the args are already tokens
  // (EncodeHeap's step for each ground compound it closes).
  Word InternNode(FunctorId functor, const Word* args, int arity) {
    return MakeNode(functor, args, arity);
  }

  // Lock-free lookup-only probe: the token for hash-consed (functor, args)
  // if that compound has already been interned, or kNoToken if it has not.
  // The call trie uses this on its lock-free lookup path — a ground
  // compound absent from the intern table cannot appear in any stored call
  // either. A kNoToken result is advisory under concurrency (see class
  // comment).
  static constexpr Word kNoToken = ~Word{0};
  Word FindNode(FunctorId functor, const Word* args, int arity) const;

  const SymbolTable& symbols() const { return *symbols_; }

  // Functor and argument tokens of an interned compound. Lock-free.
  FunctorId FunctorOfId(InternId id) const { return nodes_[id].functor; }
  const Word* ArgsOfId(InternId id) const {
    return arg_pool_.at(nodes_[id].first_arg);
  }
  int ArityOfId(InternId id) const {
    return symbols_->FunctorArity(nodes_[id].functor);
  }

  // --- Statistics -----------------------------------------------------------

  size_t num_terms() const { return nodes_.size(); }
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  // Approximate resident bytes of the store (nodes + arg pool + hash index).
  size_t bytes() const;

 private:
  static constexpr InternId kNoId = 0xffffffffu;
  // Write-path shards. Bucket counts are always a multiple of kShards, and
  // shard(h) == bucket(h) % kShards, so each dedup bucket is owned by
  // exactly one shard lock and chain-head updates never race.
  static constexpr size_t kShards = 16;

  struct Node {
    FunctorId functor;
    uint32_t first_arg;  // offset of the args run in arg_pool_
    // Intrusive collision/bucket chain. Always strictly less than the id of
    // the node holding it (new nodes are prepended, and rebuilds process
    // ids in ascending order), so a reader walking a chain — even one
    // re-linked by a concurrent bucket-array growth — strictly descends
    // and terminates.
    std::atomic<InternId> next_same_hash{kNoId};

    Node(FunctorId f, uint32_t a, InternId next) : functor(f), first_arg(a) {
      next_same_hash.store(next, std::memory_order_relaxed);
    }
  };

  // Open bucket array: hash -> head of an intrusive next_same_hash chain.
  // Grown by rebuild under all shard locks; superseded arrays are retired
  // (not freed) so lock-free readers probing a stale array see at worst an
  // advisory miss.
  struct DedupTable {
    size_t capacity;  // power of two, >= kShards
    std::unique_ptr<std::atomic<InternId>[]> buckets;
  };

  // The heap walk behind EncodeHeap and ProbeHeap; `node` maps (functor,
  // argument tokens) to the compound's token, or kNoToken to stop.
  template <typename NodeFn>
  static bool EncodeWalk(const TermStore& store, Word t,
                         TokenScratch* scratch, size_t* flat_cells,
                         NodeFn node);

  // Hash-conses (functor, args); args are tokens.
  Word MakeNode(FunctorId functor, const Word* args, int arity);

  static uint64_t HashNode(FunctorId functor, const Word* args, int arity);
  bool NodeEquals(InternId id, FunctorId functor, const Word* args,
                  int arity) const;

  static DedupTable* NewDedupTable(size_t capacity);
  void GrowIfNeeded();

  const SymbolTable* symbols_;
  ConcurrentArena<Node> nodes_;
  ConcurrentArena<Word, 12> arg_pool_;
  std::atomic<DedupTable*> dedup_{nullptr};
  std::vector<DedupTable*> retired_dedup_;
  std::mutex shard_mutex_[kShards];
  // Serializes arena appends across shards (and guards retired_dedup_).
  // Lock order: shard lock(s) first, then alloc_mutex_.
  mutable std::mutex alloc_mutex_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace xsb

#endif  // XSB_TERM_INTERN_H_
