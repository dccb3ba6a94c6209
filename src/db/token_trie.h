#ifndef XSB_DB_TOKEN_TRIE_H_
#define XSB_DB_TOKEN_TRIE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/concurrent.h"
#include "term/cell.h"

namespace xsb {

// The trie node machinery shared by the first-string clause index
// (db/trie_index.h), the answer tries of table space, and the call trie's
// variant index (tabling/call_trie.h). A trie edge is labelled with one
// token Word (functor / atom / int / local-variable / interned cell).
//
// Nodes are addressed by dense 32-bit ids into an append-only block arena,
// so every link (parent, child, sibling) is 4 bytes instead of a pointer and
// a node packs into 32 bytes — the table-space-resident structure this
// engine allocates most of. Ids are stable for the life of the trie (until
// Clear), and nodes never move: growth allocates new blocks.
//
// Concurrency contract (the invariant the shared-table serving layer relies
// on, frozen here as API):
//   * At most ONE mutator at a time (Extend / set_payload / Clear); the
//     table space serializes mutation under its evaluation lock.
//   * Any number of readers (Find, token, parent, payload, walks from a
//     leaf to the root) may run concurrently with that mutator. New
//     children are prepended and published with a release store, so a
//     reader either sees a fully initialized child or none at all.
//   * A concurrent Find may therefore *miss* a just-inserted child — a
//     negative result is advisory and callers on lock-free paths must
//     re-check under the lock; a positive result is definitive.
//   * Clear requires quiescence (no concurrent readers).
//
// Children hang off an intrusive first-child/next-sibling chain, so a node
// costs no heap allocations of its own; lookup scans the chain for the
// common low-fanout case and escalates to a lock-free-readable hash index
// once a node's fanout exceeds kHashThreshold (the XSB trie's buckets). The
// sibling chain is kept intact after escalation, so readers holding a stale
// view of the node still terminate correctly.
class TokenTrie {
 public:
  using NodeId = uint32_t;

  static constexpr NodeId kNilNode = 0xffffffffu;
  static constexpr uint32_t kNoPayload = 0xffffffffu;
  static constexpr uint32_t kNoChildMap = 0xffffffffu;
  static constexpr uint32_t kHashThreshold = 8;

  struct Node {
    Word token = 0;  // edge label from the parent to this node
    NodeId parent = kNilNode;
    std::atomic<NodeId> first_child{kNilNode};
    NodeId next_sibling = kNilNode;
    std::atomic<uint32_t> child_map{kNoChildMap};
    uint32_t num_children = 0;  // writer-side escalation bookkeeping
    std::atomic<uint32_t> payload{kNoPayload};
  };
  static_assert(sizeof(Node) == 32);

  TokenTrie() { Reset(); }
  TokenTrie(const TokenTrie&) = delete;
  TokenTrie& operator=(const TokenTrie&) = delete;
  ~TokenTrie() { FreeChildMaps(); }

  static constexpr NodeId root() { return 0; }

  Word token(NodeId id) const { return nodes_[id].token; }
  NodeId parent(NodeId id) const { return nodes_[id].parent; }
  NodeId first_child(NodeId id) const {
    return nodes_[id].first_child.load(std::memory_order_acquire);
  }
  NodeId next_sibling(NodeId id) const { return nodes_[id].next_sibling; }

  uint32_t payload(NodeId id) const {
    return nodes_[id].payload.load(std::memory_order_acquire);
  }
  void set_payload(NodeId id, uint32_t payload) {
    nodes_[id].payload.store(payload, std::memory_order_release);
  }

  // Child of `id` along `token`, created if absent (writer only). *created
  // (may be null) reports whether a new node was allocated.
  NodeId Extend(NodeId id, Word token, bool* created);

  // Lookup-only step; kNilNode if no such child. Safe concurrently with one
  // Extend-er; a miss is advisory (see class comment).
  NodeId Find(NodeId id, Word token) const;

  // Children of `id` in ascending token order (deterministic iteration for
  // dumps and subtree collection). Writer-side / quiescent use.
  std::vector<NodeId> SortedChildren(NodeId id) const;

  size_t node_count() const { return nodes_.size(); }

  // Approximate resident bytes of the trie structure (node arena blocks
  // plus escalated child indexes). The child indexes a Clear keeps for
  // reuse are not counted.
  size_t bytes() const;
  // bytes() of a trie that was never cleared and holds these nodes: the
  // arena blocks a Clear keeps for reuse are not counted either.
  size_t used_bytes() const;

  // Drops every node (writer only, requires quiescence). The escalated child
  // indexes are emptied and kept for the next escalations.
  void Clear();

 private:
  void Reset();
  void FreeChildMaps();

  // Arena; ids stable, nodes never move. The first block holds 16 nodes
  // (512 bytes): a table space holds one trie per answer table, and most
  // of them stay that small.
  ConcurrentArena<Node, 4> nodes_;
  ConcurrentArena<AtomicKeyMap*, 4> child_maps_;  // escalated child indexes
  // Emptied child indexes of earlier Clears, reused by escalation: at most
  // as many as the trie ever held at once.
  std::vector<AtomicKeyMap*> spare_maps_;
};

}  // namespace xsb

#endif  // XSB_DB_TOKEN_TRIE_H_
