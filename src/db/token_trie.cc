#include "db/token_trie.h"

#include <algorithm>

namespace xsb {

TokenTrie::NodeId TokenTrie::Extend(NodeId id, Word token, bool* created) {
  Node& node = nodes_[id];
  uint32_t map_idx = node.child_map.load(std::memory_order_relaxed);
  if (map_idx != kNoChildMap) {
    uint32_t found = child_maps_[map_idx]->Find(token);
    if (found != AtomicKeyMap::kNotFound) {
      if (created != nullptr) *created = false;
      return found;
    }
  } else {
    for (NodeId c = node.first_child.load(std::memory_order_relaxed);
         c != kNilNode; c = nodes_[c].next_sibling) {
      if (nodes_[c].token == token) {
        if (created != nullptr) *created = false;
        return c;
      }
    }
  }
  // Construct the child fully, then publish it by prepending with a release
  // store: a concurrent reader that loads first_child either sees the old
  // head or the new, fully initialized node.
  NodeId child = static_cast<NodeId>(nodes_.EmplaceBack());
  Node& child_node = nodes_[child];
  child_node.token = token;
  child_node.parent = id;
  child_node.next_sibling = node.first_child.load(std::memory_order_relaxed);
  node.first_child.store(child, std::memory_order_release);
  ++node.num_children;
  if (map_idx != kNoChildMap) {
    child_maps_[map_idx]->Insert(token, child);
  } else if (node.num_children > kHashThreshold) {
    // Escalate: build the hash index over the full (already published)
    // sibling chain, then publish the map index with a release store. The
    // chain stays intact, so a reader holding the pre-escalation view of
    // the node still walks it correctly.
    AtomicKeyMap* map;
    if (spare_maps_.empty()) {
      map = new AtomicKeyMap(4 * kHashThreshold);
    } else {
      map = spare_maps_.back();
      spare_maps_.pop_back();
    }
    for (NodeId c = node.first_child.load(std::memory_order_relaxed);
         c != kNilNode; c = nodes_[c].next_sibling) {
      map->Insert(nodes_[c].token, c);
    }
    uint32_t idx = static_cast<uint32_t>(child_maps_.EmplaceBack(map));
    node.child_map.store(idx, std::memory_order_release);
  }
  if (created != nullptr) *created = true;
  return child;
}

TokenTrie::NodeId TokenTrie::Find(NodeId id, Word token) const {
  const Node& node = nodes_[id];
  uint32_t map_idx = node.child_map.load(std::memory_order_acquire);
  if (map_idx != kNoChildMap) {
    uint32_t found = child_maps_[map_idx]->Find(token);
    return found == AtomicKeyMap::kNotFound ? kNilNode : found;
  }
  for (NodeId c = node.first_child.load(std::memory_order_acquire);
       c != kNilNode; c = nodes_[c].next_sibling) {
    if (nodes_[c].token == token) return c;
  }
  return kNilNode;
}

std::vector<TokenTrie::NodeId> TokenTrie::SortedChildren(NodeId id) const {
  std::vector<NodeId> out;
  out.reserve(nodes_[id].num_children);
  for (NodeId c = nodes_[id].first_child.load(std::memory_order_acquire);
       c != kNilNode; c = nodes_[c].next_sibling) {
    out.push_back(c);
  }
  std::sort(out.begin(), out.end(), [this](NodeId a, NodeId b) {
    return nodes_[a].token < nodes_[b].token;
  });
  return out;
}

size_t TokenTrie::bytes() const {
  size_t total = nodes_.bytes() + child_maps_.bytes();
  size_t num_maps = child_maps_.size();
  for (size_t i = 0; i < num_maps; ++i) total += child_maps_[i]->bytes();
  return total;
}

size_t TokenTrie::used_bytes() const {
  size_t total = nodes_.used_bytes() + child_maps_.used_bytes();
  size_t num_maps = child_maps_.size();
  for (size_t i = 0; i < num_maps; ++i) total += child_maps_[i]->bytes();
  return total;
}

void TokenTrie::Clear() {
  size_t num_maps = child_maps_.size();
  for (size_t i = 0; i < num_maps; ++i) {
    child_maps_[i]->Clear(4 * kHashThreshold);
    spare_maps_.push_back(child_maps_[i]);
  }
  child_maps_.Clear();
  nodes_.Clear();
  Reset();
}

void TokenTrie::Reset() { nodes_.EmplaceBack(); }

void TokenTrie::FreeChildMaps() {
  size_t num_maps = child_maps_.size();
  for (size_t i = 0; i < num_maps; ++i) delete child_maps_[i];
  for (AtomicKeyMap* map : spare_maps_) delete map;
}

}  // namespace xsb
