#include "ds/btree.h"

#include <cstring>
#include <vector>

#include "common/cacheline.h"

namespace dstore {

namespace {
// Move `n` (key,value) pairs within/between nodes.
void move_kv(BTree::Node* dst, int dpos, const BTree::Node* src, int spos, int n) {
  std::memmove(&dst->keys[dpos], &src->keys[spos], n * sizeof(Key));
  std::memmove(&dst->vals[dpos], &src->vals[spos], n * sizeof(uint64_t));
}
void move_children(BTree::Node* dst, int dpos, const BTree::Node* src, int spos, int n) {
  std::memmove(&dst->children[dpos], &src->children[spos], n * sizeof(offset_t));
}

// Index of first key >= k; sets *found if equal. The binary search's probes
// are dependent loads — about five cache misses in a row on a cold node — so
// every line holding a live key is prefetched first and the misses overlap.
int lower_bound(const BTree::Node* n, const Key& k, bool* found) {
  uintptr_t end = reinterpret_cast<uintptr_t>(&n->keys[n->count]);
  for (uintptr_t line = line_down(reinterpret_cast<uintptr_t>(n->keys)); line < end;
       line += kCacheLineSize) {
    __builtin_prefetch(reinterpret_cast<const void*>(line));
  }
  int lo = 0, hi = n->count;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (n->keys[mid].compare(k) < 0)
      lo = mid + 1;
    else
      hi = mid;
  }
  *found = lo < n->count && n->keys[lo].compare(k) == 0;
  return lo;
}
}  // namespace

Result<OffPtr<BTree::Header>> BTree::create(SlabAllocator& sp) {
  auto h = sp.alloc_object<Header>();
  if (h.is_null()) return Status::out_of_space("btree header");
  return h;
}

offset_t BTree::alloc_node(bool leaf) {
  offset_t off = sp_->alloc_zeroed(sizeof(Node));
  if (off == 0) return 0;
  Node* n = node(off);
  n->leaf = leaf ? 1 : 0;
  hdr()->node_count++;
  return off;
}

void BTree::free_node(offset_t off) {
  // An invalid slab tag here means in-arena corruption: refuse the free
  // (leaking the node) and leave node_count unchanged so the mismatch stays
  // visible to validation instead of threading a bad block into free lists.
  if (!sp_->free(off).is_ok()) return;
  hdr()->node_count--;
}

std::optional<uint64_t> BTree::find(const Key& k) const {
  offset_t cur = hdr()->root;
  while (cur != 0) {
    const Node* n = node(cur);
    bool found;
    int i = lower_bound(n, k, &found);
    if (found) return n->vals[i];
    if (n->leaf) return std::nullopt;
    cur = n->children[i];
  }
  return std::nullopt;
}

void BTree::split_child(Node* parent, int child_idx) {
  offset_t coff = parent->children[child_idx];
  Node* c = node(coff);
  offset_t zoff = alloc_node(c->leaf != 0);
  // Allocation failure here would leave the split half-done; callers
  // pre-size arenas so node allocation cannot fail mid-operation. Guarded
  // by the capacity check in insert().
  Node* z = node(zoff);
  constexpr int t = kMinDegree;
  z->count = t - 1;
  move_kv(z, 0, c, t, t - 1);
  if (!c->leaf) move_children(z, 0, c, t, t);
  c->count = t - 1;
  // Shift parent entries right to make room for the median and new child.
  move_kv(parent, child_idx + 1, parent, child_idx, parent->count - child_idx);
  move_children(parent, child_idx + 2, parent, child_idx + 1, parent->count - child_idx);
  parent->keys[child_idx] = c->keys[t - 1];
  parent->vals[child_idx] = c->vals[t - 1];
  parent->children[child_idx + 1] = zoff;
  parent->count++;
}

Status BTree::insert(const Key& k, uint64_t value) {
  bool existed = false;
  DSTORE_RETURN_IF_ERROR(upsert_impl(k, value, /*upsert=*/false, &existed));
  return existed ? Status::already_exists(k.str()) : Status::ok();
}

Status BTree::upsert(const Key& k, uint64_t value, bool* existed) {
  bool e = false;
  DSTORE_RETURN_IF_ERROR(upsert_impl(k, value, /*upsert=*/true, &e));
  if (existed != nullptr) *existed = e;
  return Status::ok();
}

Status BTree::upsert_impl(const Key& k, uint64_t value, bool upsert, bool* existed) {
  Header* h = hdr();
  if (h->root == 0) {
    offset_t r = alloc_node(true);
    if (r == 0) return Status::out_of_space("btree root");
    h->root = r;
  }
  Node* root = node(h->root);
  if (root->count == kMaxKeys) {
    offset_t new_root_off = alloc_node(false);
    if (new_root_off == 0) return Status::out_of_space("btree root split");
    Node* new_root = node(new_root_off);
    new_root->children[0] = h->root;
    h->root = new_root_off;
    split_child(new_root, 0);
  }
  return insert_nonfull(h->root, k, value, upsert, existed);
}

Status BTree::insert_nonfull(offset_t node_off, const Key& k, uint64_t value, bool upsert,
                             bool* existed) {
  Node* n = node(node_off);
  bool found;
  int i = lower_bound(n, k, &found);
  if (found) {
    *existed = true;
    if (!upsert) return Status::ok();  // caller maps existed -> kAlreadyExists
    n->vals[i] = value;
    return Status::ok();
  }
  if (n->leaf) {
    move_kv(n, i + 1, n, i, n->count - i);
    n->keys[i] = k;
    n->vals[i] = value;
    n->count++;
    hdr()->size++;
    *existed = false;
    return Status::ok();
  }
  if (node(n->children[i])->count == kMaxKeys) {
    split_child(n, i);
    // After the split, the median moved up to position i; re-decide side.
    int c = n->keys[i].compare(k);
    if (c == 0) {
      *existed = true;
      if (upsert) n->vals[i] = value;
      return Status::ok();
    }
    if (c < 0) i++;
  }
  return insert_nonfull(n->children[i], k, value, upsert, existed);
}

Status BTree::erase(const Key& k) {
  Header* h = hdr();
  if (h->root == 0) return Status::not_found(k.str());
  DSTORE_RETURN_IF_ERROR(erase_from(h->root, k));
  Node* root = node(h->root);
  if (root->count == 0) {
    offset_t old = h->root;
    h->root = root->leaf ? 0 : root->children[0];
    free_node(old);
  }
  h->size--;
  return Status::ok();
}

Status BTree::erase_from(offset_t node_off, const Key& k) {
  Node* n = node(node_off);
  bool found;
  int i = lower_bound(n, k, &found);
  if (found) {
    if (n->leaf) {
      move_kv(n, i, n, i + 1, n->count - i - 1);
      n->count--;
      return Status::ok();
    }
    Node* left = node(n->children[i]);
    if (left->count >= kMinDegree) {
      // Replace with predecessor, then delete the predecessor below.
      offset_t cur = n->children[i];
      while (!node(cur)->leaf) cur = node(cur)->children[node(cur)->count];
      Node* leaf = node(cur);
      Key pred_k = leaf->keys[leaf->count - 1];
      uint64_t pred_v = leaf->vals[leaf->count - 1];
      n->keys[i] = pred_k;
      n->vals[i] = pred_v;
      return erase_from(n->children[i], pred_k);
    }
    Node* right = node(n->children[i + 1]);
    if (right->count >= kMinDegree) {
      offset_t cur = n->children[i + 1];
      while (!node(cur)->leaf) cur = node(cur)->children[0];
      Node* leaf = node(cur);
      Key succ_k = leaf->keys[0];
      uint64_t succ_v = leaf->vals[0];
      n->keys[i] = succ_k;
      n->vals[i] = succ_v;
      return erase_from(n->children[i + 1], succ_k);
    }
    // Both children minimal: merge them around k, then delete k inside.
    merge_children(n, i);
    return erase_from(n->children[i], k);
  }
  if (n->leaf) return Status::not_found(k.str());
  if (node(n->children[i])->count < kMinDegree) {
    i = fill_child_idx(n, i);
  }
  return erase_from(n->children[i], k);
}

int BTree::fill_child_idx(Node* parent, int idx) {
  Node* child = node(parent->children[idx]);
  if (idx > 0 && node(parent->children[idx - 1])->count >= kMinDegree) {
    // Borrow from left sibling: rotate through the parent separator.
    Node* left = node(parent->children[idx - 1]);
    move_kv(child, 1, child, 0, child->count);
    if (!child->leaf) move_children(child, 1, child, 0, child->count + 1);
    child->keys[0] = parent->keys[idx - 1];
    child->vals[0] = parent->vals[idx - 1];
    if (!child->leaf) child->children[0] = left->children[left->count];
    parent->keys[idx - 1] = left->keys[left->count - 1];
    parent->vals[idx - 1] = left->vals[left->count - 1];
    left->count--;
    child->count++;
    return idx;
  }
  if (idx < parent->count && node(parent->children[idx + 1])->count >= kMinDegree) {
    // Borrow from right sibling.
    Node* right = node(parent->children[idx + 1]);
    child->keys[child->count] = parent->keys[idx];
    child->vals[child->count] = parent->vals[idx];
    if (!child->leaf) child->children[child->count + 1] = right->children[0];
    parent->keys[idx] = right->keys[0];
    parent->vals[idx] = right->vals[0];
    move_kv(right, 0, right, 1, right->count - 1);
    if (!right->leaf) move_children(right, 0, right, 1, right->count);
    right->count--;
    child->count++;
    return idx;
  }
  // Merge with a sibling.
  if (idx < parent->count) {
    merge_children(parent, idx);
    return idx;
  }
  merge_children(parent, idx - 1);
  return idx - 1;
}

void BTree::merge_children(Node* parent, int idx) {
  // Merge child[idx], separator key idx, and child[idx+1] into child[idx].
  offset_t loff = parent->children[idx];
  offset_t roff = parent->children[idx + 1];
  Node* l = node(loff);
  Node* r = node(roff);
  l->keys[l->count] = parent->keys[idx];
  l->vals[l->count] = parent->vals[idx];
  move_kv(l, l->count + 1, r, 0, r->count);
  if (!l->leaf) move_children(l, l->count + 1, r, 0, r->count + 1);
  l->count += 1 + r->count;
  move_kv(parent, idx, parent, idx + 1, parent->count - idx - 1);
  move_children(parent, idx + 1, parent, idx + 2, parent->count - idx - 1);
  parent->count--;
  free_node(roff);
}

void BTree::for_each(const std::function<bool(const Key&, uint64_t)>& fn) const {
  // Iterative in-order traversal with an explicit stack of (node, position).
  struct Frame {
    offset_t off;
    int pos;
  };
  std::vector<Frame> stack;
  offset_t root = hdr()->root;
  if (root == 0) return;
  stack.push_back({root, 0});
  while (!stack.empty()) {
    Frame& f = stack.back();
    const Node* n = node(f.off);
    if (n->leaf) {
      for (int i = 0; i < n->count; i++) {
        if (!fn(n->keys[i], n->vals[i])) return;
      }
      stack.pop_back();
      continue;
    }
    if (f.pos > 0 && f.pos <= n->count) {
      // Emit separator key after returning from child pos-1.
      if (!fn(n->keys[f.pos - 1], n->vals[f.pos - 1])) return;
    }
    if (f.pos <= n->count) {
      int child = f.pos;
      f.pos++;
      stack.push_back({n->children[child], 0});
    } else {
      stack.pop_back();
    }
  }
}

Status BTree::validate() const {
  const Header* h = hdr();
  if (h->root == 0) {
    return h->size == 0 ? Status::ok() : Status::corruption("empty tree with nonzero size");
  }
  // Determine leaf depth from the leftmost path.
  int leaf_depth = 0;
  offset_t cur = h->root;
  while (!node(cur)->leaf) {
    cur = node(cur)->children[0];
    leaf_depth++;
  }
  uint64_t key_count = 0;
  DSTORE_RETURN_IF_ERROR(validate_node(h->root, nullptr, nullptr, 0, leaf_depth, &key_count));
  if (key_count != h->size) return Status::corruption("size bookkeeping mismatch");
  return Status::ok();
}

Status BTree::validate_node(offset_t off, const Key* lo, const Key* hi, int depth, int leaf_depth,
                            uint64_t* key_count) const {
  const Node* n = node(off);
  bool is_root = off == hdr()->root;
  if (n->count > kMaxKeys) return Status::corruption("node overfull");
  if (!is_root && n->count < kMinKeys) return Status::corruption("node underfull");
  if (is_root && n->count < 1) return Status::corruption("root empty");
  if (n->leaf && depth != leaf_depth) return Status::corruption("leaves at different depths");
  if (!n->leaf && depth >= leaf_depth) return Status::corruption("internal node below leaf depth");
  for (int i = 0; i < n->count; i++) {
    if (i > 0 && n->keys[i - 1].compare(n->keys[i]) >= 0)
      return Status::corruption("keys out of order");
    if (lo != nullptr && lo->compare(n->keys[i]) >= 0) return Status::corruption("key below bound");
    if (hi != nullptr && n->keys[i].compare(*hi) >= 0) return Status::corruption("key above bound");
  }
  *key_count += n->count;
  if (!n->leaf) {
    for (int i = 0; i <= n->count; i++) {
      const Key* clo = i == 0 ? lo : &n->keys[i - 1];
      const Key* chi = i == n->count ? hi : &n->keys[i];
      DSTORE_RETURN_IF_ERROR(
          validate_node(n->children[i], clo, chi, depth + 1, leaf_depth, key_count));
    }
  }
  return Status::ok();
}

}  // namespace dstore
