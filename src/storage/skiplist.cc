#include "storage/skiplist.h"

#include <cstdlib>
#include <new>

namespace streamsi {

SkipList::SkipList() { head_ = NewNode("", kMaxHeight); }

SkipList::~SkipList() {
  Node* node = head_;
  while (node != nullptr) {
    Node* next = node->Next(0);
    node->~Node();
    std::free(node);
    node = next;
  }
}

SkipList::Node* SkipList::NewNode(std::string_view key, int height) {
  const std::size_t size =
      sizeof(Node) + sizeof(std::atomic<Node*>) * (height - 1);
  void* mem = std::malloc(size);
  Node* node = new (mem) Node();
  node->key.assign(key.data(), key.size());
  node->height = height;
  for (int i = 0; i < height; ++i) node->SetNext(i, nullptr);
  return node;
}

int SkipList::RandomHeight() {
  std::lock_guard<SpinLock> guard(rng_lock_);
  int height = 1;
  while (height < kMaxHeight && (rng_.Next() & 3) == 0) ++height;
  return height;
}

SkipList::Node* SkipList::FindGreaterOrEqual(std::string_view key,
                                             Node** prev) const {
  Node* node = head_;
  int level = max_height_.load(std::memory_order_acquire) - 1;
  for (;;) {
    Node* next = node->Next(level);
    if (next != nullptr && next->key < key) {
      node = next;
    } else {
      if (prev != nullptr) prev[level] = node;
      if (level == 0) return next;
      --level;
    }
  }
}

void SkipList::Upsert(std::string_view key, std::string_view value,
                      bool tombstone) {
  for (;;) {
    Node* prev[kMaxHeight];
    Node* found = FindGreaterOrEqual(key, prev);
    if (found != nullptr && found->key == key) {
      std::lock_guard<SpinLock> guard(found->value_lock);
      approximate_bytes_.fetch_add(value.size() - found->value.size(),
                                   std::memory_order_relaxed);
      found->value.assign(value.data(), value.size());
      found->tombstone = tombstone;
      ++found->version;
      return;
    }

    const int height = RandomHeight();
    int cur_max = max_height_.load(std::memory_order_relaxed);
    while (height > cur_max &&
           !max_height_.compare_exchange_weak(cur_max, height,
                                              std::memory_order_acq_rel)) {
    }
    for (int i = cur_max; i < height; ++i) prev[i] = head_;

    Node* node = NewNode(key, height);
    {
      std::lock_guard<SpinLock> guard(node->value_lock);
      node->value.assign(value.data(), value.size());
      node->tombstone = tombstone;
    }

    // Link bottom level first with CAS; on conflict, retry the whole insert.
    node->SetNext(0, found);
    if (!prev[0]->CasNext(0, found, node)) {
      node->~Node();
      std::free(node);
      continue;  // someone inserted concurrently; retry
    }
    node_count_.fetch_add(1, std::memory_order_relaxed);
    approximate_bytes_.fetch_add(
        sizeof(Node) + key.size() + value.size() + 16 * height,
        std::memory_order_relaxed);

    // Upper levels are best-effort: a failed CAS leaves the node reachable
    // via level 0, which preserves correctness.
    for (int level = 1; level < height; ++level) {
      for (;;) {
        Node* next = prev[level]->Next(level);
        if (next != nullptr && next->key < node->key) {
          // A concurrent insert moved the predecessor; re-locate.
          Node* p = prev[level];
          while (true) {
            Node* n = p->Next(level);
            if (n == nullptr || n->key >= node->key) break;
            p = n;
          }
          prev[level] = p;
          continue;
        }
        node->SetNext(level, next);
        if (prev[level]->CasNext(level, next, node)) break;
      }
    }
    return;
  }
}

bool SkipList::Get(std::string_view key, std::string* value,
                   bool* is_tombstone) const {
  Node* node = FindGreaterOrEqual(key, nullptr);
  if (node == nullptr || node->key != key) return false;
  std::lock_guard<SpinLock> guard(node->value_lock);
  if (is_tombstone != nullptr) *is_tombstone = node->tombstone;
  if (node->tombstone) return false;
  *value = node->value;
  return true;
}

void SkipList::Iterate(
    const std::function<bool(std::string_view, std::string_view, bool)>&
        callback) const {
  Node* node = head_->Next(0);
  while (node != nullptr) {
    std::string value;
    bool tombstone;
    {
      std::lock_guard<SpinLock> guard(node->value_lock);
      value = node->value;
      tombstone = node->tombstone;
    }
    if (!callback(node->key, value, tombstone)) return;
    node = node->Next(0);
  }
}

}  // namespace streamsi
