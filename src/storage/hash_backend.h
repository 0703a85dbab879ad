// Sharded in-memory hash map backend (volatile).

#ifndef STREAMSI_STORAGE_HASH_BACKEND_H_
#define STREAMSI_STORAGE_HASH_BACKEND_H_

#include <array>
#include <atomic>
#include <string>
#include <unordered_map>

#include "common/latch.h"
#include "storage/backend.h"

namespace streamsi {

/// Volatile hash backend: N shards, each an unordered_map guarded by an
/// RwLatch. Scans are unordered.
class HashTableBackend final : public TableBackend {
 public:
  explicit HashTableBackend(const BackendOptions& options = {});

  Status Get(std::string_view key, std::string* value) const override;
  Status Put(std::string_view key, std::string_view value, bool sync) override;
  Status Delete(std::string_view key, bool sync) override;
  Status Scan(const ScanCallback& callback) const override;
  std::uint64_t ApproximateCount() const override;
  Status Flush() override { return Status::OK(); }
  bool IsPersistent() const override { return false; }
  std::string_view Name() const override { return "hash"; }

 private:
  static constexpr std::size_t kShards = 64;

  struct Shard {
    mutable RwLatch latch;
    std::unordered_map<std::string, std::string> map;
  };

  std::size_t ShardFor(std::string_view key) const;

  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> count_{0};
};

}  // namespace streamsi

#endif  // STREAMSI_STORAGE_HASH_BACKEND_H_
