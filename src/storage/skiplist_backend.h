// Ordered in-memory backend built on the concurrent SkipList.

#ifndef STREAMSI_STORAGE_SKIPLIST_BACKEND_H_
#define STREAMSI_STORAGE_SKIPLIST_BACKEND_H_

#include <atomic>

#include "storage/backend.h"
#include "storage/skiplist.h"

namespace streamsi {

/// Volatile ordered backend; scans visit keys in byte order.
class SkipListBackend final : public TableBackend {
 public:
  explicit SkipListBackend(const BackendOptions& options = {});

  Status Get(std::string_view key, std::string* value) const override;
  Status Put(std::string_view key, std::string_view value, bool sync) override;
  Status Delete(std::string_view key, bool sync) override;
  Status Scan(const ScanCallback& callback) const override;
  std::uint64_t ApproximateCount() const override;
  Status Flush() override { return Status::OK(); }
  bool IsPersistent() const override { return false; }
  std::string_view Name() const override { return "skiplist"; }

 private:
  SkipList list_;
  std::atomic<std::uint64_t> live_count_{0};
};

}  // namespace streamsi

#endif  // STREAMSI_STORAGE_SKIPLIST_BACKEND_H_
