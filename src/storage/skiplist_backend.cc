#include "storage/skiplist_backend.h"

namespace streamsi {

SkipListBackend::SkipListBackend(const BackendOptions& /*options*/) {}

Status SkipListBackend::Get(std::string_view key, std::string* value) const {
  if (!list_.Get(key, value)) return Status::NotFound();
  return Status::OK();
}

Status SkipListBackend::Put(std::string_view key, std::string_view value,
                            bool /*sync*/) {
  std::string old;
  const bool existed = list_.Get(key, &old);
  list_.Upsert(key, value, /*tombstone=*/false);
  if (!existed) live_count_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status SkipListBackend::Delete(std::string_view key, bool /*sync*/) {
  std::string old;
  if (list_.Get(key, &old)) {
    live_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  list_.Upsert(key, "", /*tombstone=*/true);
  return Status::OK();
}

Status SkipListBackend::Scan(const ScanCallback& callback) const {
  Status status = Status::OK();
  list_.Iterate([&](std::string_view key, std::string_view value,
                    bool tombstone) {
    if (tombstone) return true;
    return callback(key, value);
  });
  return status;
}

std::uint64_t SkipListBackend::ApproximateCount() const {
  return live_count_.load(std::memory_order_relaxed);
}

}  // namespace streamsi
