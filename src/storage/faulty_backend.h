// FaultyBackend: failure-injection wrapper around any TableBackend, used by
// tests to prove that IO errors while checkpoint images are written fail
// only the checkpoint — never a commit, never a reader.
//
// Two ways to arm it, freely combined:
//   * the legacy counters (FailNextWrites / set_fail_reads), and
//   * a shared FaultSchedule (points "backend.put", "backend.delete",
//     "backend.get") — the SAME schedule object a FaultEnv uses, so one
//     test composes env-level (torn WAL write) and backend-level (failed
//     apply) faults without two fault vocabularies.

#ifndef STREAMSI_STORAGE_FAULTY_BACKEND_H_
#define STREAMSI_STORAGE_FAULTY_BACKEND_H_

#include <atomic>
#include <memory>

#include "common/fault_env.h"
#include "storage/backend.h"

namespace streamsi {

class FaultyBackend final : public TableBackend {
 public:
  explicit FaultyBackend(std::unique_ptr<TableBackend> inner,
                         FaultSchedule* schedule = nullptr)
      : inner_(std::move(inner)), schedule_(schedule) {}

  /// Makes the next `n` Put/Delete calls fail with IoError.
  void FailNextWrites(int n) {
    fail_writes_.store(n, std::memory_order_release);
  }
  /// Makes every Get fail until cleared.
  void set_fail_reads(bool fail) {
    fail_reads_.store(fail, std::memory_order_release);
  }

  std::uint64_t injected_failures() const {
    return injected_.load(std::memory_order_relaxed) +
           (schedule_ != nullptr ? schedule_->injected_failures() : 0);
  }

  Status Get(std::string_view key, std::string* value) const override {
    if (fail_reads_.load(std::memory_order_acquire)) {
      injected_.fetch_add(1, std::memory_order_relaxed);
      return Status::IoError("injected read failure");
    }
    if (schedule_ != nullptr) {
      STREAMSI_RETURN_NOT_OK(schedule_->Check("backend.get"));
    }
    return inner_->Get(key, value);
  }

  Status Put(std::string_view key, std::string_view value,
             bool sync) override {
    if (ConsumeWriteFault()) return Status::IoError("injected write failure");
    if (schedule_ != nullptr) {
      STREAMSI_RETURN_NOT_OK(schedule_->Check("backend.put"));
    }
    return inner_->Put(key, value, sync);
  }

  Status Delete(std::string_view key, bool sync) override {
    if (ConsumeWriteFault()) return Status::IoError("injected write failure");
    if (schedule_ != nullptr) {
      STREAMSI_RETURN_NOT_OK(schedule_->Check("backend.delete"));
    }
    return inner_->Delete(key, sync);
  }

  Status Scan(const ScanCallback& callback) const override {
    return inner_->Scan(callback);
  }
  std::uint64_t ApproximateCount() const override {
    return inner_->ApproximateCount();
  }
  Status Flush() override { return inner_->Flush(); }
  bool IsPersistent() const override { return inner_->IsPersistent(); }
  std::string_view Name() const override { return "faulty"; }
  Status HealthStatus() const override { return inner_->HealthStatus(); }
  std::uint64_t FlushRetries() const override {
    return inner_->FlushRetries();
  }

  TableBackend* inner() { return inner_.get(); }

 private:
  bool ConsumeWriteFault() {
    int remaining = fail_writes_.load(std::memory_order_acquire);
    while (remaining > 0) {
      if (fail_writes_.compare_exchange_weak(remaining, remaining - 1,
                                             std::memory_order_acq_rel)) {
        injected_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  std::unique_ptr<TableBackend> inner_;
  FaultSchedule* schedule_;  ///< optional, not owned (test-scoped)
  std::atomic<int> fail_writes_{0};
  std::atomic<bool> fail_reads_{false};
  mutable std::atomic<std::uint64_t> injected_{0};
};

}  // namespace streamsi

#endif  // STREAMSI_STORAGE_FAULTY_BACKEND_H_
