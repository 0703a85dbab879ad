// Shared test helpers.

#ifndef STREAMSI_TESTS_TEST_UTIL_H_
#define STREAMSI_TESTS_TEST_UTIL_H_

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/env.h"

namespace streamsi::testing {

/// Unique scratch directory, recursively deleted on destruction.
class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    const char* base = std::getenv("TMPDIR");
    path_ = std::string(base != nullptr ? base : "/tmp") + "/streamsi_test_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1));
    fsutil::RemoveDirRecursive(path_);
    fsutil::CreateDirIfMissing(path_);
  }

  ~TempDir() { fsutil::RemoveDirRecursive(path_); }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Env wrapper that can hold a commit inside its durable record: once
/// armed, the next Sync of a group-commit log file signals, blocks until
/// Release(), then either fails without syncing — the record's bytes stay
/// unsynced, so a power cut drops them, and the commit aborts after its
/// versions were installed — or syncs normally and lets the commit finish.
class HoldingEnv final : public Env {
 public:
  explicit HoldingEnv(Env* inner) : inner_(inner) {}

  void ArmHold() {
    std::lock_guard<std::mutex> guard(mutex_);
    armed_ = true;
  }
  void WaitHeld() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return held_; });
  }
  /// Lets the held sync return: an IO error when `fail_sync`, else the
  /// inner sync's status.
  void Release(bool fail_sync = true) {
    std::lock_guard<std::mutex> guard(mutex_);
    released_ = true;
    fail_sync_ = fail_sync;
    cv_.notify_all();
  }

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    auto file = inner_->NewWritableFile(path, truncate);
    if (!file.ok() || path.find("group_commits.log") == std::string::npos) {
      return file;
    }
    return std::unique_ptr<WritableFile>(
        new HeldFile(this, std::move(file).value()));
  }
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    return inner_->NewRandomAccessFile(path);
  }
  Status CreateDirIfMissing(const std::string& path) override {
    return inner_->CreateDirIfMissing(path);
  }
  Status RemoveFile(const std::string& path) override {
    return inner_->RemoveFile(path);
  }
  Status RemoveDirRecursive(const std::string& path) override {
    return inner_->RemoveDirRecursive(path);
  }
  bool FileExists(const std::string& path) override {
    return inner_->FileExists(path);
  }
  Status FileSize(const std::string& path, std::uint64_t* size) override {
    return inner_->FileSize(path, size);
  }
  Status ListDir(const std::string& path,
                 std::vector<std::string>* names) override {
    return inner_->ListDir(path, names);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return inner_->RenameFile(from, to);
  }
  Status SyncDir(const std::string& dir) override {
    return inner_->SyncDir(dir);
  }

 private:
  class HeldFile final : public WritableFile {
   public:
    HeldFile(HoldingEnv* env, std::unique_ptr<WritableFile> inner)
        : env_(env), inner_(std::move(inner)) {}
    Status Append(std::string_view data) override {
      return inner_->Append(data);
    }
    Status Flush() override { return inner_->Flush(); }
    Status Sync() override {
      {
        std::unique_lock<std::mutex> lock(env_->mutex_);
        if (env_->armed_) {
          env_->armed_ = false;
          env_->held_ = true;
          env_->cv_.notify_all();
          env_->cv_.wait(lock, [&] { return env_->released_; });
          if (env_->fail_sync_) return Status::IoError("injected failed sync");
        }
      }
      return inner_->Sync();
    }
    Status Close() override { return inner_->Close(); }
    std::uint64_t size() const override { return inner_->size(); }

   private:
    HoldingEnv* env_;
    std::unique_ptr<WritableFile> inner_;
  };

  Env* inner_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool held_ = false;
  bool released_ = false;
  bool fail_sync_ = true;
};

}  // namespace streamsi::testing

#endif  // STREAMSI_TESTS_TEST_UTIL_H_
