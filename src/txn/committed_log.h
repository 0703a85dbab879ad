// CommittedTxnLog: history of recently committed transactions' write sets,
// used by the BOCC baseline for backward-oriented validation (Härder 1984,
// the paper's reference [8]): a committing transaction T is valid iff no
// transaction with a commit timestamp above T's snapshot — a commit T's
// reads could not see, even one that drew its cts before BOT(T) — wrote a
// key T read.

#ifndef STREAMSI_TXN_COMMITTED_LOG_H_
#define STREAMSI_TXN_COMMITTED_LOG_H_

#include <deque>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "txn/types.h"

namespace streamsi {

class CommittedTxnLog {
 public:
  struct Record {
    Timestamp commit_ts;
    std::unordered_set<std::string> write_keys;  // namespaced "<state>/<key>"
  };

  /// Appends the write set of a transaction that just committed.
  void Append(Timestamp commit_ts, std::unordered_set<std::string> keys) {
    std::lock_guard<std::mutex> guard(mutex_);
    log_.push_back(Record{commit_ts, std::move(keys)});
  }

  /// True if any transaction with commit_ts > `snapshot` wrote a key in
  /// `read_set` (=> the validating transaction must abort).
  bool HasConflict(Timestamp snapshot,
                   const std::unordered_set<std::string>& read_set) const {
    std::lock_guard<std::mutex> guard(mutex_);
    for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
      if (it->commit_ts <= snapshot) break;  // log is commit-ordered
      // Iterate over the smaller set.
      if (read_set.size() < it->write_keys.size()) {
        for (const auto& key : read_set) {
          if (it->write_keys.count(key)) return true;
        }
      } else {
        for (const auto& key : it->write_keys) {
          if (read_set.count(key)) return true;
        }
      }
    }
    return false;
  }

  /// Drops records no active or future snapshot lies below.
  void Prune(Timestamp oldest_snapshot) {
    std::lock_guard<std::mutex> guard(mutex_);
    while (!log_.empty() && log_.front().commit_ts <= oldest_snapshot) {
      log_.pop_front();
    }
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return log_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::deque<Record> log_;  // ascending commit_ts
};

}  // namespace streamsi

#endif  // STREAMSI_TXN_COMMITTED_LOG_H_
