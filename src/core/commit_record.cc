#include "core/commit_record.h"

#include "common/coding.h"

namespace streamsi {

Status DecodeCommitRecord(std::string_view payload, CommitRecord* record) {
  const char* p = payload.data();
  const char* limit = p + payload.size();
  std::uint32_t count = 0;
  p = GetVarint32(p, limit, &count);
  // Bounded by the payload itself: each group id is >= 1 byte.
  if (p == nullptr || count > payload.size()) {
    return Status::Corruption("bad commit record group count");
  }
  record->groups.clear();
  for (std::uint32_t i = 0; i < count && p != nullptr; ++i) {
    GroupId id = kInvalidGroupId;
    p = GetVarint32(p, limit, &id);
    if (p != nullptr) record->groups.push_back(id);
  }
  std::uint64_t cts = 0;
  if (p != nullptr) p = GetVarint64(p, limit, &cts);
  if (p == nullptr) return Status::Corruption("bad commit record header");
  record->cts = cts;
  record->write_sets = std::string_view(p, static_cast<std::size_t>(limit - p));
  return Status::OK();
}

void EncodeCommitWriteSets(const Transaction& txn, const StateId* states,
                           std::size_t count, std::string* out) {
  PutVarint32(out, static_cast<std::uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    const WriteSet* ws = txn.FindWriteSet(states[i]);
    PutVarint32(out, states[i]);
    PutVarint32(out, static_cast<std::uint32_t>(ws->size()));
    ws->ForEachEffective(
        [&](std::string_view key, std::string_view value, bool is_delete) {
          PutVarint32(out, static_cast<std::uint32_t>(key.size()));
          out->append(key.data(), key.size());
          out->push_back(is_delete ? '\1' : '\0');
          if (!is_delete) {
            PutVarint32(out, static_cast<std::uint32_t>(value.size()));
            out->append(value.data(), value.size());
          }
        });
  }
}

namespace {

/// Parses one entry at `p`; nullptr if it overruns `limit`.
const char* NextEntry(const char* p, const char* limit, std::string_view* key,
                      std::string_view* value, bool* is_delete) {
  std::uint32_t key_len = 0;
  p = GetVarint32(p, limit, &key_len);
  if (p == nullptr || key_len >= static_cast<std::size_t>(limit - p)) {
    return nullptr;  // the key plus its delete flag must fit
  }
  *key = std::string_view(p, key_len);
  p += key_len;
  *is_delete = *p != 0;
  p += 1;
  *value = std::string_view();
  if (!*is_delete) {
    std::uint32_t val_len = 0;
    p = GetVarint32(p, limit, &val_len);
    if (p == nullptr || val_len > static_cast<std::size_t>(limit - p)) {
      return nullptr;
    }
    *value = std::string_view(p, val_len);
    p += val_len;
  }
  return p;
}

}  // namespace

Status ReplayCommitWriteSets(const CommitRecord& record,
                             const ReplayTarget& target,
                             StateContext* context) {
  const std::string_view data = record.write_sets;
  const char* p = data.data();
  const char* limit = p + data.size();
  std::uint32_t state_count = 0;
  p = GetVarint32(p, limit, &state_count);
  if (p == nullptr || state_count > data.size()) {
    return Status::Corruption("bad commit record write-set header");
  }
  // Pass 1: bounds-check the whole record and resolve every block BEFORE
  // installing anything, so a transient refusal (a follower whose catalog
  // is behind) does no per-entry work just to throw it away.
  struct StateBlock {
    VersionedStore* store;
    const char* begin;
    std::uint32_t entries;
  };
  SmallVec<StateBlock, 8> blocks;
  std::string_view key;
  std::string_view value;
  bool is_delete = false;
  for (std::uint32_t s = 0; s < state_count; ++s) {
    std::uint32_t state_id = 0;
    std::uint32_t entry_count = 0;
    p = GetVarint32(p, limit, &state_id);
    if (p != nullptr) p = GetVarint32(p, limit, &entry_count);
    if (p == nullptr || entry_count > data.size()) {
      return Status::Corruption("bad commit record state block");
    }
    VersionedStore* store = nullptr;
    STREAMSI_RETURN_NOT_OK(target(state_id, &store));
    const char* entries_begin = p;
    for (std::uint32_t e = 0; e < entry_count && p != nullptr; ++e) {
      p = NextEntry(p, limit, &key, &value, &is_delete);
    }
    if (p == nullptr) return Status::Corruption("bad commit record entry");
    if (store != nullptr) {
      blocks.push_back(StateBlock{store, entries_begin, entry_count});
    }
  }
  // Pass 2: install. A failure mid-record leaves a partial apply; replaying
  // the record again re-installs only what is missing.
  for (const StateBlock& block : blocks) {
    const Timestamp oldest_active =
        context->OldestActiveVersionFor(block.store->id());
    const char* cur = block.begin;
    for (std::uint32_t e = 0; e < block.entries; ++e) {
      cur = NextEntry(cur, limit, &key, &value, &is_delete);
      STREAMSI_RETURN_NOT_OK(block.store->ReplayCommitted(
          key, value, is_delete, record.cts, oldest_active));
    }
  }
  return Status::OK();
}

}  // namespace streamsi
