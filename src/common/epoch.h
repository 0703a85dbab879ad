// Epoch-based memory reclamation for the latch-free read path.
//
// Readers wrap their critical section in an EpochGuard: a single store to a
// thread-private, cache-line-padded slot (no shared-cacheline CAS, no latch).
// Writers that unlink shared objects (shard bucket tables replaced on growth,
// MVCC value buffers replaced by installs or reclaimed by GC) hand them to
// Retire() instead of deleting them; the manager frees a retired object only
// after every reader that could still hold a pointer to it has exited its
// critical section (quiescence).
//
// The scheme is classic three-epoch EBR (Fraser '04; crossbeam/folly do the
// same): the global epoch advances only when every active reader slot has
// caught up to it, and garbage retired in epoch `e` is freed once the global
// epoch reaches `e + 2`. A reader that might have obtained a pointer to an
// object before it was unlinked pins an epoch <= e + 1 and therefore blocks
// the second advance until it exits.
//
// Retired garbage stays with the retiring thread, as in Fraser's per-thread
// limbo lists: each thread's slot keeps three lists, one per epoch modulo 3,
// behind a spin lock only that thread and an occasional sweep ever take. A
// retire writes nothing another thread writes — no global lock, no shared
// counter — and the first retire a thread makes in a new epoch frees its own
// expired lists, so a busy writer returns memory to its own allocator cache
// instead of having another thread free it. Sweeps (the background
// reclaimer, TryReclaim) advance the epoch and free the lists of threads
// that stopped retiring (idle for two epochs, or exited), so garbage never
// waits on a thread that went quiet.
//
// Guards are reentrant (nesting tracked per thread); Enter costs one relaxed
// load + one store + one fence, Exit one store. Neither allocates.

#ifndef STREAMSI_COMMON_EPOCH_H_
#define STREAMSI_COMMON_EPOCH_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/latch.h"

namespace streamsi {

class EpochManager {
 public:
  /// The process-wide manager (the only one: retire lists hang off the
  /// per-thread slots it hands out). Leaked on purpose: stores retire
  /// garbage from their destructors, which may run during static
  /// destruction.
  static EpochManager& Global() {
    static EpochManager* manager = new EpochManager();
    return *manager;
  }

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// Sentinel epoch for slots with no active reader (epochs start at 1).
  static constexpr std::uint64_t kIdle = 0;

  struct Garbage {
    std::uint64_t epoch;
    void* object;
    void (*deleter)(void*);
  };

  /// One thread's reader slot and retire lists. The first cache line is
  /// the reader side (scanned by every epoch advance); the retire side
  /// lives on the lines after it.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> epoch{kIdle};
    std::atomic<bool> claimed{false};

    struct alignas(64) RetireLists {
      /// Taken by the owning thread on every retire and by sweeps that
      /// free an idle thread's lists; never contended in steady state.
      SpinLock lock;
      /// Garbage held across the three lists (written under `lock`; read
      /// without it as a hint and by GarbageCount).
      std::atomic<std::size_t> pending{0};
      /// Epoch of the owner's newest retire: sweeps leave a thread that
      /// retired within the last two epochs to free its own lists.
      std::atomic<std::uint64_t> last_epoch{0};
      /// Retires since the last opportunistic sweep (owner only).
      std::uint32_t since_sweep = 0;
      /// Limbo list i holds garbage retired in epoch `tag[i]`, i = epoch % 3.
      std::uint64_t tag[3] = {0, 0, 0};
      std::vector<Garbage> list[3];
    } retired;
  };

  // ------------------------------------------------------------- readers ---

  /// Marks this thread as inside an epoch-protected critical section.
  /// Pointers obtained from epoch-protected structures stay valid until the
  /// matching Exit().
  void Enter(Slot* slot) {
    // The seq_cst fence orders the slot publication before every subsequent
    // load of protected pointers: a reclaimer that does not observe this
    // slot as active is guaranteed the reader entered after the unlink.
    slot->epoch.store(global_epoch_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  void Exit(Slot* slot) {
    slot->epoch.store(kIdle, std::memory_order_release);
  }

  /// Claims a reader slot for a new thread. Slots live in fixed-size blocks
  /// chained on demand, so there is no hard cap on simultaneously
  /// registered threads — exhausting the existing blocks appends a new one
  /// instead of failing. Blocks are never freed (total footprint is bounded
  /// by the peak live-thread count), and released slots are recycled by
  /// later threads — with whatever garbage their previous owner left, which
  /// is tagged by epoch and frees like any other.
  Slot* AcquireSlot() {
    for (SlotBlock* block = &head_block_;;) {
      for (Slot& slot : block->slots) {
        bool expected = false;
        if (!slot.claimed.load(std::memory_order_relaxed) &&
            slot.claimed.compare_exchange_strong(
                expected, true, std::memory_order_acq_rel)) {
          return &slot;
        }
      }
      SlotBlock* next = block->next.load(std::memory_order_acquire);
      if (next == nullptr) {
        auto* fresh = new SlotBlock();
        fresh->slots[0].claimed.store(true, std::memory_order_relaxed);
        SlotBlock* expected = nullptr;
        if (block->next.compare_exchange_strong(expected, fresh,
                                                std::memory_order_acq_rel)) {
          return &fresh->slots[0];
        }
        delete fresh;  // another thread appended first; scan its block
        next = expected;
      }
      block = next;
    }
  }

  void ReleaseSlot(Slot* slot) {
    slot->epoch.store(kIdle, std::memory_order_release);
    slot->claimed.store(false, std::memory_order_release);
  }

  // ------------------------------------------------------------- writers ---

  /// Transfers ownership of `object` to the manager; it is deleted once all
  /// readers active at retire time have exited.
  template <typename T>
  void Retire(T* object) {
    RetireRaw(const_cast<void*>(static_cast<const void*>(object)),
              [](void* p) { delete static_cast<T*>(p); });
  }

  void RetireRaw(void* object, void (*deleter)(void*)) {
    if (object == nullptr) return;
    // The unlink (e.g. the release store that replaced a bucket table) must
    // be globally visible before the retire epoch is sampled: otherwise a
    // reader pinning epoch e+1 could still load the old pointer while the
    // garbage is tagged e, and it would be freed one advance too early. The
    // seq_cst fence orders the caller's unlink store before this epoch load.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::uint64_t epoch = global_epoch_.load(std::memory_order_acquire);
    Slot* slot = ThisThreadSlot();
    if (slot == nullptr) {  // thread-local state already torn down
      std::lock_guard<SpinLock> guard(orphans_lock_);
      orphans_.push_back(Garbage{epoch, object, deleter});
      return;
    }
    Slot::RetireLists& lists = slot->retired;
    bool new_epoch = false;
    {
      std::lock_guard<SpinLock> guard(lists.lock);
      new_epoch = lists.last_epoch.load(std::memory_order_relaxed) != epoch;
      if (new_epoch) {
        lists.last_epoch.store(epoch, std::memory_order_relaxed);
        TakeExpiredLocked(lists, epoch);
      }
      // List epoch % 3 is empty or already tagged `epoch`: one tagged with
      // an older epoch is expired and was just taken. (Tagging newer than
      // an entry is always safe — it only frees later.)
      const std::size_t i = epoch % 3;
      lists.tag[i] = epoch;
      lists.list[i].push_back(Garbage{epoch, object, deleter});
      lists.pending.store(lists.pending.load(std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
    }
    // Free what the new epoch expired, on this thread, outside the lock.
    if (new_epoch) FreeTaken();
    // Without the background reclaimer nothing else advances the epoch:
    // sweep every kReclaimInterval retires of this thread.
    if (++lists.since_sweep == kReclaimInterval) {
      lists.since_sweep = 0;
      if (!reclaimer_active_.load(std::memory_order_acquire)) TryReclaim();
    }
  }

  // ------------------------------------------------ background reclaimer ---

  /// Starts (or joins, ref-counted) the background reclaimer: a thread that
  /// advances the epoch every `interval` and frees the garbage of threads
  /// that stopped retiring, instead of the opportunistic every-N-retires
  /// sweep. Steady garbage sources (version-array growth, bucket-table
  /// growth) then reclaim on a bounded cadence even when no further retires
  /// arrive. Each StartBackgroundReclaimer must be paired with one
  /// StopBackgroundReclaimer — owners (e.g. Database) stop it before
  /// tearing down the structures whose garbage it drains, so no reclaim
  /// runs during static destruction.
  void StartBackgroundReclaimer(
      std::chrono::milliseconds interval = std::chrono::milliseconds(1)) {
    std::lock_guard<std::mutex> guard(reclaimer_mutex_);
    reclaim_interval_ = interval;
    if (++reclaimer_refs_ == 1) {
      // Each spawn gets a fresh generation: a predecessor thread that was
      // stopped but has not yet observed its shutdown must NOT be revived
      // by this start (it would double-run the loop and hang the stopping
      // thread's join forever) — it exits on the generation mismatch.
      const std::uint64_t generation = ++reclaimer_generation_;
      reclaimer_active_.store(true, std::memory_order_release);
      reclaimer_thread_ =
          std::thread([this, generation] { ReclaimerLoop(generation); });
    }
  }

  /// Drops one reclaimer reference; the last one stops and joins the
  /// thread (which drains what it can on the way out).
  void StopBackgroundReclaimer() {
    std::thread to_join;
    {
      std::lock_guard<std::mutex> guard(reclaimer_mutex_);
      if (reclaimer_refs_ == 0 || --reclaimer_refs_ > 0) return;
      reclaimer_active_.store(false, std::memory_order_release);
      to_join = std::move(reclaimer_thread_);
    }
    reclaimer_cv_.notify_all();
    if (to_join.joinable()) to_join.join();
  }

  bool reclaimer_running() const {
    return reclaimer_active_.load(std::memory_order_acquire);
  }

  /// Tries to advance the global epoch (possible only when every active
  /// reader has caught up to it), then frees the expired garbage of the
  /// calling thread and of every thread that has not retired for two epochs
  /// (busy retirers free their own at their next retire). Returns the
  /// number of objects freed.
  std::size_t TryReclaim() {
    const std::uint64_t epoch = TryAdvance();
    Slot* self = ThisThreadSlot();
    for (SlotBlock* block = &head_block_; block != nullptr;
         block = block->next.load(std::memory_order_acquire)) {
      for (Slot& slot : block->slots) {
        Slot::RetireLists& lists = slot.retired;
        if (lists.pending.load(std::memory_order_relaxed) == 0) continue;
        if (&slot != self &&
            lists.last_epoch.load(std::memory_order_relaxed) + 2 > epoch) {
          continue;
        }
        std::lock_guard<SpinLock> guard(lists.lock);
        TakeExpiredLocked(lists, epoch);
      }
    }
    {
      std::lock_guard<SpinLock> guard(orphans_lock_);
      std::size_t kept = 0;
      for (const Garbage& g : orphans_) {
        if (g.epoch + 2 <= epoch) {
          TakenList().push_back(g);
        } else {
          orphans_[kept++] = g;
        }
      }
      orphans_.resize(kept);
    }
    return FreeTaken();
  }

  /// Test/shutdown helper: reclaims until no garbage remains. Must only be
  /// called while no reader is inside a guard.
  void DrainForTesting() {
    while (GarbageCount() > 0) {
      if (TryReclaim() == 0) CpuRelax();
    }
  }

  /// Retired objects not freed yet, across every thread.
  std::size_t GarbageCount() {
    std::size_t count = 0;
    for (SlotBlock* block = &head_block_; block != nullptr;
         block = block->next.load(std::memory_order_acquire)) {
      for (Slot& slot : block->slots) {
        count += slot.retired.pending.load(std::memory_order_relaxed);
      }
    }
    std::lock_guard<SpinLock> guard(orphans_lock_);
    return count + orphans_.size();
  }

  std::uint64_t CurrentEpoch() const {
    return global_epoch_.load(std::memory_order_acquire);
  }

 private:
  friend class EpochGuard;

  /// The calling thread's slot (claimed on first use, released at thread
  /// exit); nullptr once the thread's state has been torn down.
  static Slot* ThisThreadSlot() {
    if (thread_state_gone_) return nullptr;
    return State().slot;
  }

  static constexpr std::uint32_t kReclaimInterval = 64;

  EpochManager() = default;

  struct ThreadState {
    ThreadState() : slot(Global().AcquireSlot()) {}
    ~ThreadState() {
      thread_state_gone_ = true;
      Global().ReleaseSlot(slot);
    }
    Slot* const slot;
    int depth = 0;
  };

  static ThreadState& State() {
    thread_local ThreadState state;
    return state;
  }

  /// Garbage taken off the lists and about to be freed by this thread.
  /// Reused, so steady-state frees allocate nothing.
  static std::vector<Garbage>& TakenList() {
    thread_local std::vector<Garbage> taken;
    return taken;
  }

  /// Advances the global epoch if every active reader has caught up to it.
  /// Returns the current epoch.
  std::uint64_t TryAdvance() {
    const std::uint64_t epoch = global_epoch_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    for (const SlotBlock* block = &head_block_; block != nullptr;
         block = block->next.load(std::memory_order_acquire)) {
      for (const Slot& slot : block->slots) {
        const std::uint64_t slot_epoch =
            slot.epoch.load(std::memory_order_acquire);
        if (slot_epoch != kIdle && slot_epoch < epoch) return epoch;
      }
    }
    std::uint64_t expected = epoch;
    if (global_epoch_.compare_exchange_strong(expected, epoch + 1,
                                              std::memory_order_acq_rel)) {
      return epoch + 1;
    }
    return expected;  // someone else advanced; their view is current
  }

  /// Moves every list of `lists` retired at or before `epoch - 2` onto
  /// this thread's TakenList. Caller holds `lists.lock`.
  static void TakeExpiredLocked(Slot::RetireLists& lists,
                                std::uint64_t epoch) {
    for (int i = 0; i < 3; ++i) {
      std::vector<Garbage>& list = lists.list[i];
      if (list.empty() || lists.tag[i] + 2 > epoch) continue;
      TakenList().insert(TakenList().end(), list.begin(), list.end());
      lists.pending.store(
          lists.pending.load(std::memory_order_relaxed) - list.size(),
          std::memory_order_relaxed);
      list.clear();  // keeps its capacity for the epochs to come
    }
  }

  /// Runs the deleters of everything TakenList holds. Returns the count.
  /// Pops before each call, so a deleter that retires (and sweeps) again
  /// never sees a half-consumed list.
  static std::size_t FreeTaken() {
    std::vector<Garbage>& taken = TakenList();
    std::size_t count = 0;
    while (!taken.empty()) {
      const Garbage g = taken.back();
      taken.pop_back();
      g.deleter(g.object);
      ++count;
    }
    return count;
  }

  void ReclaimerLoop(std::uint64_t generation) {
    // Loop liveness is keyed on refs + the SPAWN generation, both read
    // under the mutex: the shared active flag alone could flip back to true
    // (stop/start race) and resurrect this thread after its owner already
    // moved it out for joining.
    std::unique_lock<std::mutex> lock(reclaimer_mutex_);
    while (reclaimer_refs_ > 0 && reclaimer_generation_ == generation) {
      reclaimer_cv_.wait_for(lock, reclaim_interval_);
      if (reclaimer_refs_ == 0 || reclaimer_generation_ != generation) break;
      lock.unlock();
      // One pass per tick advances the epoch at most once; garbage retired
      // in epoch e frees after the second advance — by its retiring thread
      // if that thread keeps retiring, by this sweep once it goes idle.
      TryReclaim();
      lock.lock();
    }
    lock.unlock();
    TryReclaim();  // parting sweep so a stopped reclaimer leaves no backlog
  }

  /// One chunk of slots. Blocks are appended (never removed) under CAS on
  /// `next`, so sweeps can walk the chain without locking.
  struct SlotBlock {
    static constexpr int kSlotsPerBlock = 256;
    Slot slots[kSlotsPerBlock];
    std::atomic<SlotBlock*> next{nullptr};
  };

  /// Set when this thread's ThreadState is destroyed (thread exit): later
  /// retires from destructors of other thread-locals go to `orphans_`.
  static inline thread_local bool thread_state_gone_ = false;

  std::atomic<std::uint64_t> global_epoch_{1};
  SlotBlock head_block_;
  /// Garbage retired after its thread's state was torn down (rare).
  SpinLock orphans_lock_;
  std::vector<Garbage> orphans_;  // guarded by orphans_lock_

  /// Background reclaimer state (ref-counted; thread exists while refs>0).
  std::mutex reclaimer_mutex_;
  std::condition_variable reclaimer_cv_;
  std::thread reclaimer_thread_;          // guarded by reclaimer_mutex_
  int reclaimer_refs_ = 0;                // guarded by reclaimer_mutex_
  std::uint64_t reclaimer_generation_ = 0;         // guarded by ...mutex_
  std::chrono::milliseconds reclaim_interval_{1};  // guarded by ...mutex_
  std::atomic<bool> reclaimer_active_{false};
};

/// RAII epoch critical section. Reentrant: nested guards on the same thread
/// only pin the epoch once. Never allocates (the thread's slot is claimed on
/// first use and recycled at thread exit).
class EpochGuard {
 public:
  EpochGuard() {
    EpochManager::ThreadState& state = EpochManager::State();
    if (state.depth++ == 0) EpochManager::Global().Enter(state.slot);
  }
  ~EpochGuard() {
    EpochManager::ThreadState& state = EpochManager::State();
    if (--state.depth == 0) EpochManager::Global().Exit(state.slot);
  }
  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;
};

}  // namespace streamsi

#endif  // STREAMSI_COMMON_EPOCH_H_
