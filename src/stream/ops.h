// Basic stream operators: Map, Where, ForEach, Collect, Print.
// Punctuations flow through all of them unchanged.
//
// Chunk paths: Map, Where, ForEach and Collect implement OnChunk — one
// std::function dispatch per chunk instead of one per tuple. Map and Where
// take the caller's callable through a templated constructor and capture it
// by value in their subscriber lambdas, so the chunk loop calls it inline
// (a lambda predicate compiles to a tight, auto-vectorizable loop; a
// std::function argument still works and costs one indirect call per
// tuple). Each operator has exactly one chunk body, specialized on the
// view's density:
//   * Where writes survivors' BASE row indices into an operator-owned
//     selection vector and publishes a selection view over the input's
//     arrays — zero tuple copies, also for selected input (the indices
//     compose). An all-pass chunk is forwarded by reference.
//   * Map writes its outputs into an operator-owned array. Dense input
//     shares the input's timestamp array; selected input copies only the
//     selected timestamps.
// Scratch arrays are reused across chunks — safe because chunk delivery is
// single-threaded per operator (the contract per-tuple stateful operators
// rely on) and a published view only lives for the downstream call.

#ifndef STREAMSI_STREAM_OPS_H_
#define STREAMSI_STREAM_OPS_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <iostream>
#include <mutex>
#include <sstream>
#include <type_traits>
#include <vector>

#include "stream/operator.h"

namespace streamsi {

/// Element-wise transformation In -> Out (Out must be default-constructible:
/// the chunk path overwrites a reused output array).
template <typename In, typename Out>
class Map : public OperatorBase, public Publisher<Out> {
 public:
  template <typename Fn>
  Map(Publisher<In>* input, Fn fn) {
    static_assert(std::is_invocable_r_v<Out, const Fn&, const In&>,
                  "Fn must map const In& -> Out");
    input->SubscribeWith(
        [this, fn](const StreamElement<In>& e) {
          if (e.is_data()) {
            this->Publish(StreamElement<Out>(fn(e.data()), e.ts()));
          } else {
            this->Publish(e.template ForwardPunctuation<Out>());
          }
        },
        [this, fn](const ChunkView<In>& view) { OnChunk(view, fn); });
  }

  std::string_view name() const override { return "Map"; }

  OperatorStats stats() const override {
    OperatorStats s;
    s.kernel_chunks = chunks_.load(std::memory_order_relaxed);
    s.kernel_tuples_in = tuples_.load(std::memory_order_relaxed);
    s.kernel_tuples_out = s.kernel_tuples_in;  // projections are 1:1
    s.chunks = s.kernel_chunks;
    return s;
  }

 private:
  template <typename Fn>
  void OnChunk(const ChunkView<In>& view, const Fn& fn) {
    const std::size_t n = view.size();
    if (n == 0) return;
    if (out_.size() < n) out_.resize(n);
    Out* out = out_.data();
    const In* rows = view.data();
    const Timestamp* ts = view.ts_data();
    const std::uint32_t* sel = view.selection();
    if (sel != nullptr && ts_.size() < n) ts_.resize(n);
    const auto run = [&](auto is_dense) {
      for (std::size_t i = 0; i < n; ++i) {
        if constexpr (decltype(is_dense)::value) {
          out[i] = fn(rows[i]);
        } else {
          const std::uint32_t base = sel[i];
          out[i] = fn(rows[base]);
          ts_[i] = ts[base];
        }
      }
    };
    if (sel == nullptr) {
      run(std::true_type{});
    } else {
      run(std::false_type{});
      ts = ts_.data();
    }
    chunks_.fetch_add(1, std::memory_order_relaxed);
    tuples_.fetch_add(n, std::memory_order_relaxed);
    this->PublishChunk(ChunkView<Out>(out, ts, n));
  }

  std::vector<Out> out_;       ///< output rows; delivering-thread only
  std::vector<Timestamp> ts_;  ///< selected-input timestamps; same
  std::atomic<std::uint64_t> chunks_{0};
  std::atomic<std::uint64_t> tuples_{0};
};

/// Predicate filter.
template <typename T>
class Where : public OperatorBase, public Publisher<T> {
 public:
  template <typename Pred>
  Where(Publisher<T>* input, Pred pred) {
    static_assert(std::is_invocable_r_v<bool, const Pred&, const T&>,
                  "Pred must map const T& -> bool");
    input->SubscribeWith(
        [this, pred](const StreamElement<T>& e) {
          if (!e.is_data() || pred(e.data())) this->Publish(e);
        },
        [this, pred](const ChunkView<T>& view) { OnChunk(view, pred); });
  }

  std::string_view name() const override { return "Where"; }

  OperatorStats stats() const override {
    OperatorStats s;
    s.kernel_chunks = chunks_.load(std::memory_order_relaxed);
    s.kernel_tuples_in = tuples_in_.load(std::memory_order_relaxed);
    s.kernel_tuples_out = tuples_out_.load(std::memory_order_relaxed);
    s.chunks = s.kernel_chunks;
    return s;
  }

 private:
  /// Branch-free selection loop: every row's base index is written and the
  /// survivor count advances only when the predicate holds.
  template <typename Pred>
  void OnChunk(const ChunkView<T>& view, const Pred& pred) {
    const std::size_t n = view.size();
    if (n == 0) return;
    if (sel_.size() < n) sel_.resize(n);
    std::uint32_t* out_sel = sel_.data();
    const T* rows = view.data();
    const std::uint32_t* in_sel = view.selection();
    const auto run = [&](auto is_dense) {
      std::size_t out = 0;
      for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t base;
        if constexpr (decltype(is_dense)::value) {
          base = static_cast<std::uint32_t>(i);
        } else {
          base = in_sel[i];
        }
        out_sel[out] = base;
        out += pred(rows[base]) ? 1 : 0;
      }
      return out;
    };
    const std::size_t out =
        in_sel == nullptr ? run(std::true_type{}) : run(std::false_type{});
    chunks_.fetch_add(1, std::memory_order_relaxed);
    tuples_in_.fetch_add(n, std::memory_order_relaxed);
    tuples_out_.fetch_add(out, std::memory_order_relaxed);
    if (out == n) {
      this->PublishChunk(view);  // all-pass: the input view, zero copy
    } else if (out > 0) {
      this->PublishChunk(ChunkView<T>(rows, view.ts_data(), out_sel, out));
    }
  }

  std::vector<std::uint32_t> sel_;  ///< selection scratch; delivering-thread only
  std::atomic<std::uint64_t> chunks_{0};
  std::atomic<std::uint64_t> tuples_in_{0};
  std::atomic<std::uint64_t> tuples_out_{0};
};

/// Terminal sink invoking a callback per data element (and optionally per
/// punctuation).
template <typename T>
class ForEach : public OperatorBase {
 public:
  ForEach(Publisher<T>* input, std::function<void(const T&)> fn,
          std::function<void(Punctuation)> punctuation_fn = nullptr)
      : fn_(std::move(fn)), punctuation_fn_(std::move(punctuation_fn)) {
    input->SubscribeWith(
        [this](const StreamElement<T>& e) {
          if (e.is_data()) {
            fn_(e.data());
          } else if (punctuation_fn_) {
            punctuation_fn_(e.punctuation());
          }
        },
        [this](const ChunkView<T>& view) {
          for (std::size_t i = 0; i < view.size(); ++i) fn_(view[i]);
        });
  }

  std::string_view name() const override { return "ForEach"; }

 private:
  std::function<void(const T&)> fn_;
  std::function<void(Punctuation)> punctuation_fn_;
};

/// Thread-safe collecting sink; WaitForEos() blocks until the stream ended.
template <typename T>
class Collect : public OperatorBase {
 public:
  explicit Collect(Publisher<T>* input) {
    input->SubscribeWith(
        [this](const StreamElement<T>& e) {
          std::unique_lock<std::mutex> lock(mutex_);
          if (e.is_data()) {
            elements_.push_back(e.data());
          } else if (e.punctuation() == Punctuation::kEndOfStream) {
            eos_ = true;
            cv_.notify_all();
          }
        },
        [this](const ChunkView<T>& view) {
          std::unique_lock<std::mutex> lock(mutex_);
          if (view.dense()) {
            elements_.insert(elements_.end(), view.data(),
                             view.data() + view.size());
          } else {
            for (std::size_t i = 0; i < view.size(); ++i) {
              elements_.push_back(view[i]);
            }
          }
        });
  }

  void WaitForEos() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return eos_; });
  }

  std::vector<T> TakeElements() {
    std::unique_lock<std::mutex> lock(mutex_);
    return std::move(elements_);
  }

  std::vector<T> Elements() const {
    std::unique_lock<std::mutex> lock(mutex_);
    return elements_;
  }

  std::size_t size() const {
    std::unique_lock<std::mutex> lock(mutex_);
    return elements_.size();
  }

  std::string_view name() const override { return "Collect"; }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<T> elements_;
  bool eos_ = false;
};

/// Debug sink: prints every element with a prefix.
template <typename T>
class Print : public OperatorBase {
 public:
  Print(Publisher<T>* input, std::string prefix = "",
        std::ostream* os = &std::cout)
      : prefix_(std::move(prefix)), os_(os) {
    input->Subscribe([this](const StreamElement<T>& e) {
      std::ostringstream line;
      if (e.is_data()) {
        line << prefix_ << e.data() << '\n';
      } else {
        line << prefix_ << '<' << PunctuationName(e.punctuation()) << ">\n";
      }
      std::unique_lock<std::mutex> lock(mutex_);
      (*os_) << line.str();
    });
  }

  std::string_view name() const override { return "Print"; }

 private:
  std::string prefix_;
  std::ostream* os_;
  std::mutex mutex_;
};

}  // namespace streamsi

#endif  // STREAMSI_STREAM_OPS_H_
