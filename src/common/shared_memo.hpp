// Process-wide memo of immutable start-up values.
//
// The paper builds its 3D aging table offline, "only a start-up time
// effort for a given chip".  A sweep rebuilds the *same* chip once per
// task, so the aging table, the Cholesky field sampler and the factored
// transient operator are shared across tasks through one SharedMemo
// each: an LRU of (key, shared_ptr<const V>) pairs under one mutex, with
// a fixed cap.  Entries are strong references, so recent values survive
// the task boundary where no System holds them; a value a caller holds
// stays valid after its entry is evicted.
//
// Each memo is a namespace-scope object constructed during static
// initialisation and never destroyed (`*new SharedMemo<V>(...)`): no
// first-use initialiser can be in flight when a worker is forked, and
// the constructor adds the memo's mutex to those held across fork()
// (telemetry::holdAcrossFork).
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace hayat {

template <class V>
class SharedMemo {
 public:
  /// Keeps the `cap` most recently used values.  While telemetry is
  /// enabled, lookups count under the counters `hitsName`/`missesName`.
  SharedMemo(std::size_t cap, std::string hitsName, std::string missesName)
      : cap_(cap),
        hitsName_(std::move(hitsName)),
        missesName_(std::move(missesName)) {
    telemetry::holdAcrossFork(mutex_);
  }

  SharedMemo(const SharedMemo&) = delete;
  SharedMemo& operator=(const SharedMemo&) = delete;

  /// Returns the value stored under `key`; on a miss, stores and returns
  /// `build()` (a std::shared_ptr<const V>).  The build runs under the
  /// memo's lock, so concurrent first lookups of one key build it once.
  template <class Build>
  std::shared_ptr<const V> obtain(const std::string& key, Build&& build) {
    const std::scoped_lock lock(mutex_);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first != key) continue;
      std::rotate(it, it + 1, entries_.end());  // most recent at the back
      count(hits_, hitsName_);
      return entries_.back().second;
    }
    count(misses_, missesName_);
    std::shared_ptr<const V> value = build();
    entries_.emplace_back(key, value);
    if (entries_.size() > cap_) entries_.erase(entries_.begin());
    return value;
  }

  /// Drops every entry (values still held by callers stay valid).
  void clear() {
    const std::scoped_lock lock(mutex_);
    entries_.clear();
  }

 private:
  /// Resolves the counter on first use, under mutex_ (metric objects
  /// never move, so the pointer stays valid).
  void count(telemetry::Counter*& counter, const std::string& name) {
    if (!telemetry::enabled()) return;
    if (counter == nullptr)
      counter = &telemetry::Registry::global().counter(name);
    counter->add();
  }

  const std::size_t cap_;
  const std::string hitsName_;
  const std::string missesName_;
  std::mutex mutex_;
  telemetry::Counter* hits_ = nullptr;    ///< guarded by mutex_
  telemetry::Counter* misses_ = nullptr;  ///< guarded by mutex_
  /// Guarded by mutex_; least recently used at the front.
  std::vector<std::pair<std::string, std::shared_ptr<const V>>> entries_;
};

}  // namespace hayat
