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
// Values are built outside the mutex, so tasks that start together
// build the values of different keys (every chip has its own aging
// table) at the same time; lookups of a key that is being built wait
// for that build alone.  While telemetry is enabled, each build's wall
// time lands in the memo's `*_build_seconds` histogram — where a task's
// start-up time goes.
//
// Each memo is a namespace-scope object constructed during static
// initialisation and never destroyed (`*new SharedMemo<V>(...)`): no
// first-use initialiser can be in flight when a worker is forked, and
// the constructor adds the memo's mutex to those held across fork()
// (telemetry::holdAcrossFork).  The constructor also binds the memo's
// hit and miss counters and its build histogram, so they are registered
// before main() like every other metric handle.  A build that another
// thread had in flight at fork() never finishes in the child, so the
// child builds that key again.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
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
  /// enabled, lookups count under the counters `hitsName`/`missesName`
  /// and each build's seconds go to the histogram `buildSecondsName`.
  SharedMemo(std::size_t cap, const std::string& hitsName,
             const std::string& missesName, const std::string& buildSecondsName)
      : cap_(cap),
        hits_(telemetry::Registry::global().counter(hitsName)),
        misses_(telemetry::Registry::global().counter(missesName)),
        buildSeconds_(telemetry::Registry::global().histogram(
            buildSecondsName, {1e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0,
                               3.0, 10.0, 30.0})) {
    telemetry::holdAcrossFork(mutex_);
  }

  SharedMemo(const SharedMemo&) = delete;
  SharedMemo& operator=(const SharedMemo&) = delete;

  /// Returns the value stored under `key`; on a miss, stores and returns
  /// `build()` (a std::shared_ptr<const V>).  Concurrent first lookups of
  /// one key build it once: the others wait for that build, and get its
  /// exception if it throws (the key is then built afresh next time).
  template <class Build>
  std::shared_ptr<const V> obtain(const std::string& key, Build&& build) {
    std::promise<Ptr> promise;
    Value value;
    std::uint64_t buildId = 0;  // nonzero: this call builds
    {
      const std::scoped_lock lock(mutex_);
      const auto it =
          std::find_if(entries_.begin(), entries_.end(),
                       [&](const Entry& e) { return e.key == key; });
      if (it != entries_.end() && usable(*it)) {
        std::rotate(it, it + 1, entries_.end());  // most recent at the back
        if (telemetry::enabled()) hits_.add();
        value = entries_.back().value;
      } else {
        if (it != entries_.end()) entries_.erase(it);
        if (telemetry::enabled()) misses_.add();
        value = promise.get_future().share();
        buildId = ++builds_;
        entries_.push_back({key, value, ::getpid(), buildId});
        if (entries_.size() > cap_) entries_.erase(entries_.begin());
      }
    }
    if (buildId != 0) {
      try {
        const bool timed = telemetry::enabled();
        const auto t0 = std::chrono::steady_clock::now();
        Ptr built = build();
        if (timed)
          buildSeconds_.observe(std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count());
        promise.set_value(std::move(built));
      } catch (...) {
        promise.set_exception(std::current_exception());
        forget(buildId);
      }
    }
    return value.get();
  }

  /// Drops every entry (values still held by callers stay valid).
  void clear() {
    const std::scoped_lock lock(mutex_);
    entries_.clear();
  }

 private:
  using Ptr = std::shared_ptr<const V>;
  using Value = std::shared_future<Ptr>;

  struct Entry {
    std::string key;
    Value value;
    pid_t builder;       ///< process whose thread fulfils `value`
    std::uint64_t build;  ///< which build fulfils `value`
  };

  /// False for a build that a thread of the parent process had in
  /// flight at fork(): no thread of this process will finish it.
  static bool usable(const Entry& e) {
    return e.value.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready ||
           e.builder == ::getpid();
  }

  /// Drops the entry of a failed build, so the key is built afresh.
  void forget(std::uint64_t build) {
    const std::scoped_lock lock(mutex_);
    const auto it =
        std::find_if(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.build == build; });
    if (it != entries_.end()) entries_.erase(it);
  }

  const std::size_t cap_;
  telemetry::Counter& hits_;
  telemetry::Counter& misses_;
  telemetry::Histogram& buildSeconds_;
  std::mutex mutex_;
  std::uint64_t builds_ = 0;  ///< guarded by mutex_
  /// Guarded by mutex_; least recently used at the front.
  std::vector<Entry> entries_;
};

}  // namespace hayat
