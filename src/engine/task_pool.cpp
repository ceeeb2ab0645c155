#include "engine/task_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"

namespace hayat::engine {

namespace {
telemetry::Counter& tasksTotal =
    telemetry::Registry::global().counter("hayat_pool_tasks_total");
telemetry::Gauge& poolWorkers =
    telemetry::Registry::global().gauge("hayat_pool_workers");
}  // namespace

int defaultWorkerCount() {
  if (const char* env = std::getenv("HAYAT_WORKERS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void runParallel(int count, int workers,
                 const std::function<void(int)>& task) {
  HAYAT_REQUIRE(count >= 0, "negative task count");
  if (count == 0) return;

  if (workers <= 0) workers = defaultWorkerCount();
  if (workers > count) workers = count;

  if (telemetry::enabled()) {
    tasksTotal.add(static_cast<std::uint64_t>(count));
    poolWorkers.set(workers);
  }

  if (workers <= 1) {
    for (int i = 0; i < count; ++i) task(i);
    return;
  }

  std::atomic<int> next{0};
  std::exception_ptr firstError;
  std::mutex errorMutex;

  auto worker = [&]() {
    for (;;) {
      const int i = next.fetch_add(1);
      if (i >= count) return;
      try {
        task(i);
      } catch (...) {
        const std::scoped_lock lock(errorMutex);
        if (!firstError) firstError = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  if (firstError) std::rethrow_exception(firstError);
}

}  // namespace hayat::engine
