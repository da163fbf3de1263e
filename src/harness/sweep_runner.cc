#include "harness/sweep_runner.h"

#include <atomic>
#include <mutex>
#include <thread>
#include <utility>

namespace lion {

SweepRunner::SweepRunner(SweepOptions options) : options_(std::move(options)) {}

void SweepRunner::Add(std::string name, ExperimentConfig config) {
  points_.push_back(SweepPoint{std::move(name), std::move(config), {}});
}

void SweepRunner::Add(SweepPoint point) { points_.push_back(std::move(point)); }

std::vector<SweepOutcome> SweepRunner::Run() {
  const size_t total = points_.size();
  std::vector<SweepOutcome> outcomes(total);
  if (total == 0) return outcomes;

  int threads = options_.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads < 1) threads = 1;
  }
  if (static_cast<size_t>(threads) > total) threads = static_cast<int>(total);

  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::mutex progress_mutex;

  auto worker = [&]() {
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
      SweepOutcome& out = outcomes[i];
      out.name = points_[i].name;
      out.status = ExperimentBuilder(points_[i].config).Run(&out.result);
      size_t finished = done.fetch_add(1, std::memory_order_relaxed) + 1;
      if (options_.on_progress) {
        std::lock_guard<std::mutex> lock(progress_mutex);
        options_.on_progress(finished, total, out);
      }
    }
  };

  if (threads == 1) {
    // In-thread execution keeps single-threaded sweeps trivially debuggable
    // (no pool in the backtrace) and spawn-free.
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  return outcomes;
}

Json SweepRunner::MergeJson(const std::vector<SweepOutcome>& outcomes) {
  Json runs = Json::Array();
  for (const SweepOutcome& o : outcomes) {
    Json run = Json::Object();
    run.Set("name", Json::Str(o.name));
    run.Set("status", Json::Str(StatusCodeName(o.status.code())));
    if (o.status.ok()) {
      run.Set("result", o.result.ToJson());
    } else {
      run.Set("error", Json::Str(o.status.message()));
    }
    runs.Add(std::move(run));
  }
  Json doc = Json::Object();
  doc.Set("sweep_size", Json::Uint(outcomes.size()));
  doc.Set("runs", std::move(runs));
  return doc;
}

}  // namespace lion
