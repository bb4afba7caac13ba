// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the batched multi-threaded QueryEngine (core/query_engine.h):
// a fixed worker pool claiming query indices from a shared batch, with
// per-worker verification and composable cost aggregation.

#include "core/query_engine.h"

namespace sae::core {

QueryEngine::QueryEngine(const Options& options) {
  workers_.reserve(options.worker_threads);
  for (size_t i = 0; i < options.worker_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryEngine::~QueryEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void QueryEngine::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  uint64_t seen = 0;
  while (true) {
    work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    while (job_next_ < job_size_) {
      size_t index = job_next_++;
      lock.unlock();
      (*job_)(index);
      lock.lock();
      if (++job_done_ == job_size_) done_cv_.notify_all();
    }
  }
}

void QueryEngine::Dispatch(size_t count,
                           const std::function<void(size_t)>& task) {
  if (count == 0) return;
  if (workers_.empty()) {
    for (size_t i = 0; i < count; ++i) task(i);
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  job_ = &task;
  job_size_ = count;
  job_next_ = 0;
  job_done_ = 0;
  ++generation_;
  work_cv_.notify_all();
  done_cv_.wait(lock, [&] { return job_done_ == job_size_; });
  job_ = nullptr;
}

}  // namespace sae::core
