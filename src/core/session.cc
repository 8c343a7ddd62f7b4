#include "core/session.h"

#include <algorithm>
#include <thread>

namespace orion {

namespace {

/// Per-thread jitter state (split-mix style), seeded from the thread's
/// stack address so no two worker threads — session or rpc client — share
/// a backoff pattern.
uint64_t NextJitter() {
  thread_local uint64_t state =
      reinterpret_cast<uintptr_t>(&state) | 1;
  state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  return state >> 33;
}

}  // namespace

bool IsRetryable(const Status& status) {
  return status.code() == StatusCode::kDeadlock ||
         status.code() == StatusCode::kLockTimeout ||
         status.code() == StatusCode::kSchemaConflict;
}

uint64_t BackoffSleep(int attempt, std::chrono::microseconds base,
                      std::chrono::microseconds cap) {
  const uint64_t jitter = NextJitter() % 100;  // [0, 100)
  auto step = base.count() << std::min(attempt, 12);
  step = std::min<decltype(step)>(step, cap.count());
  const auto us = step / 2 + (step * jitter) / 100;
  if (us <= 0) {
    return 0;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(us));
  return static_cast<uint64_t>(us);
}

Status RetryBudgetExhausted(int max_retries, const Status& last_conflict) {
  std::string message = "session retry budget (";
  message += std::to_string(max_retries);
  message += ") exhausted; last conflict: ";
  message += last_conflict.message();
  return Status::Timeout(std::move(message));
}

}  // namespace orion
