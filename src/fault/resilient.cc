#include "fault/resilient.h"

namespace irbuf::fault {

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

ResilientReader::ResilientReader(ResilienceOptions options,
                                 ClockFn breaker_clock)
    : options_(options) {
  if (options_.enabled && options_.breaker_enabled) {
    breaker_ = std::make_unique<CircuitBreaker>(options_.breaker,
                                                std::move(breaker_clock));
  }
}

void ResilientReader::BindMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    counters_.Unbind();
    return;
  }
  counters_ = registry->BindSource([this](const obs::Emit& emit) {
    emit("fault.retries", total_retries());
    emit("fault.retry_success", retry_successes());
    emit("fault.retries_exhausted", retries_exhausted());
    emit("fault.corrupted_reads", corrupted_reads());
    emit("fault.breaker_trips", breaker_ ? breaker_->trips() : 0);
    emit("fault.breaker_rejects", breaker_ ? breaker_->rejects() : 0);
  });
}

Status ResilientReader::Read(PageId id, const ReadFn& read,
                             ReadOutcome* outcome) {
  if (!options_.enabled) {
    if (outcome != nullptr) outcome->attempts = 1;
    return read();
  }
  if (breaker_ && !breaker_->AllowRequest()) {
    if (outcome != nullptr) outcome->rejected_by_breaker = true;
    return Status::Unavailable("circuit breaker open: read rejected");
  }
  const uint64_t tick = call_tick_.fetch_add(1, std::memory_order_relaxed);
  ExponentialBackoff backoff(options_.backoff,
                             Mix(options_.seed ^ id.Pack()) ^ Mix(tick));
  uint32_t attempts = 0;
  Status status;
  for (;;) {
    ++attempts;
    status = read();
    if (status.ok()) break;
    if (status.code() == StatusCode::kCorrupted) {
      corrupted_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!StatusCodeIsRetryable(status.code()) || !backoff.CanRetry()) break;
    const uint64_t delay_us = backoff.NextDelayUs();
    if (outcome != nullptr) outcome->backoff_us += delay_us;
    if (options_.sleep_on_backoff) SleepUs(delay_us);
    retries_.fetch_add(1, std::memory_order_relaxed);
  }
  if (outcome != nullptr) outcome->attempts = attempts;
  if (status.ok()) {
    if (attempts > 1) retry_success_.fetch_add(1, std::memory_order_relaxed);
    if (breaker_) breaker_->RecordSuccess();
    return status;
  }
  if (StatusCodeIsRetryable(status.code())) {
    exhausted_.fetch_add(1, std::memory_order_relaxed);
  }
  if (breaker_) breaker_->RecordFailure();
  return status;
}

}  // namespace irbuf::fault
