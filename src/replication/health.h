#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>

namespace turbdb {

/// Liveness bookkeeping for one replica-group member. The group marks a
/// member down on transport failure and up again after a successful
/// probe; probes of a down member are rate-limited so every query does
/// not pay a connect timeout re-discovering the same dead node.
///
/// `epoch` records the incarnation the member last answered with: a
/// probe that returns a higher epoch means the process restarted and
/// must be re-synced before serving reads. `missed_writes` is set when a
/// write fan-out skipped this member while it was down — another reason
/// a recovering member needs a sync before rejoining.
///
/// On top of the probe rate limit sits a circuit breaker for *flapping*
/// members — ones that answer the Hello probe but fail every real
/// request, so they cycle up/down and eat a failover on every query.
/// MarkUp deliberately does not clear the failure streak; only time does
/// (kBreakerFailureDecayMs without a failure). A member that
/// accumulates kBreakerTripFailures MarkDowns within the decay window
/// is quarantined for kBreakerQuarantineMs: ShouldProbe stays false
/// until the quarantine elapses, after which it gets one probe to prove
/// itself (half-open).
///
/// Thread-safe; the replica group consults it from concurrent queries.
class HealthTracker {
 public:
  /// MarkDown()s in a row, each within the decay window of the previous,
  /// that trip the breaker.
  static constexpr int kBreakerTripFailures = 3;
  /// Failures further apart than this are unrelated incidents, not a
  /// flap: the streak restarts instead of accumulating.
  static constexpr int64_t kBreakerFailureDecayMs = 30000;
  /// A tripped member is quarantined this long: no probes, no dials.
  static constexpr int64_t kBreakerQuarantineMs = 5000;

  /// `probe_interval_ms` is the minimum spacing between probes of a down
  /// member.
  explicit HealthTracker(int probe_interval_ms = 100)
      : probe_interval_ms_(probe_interval_ms) {}

  /// Injects a millisecond clock (tests advance a fake one to step
  /// through quarantine without sleeping). Null restores steady_clock.
  void set_clock(std::function<int64_t()> clock) {
    std::lock_guard<std::mutex> lock(mutex_);
    clock_ = std::move(clock);
  }

  bool healthy() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return healthy_;
  }

  uint64_t epoch() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return epoch_;
  }

  uint64_t failovers() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return failovers_;
  }

  bool missed_writes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return missed_writes_;
  }

  /// Whether the breaker is currently open for this member.
  bool quarantined() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return NowMs() < quarantined_until_ms_;
  }

  /// How many times the breaker has tripped (observability).
  uint64_t breaker_trips() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return breaker_trips_;
  }

  /// Member answered (and, if it was stale, has been re-synced): healthy
  /// at `epoch`, with no outstanding missed writes. The breaker's
  /// failure streak intentionally survives this — a flapping member
  /// marks up between every pair of failures.
  void MarkUp(uint64_t epoch) {
    std::lock_guard<std::mutex> lock(mutex_);
    healthy_ = true;
    missed_writes_ = false;
    epoch_ = epoch;
  }

  /// Member failed at the transport level. Also (re)starts the probe
  /// rate-limit window so the very next query does not immediately
  /// re-dial it, and advances the breaker streak.
  void MarkDown() {
    std::lock_guard<std::mutex> lock(mutex_);
    healthy_ = false;
    const int64_t now = NowMs();
    last_probe_ms_ = now;
    if (last_down_ms_ != kNever &&
        now - last_down_ms_ > kBreakerFailureDecayMs) {
      failure_streak_ = 0;  // Old incident; start a fresh streak.
    }
    last_down_ms_ = now;
    if (++failure_streak_ >= kBreakerTripFailures) {
      quarantined_until_ms_ = now + kBreakerQuarantineMs;
      failure_streak_ = 0;  // Half-open after quarantine: prove it again.
      ++breaker_trips_;
    }
  }

  /// A read was re-routed off this member.
  void NoteFailover() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++failovers_;
  }

  /// A write fan-out skipped this member while it was down.
  void NoteMissedWrite() {
    std::lock_guard<std::mutex> lock(mutex_);
    missed_writes_ = true;
  }

  /// Whether a down member may be probed now. Never while quarantined;
  /// otherwise true at most once per probe interval (and records the
  /// attempt).
  bool ShouldProbe() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (healthy_) return false;
    const int64_t now = NowMs();
    if (now < quarantined_until_ms_) return false;
    if (now - last_probe_ms_ < probe_interval_ms_) return false;
    last_probe_ms_ = now;
    return true;
  }

 private:
  /// "Never happened" sentinel far enough in the past that any window
  /// arithmetic against a real or fake clock stays negative-safe.
  static constexpr int64_t kNever = std::numeric_limits<int64_t>::min() / 2;

  int64_t NowMs() const {
    if (clock_) return clock_();
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  const int probe_interval_ms_;
  mutable std::mutex mutex_;
  std::function<int64_t()> clock_;
  bool healthy_ = true;
  bool missed_writes_ = false;
  uint64_t epoch_ = 0;
  uint64_t failovers_ = 0;
  uint64_t breaker_trips_ = 0;
  int failure_streak_ = 0;
  int64_t last_probe_ms_ = kNever;
  int64_t last_down_ms_ = kNever;
  int64_t quarantined_until_ms_ = kNever;
};

}  // namespace turbdb
