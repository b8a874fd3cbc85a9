#pragma once

// Deterministic fault injection for the network path. Named call sites
// in net::Server / net::Client ask the registry whether a fault is armed
// (`Check`) and act it out — delay a reply, answer with an error frame,
// truncate a frame mid-write, stall the accept loop. Faults are armed a
// bounded number of times (`count`), so a test can say "truncate the
// next reply, then behave" and get the same interleaving on every run.
//
// The registry is compiled in only under the TURBDB_FAULTS CMake option;
// otherwise every entry point is an inline no-op the optimizer deletes,
// so production builds carry no branch on the hot path. Armed faults
// come from the TURBDB_FAULTS environment variable or a `--faults` tool
// flag, both using the spec grammar:
//
//   site=action:arg:count[;site=action:arg:count...]
//
//   actions: delay (arg = ms), error (arg = StatusCode int),
//            truncate (arg = bytes written before the cut),
//            stall (arg = ms)
//
// e.g. TURBDB_FAULTS="server.reply.delay=delay:5000:1" delays the first
// reply by five seconds and then serves normally.
//
// Streamed-reply sites (any armed action fires them):
//   server.chunk_truncate       write only `arg` bytes of a streamed
//                               chunk frame, then sever the connection
//   client.disconnect_mid_stream the client severs its connection after
//                               the first received chunk (server-side
//                               cancel/abort drill)
//
// Storage integrity sites (any armed action fires them):
//   store.bit_flip              XOR one payload byte *on disk* (arg =
//                               offset within the payload) just before
//                               the next FileAtomStore record read, so
//                               checksum verification, quarantine and
//                               repair run against genuine media damage
//   scrub.stall                 hold the next scrub pass at its start
//                               for `arg` ms
//
// Elasticity sites (any armed action fires them):
//   handoff.crash_before_cutover abort a range move after its copy,
//                               before the cutover (simulated crash)
//   membership.commit           hold the mediator's cutover for `arg` ms
//                               after donor and recipient installed the
//                               new view, before the registry commits it
//                               (a query routed in the window carries
//                               the old view to every shard)

#include <cstdint>
#include <string>

#include "common/status.h"

namespace turbdb {
namespace fault {

enum class Action : int {
  kNone = 0,
  kDelay = 1,     ///< Sleep `arg` ms before proceeding.
  kError = 2,     ///< Reply with an error frame of StatusCode `arg`.
  kTruncate = 3,  ///< Write only `arg` bytes of the frame, then cut.
  kStall = 4,     ///< Stall the accept path for `arg` ms.
};

/// What `Check` found armed at a site (kNone if nothing, or the build
/// has faults compiled out).
struct Injected {
  Action action = Action::kNone;
  uint64_t arg = 0;
  explicit operator bool() const { return action != Action::kNone; }
};

#ifdef TURBDB_FAULTS

/// True when any fault is currently armed (cheap pre-check for sites).
bool Enabled();

/// Consumes one armed count at `site` and returns the action, or kNone.
/// Every call — armed or not — bumps the site's hit counter.
Injected Check(const char* site);

/// Arms `count` firings of `action` at `site` (replaces a prior arm).
void Arm(const std::string& site, Action action, uint64_t arg,
         uint64_t count);

/// Disarms `site` (armed-but-unfired counts are dropped).
void Disarm(const std::string& site);

/// Disarms everything and zeroes all hit counters.
void Reset();

/// Times `Check` consumed an armed fault at `site` (not mere passes).
uint64_t Fired(const std::string& site);

/// Parses and arms a spec string (grammar above). Empty spec is a no-op.
Status Configure(const std::string& spec);

/// Arms from the TURBDB_FAULTS environment variable, if set. Returns the
/// parse status so tools can refuse to start on a typo.
Status InitFromEnv();

#else  // !TURBDB_FAULTS — inline no-ops, compiled away entirely.

inline bool Enabled() { return false; }
inline Injected Check(const char*) { return {}; }
inline void Arm(const std::string&, Action, uint64_t, uint64_t) {}
inline void Disarm(const std::string&) {}
inline void Reset() {}
inline uint64_t Fired(const std::string&) { return 0; }
inline Status Configure(const std::string& spec) {
  if (spec.empty()) return Status::OK();
  return Status::NotSupported(
      "fault injection is compiled out (build with -DTURBDB_FAULTS=ON)");
}
inline Status InitFromEnv() { return Status::OK(); }

#endif  // TURBDB_FAULTS

}  // namespace fault
}  // namespace turbdb
