// FaultInjector: named fault-injection sites for testing the cancellation
// and degradation contracts.
//
// Production code calls FaultInjector::Hit("site.name", index) at a few
// well-known points (the thread pool's task dispatch, the classifier grid,
// per-attribute index building and per-candidate view scoring, per-table
// session building).  The hook is compiled in always but inert unless a
// test arms it: the unarmed fast path is a single relaxed atomic load, so
// leaving the sites in release builds costs nothing measurable.
//
// Tests arm a site with an ArmSpec describing when to fire (a specific
// logical index, or the first hit) and what to do:
//   * kCancel — cancel an external CancellationToken with a chosen reason
//               (injected deadline expiry / caller cancel / fault);
//   * kFail   — Hit() returns true and the caller must fail that one work
//               unit (task-level failure); also cancels the spec's token
//               when one is attached, so a fault can degrade the whole run;
//   * kSleep  — block the calling thread for sleep_ms (slow-worker
//               simulation; never changes results, only timing).
//
// Determinism: sites that pass a *logical* index (candidate index, grid
// cell index, table index) fire on the same unit of work at any thread
// count, which is what makes cancelled-run results reproducible (see
// determinism_test).  The "pool.task" site passes a submission sequence
// number, which is schedule-dependent — arm it only with kSleep.
//
// The registry is global (tests in one binary run sequentially); Arm/
// DisarmAll and concurrent Hit calls are thread-safe.

#ifndef CSM_COMMON_FAULT_INJECTOR_H_
#define CSM_COMMON_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/cancellation.h"

namespace csm {

class FaultInjector {
 public:
  /// Matches any index (fire on the first `fire_limit` hits of the site).
  static constexpr uint64_t kAnyIndex = UINT64_MAX;

  enum class Action : uint8_t {
    kCancel,  // cancel `token` with `reason`
    kFail,    // caller fails this work unit (and `token` is cancelled too)
    kSleep,   // sleep `sleep_ms` on the hitting thread
  };

  struct ArmSpec {
    std::string site;              // e.g. "scoring.candidate"
    uint64_t index = kAnyIndex;    // logical index to fire on
    Action action = Action::kCancel;
    /// Token to cancel for kCancel / kFail; may be null (kFail then only
    /// fails the unit, kCancel becomes a no-op).  Must stay alive until
    /// DisarmAll().
    CancellationToken* token = nullptr;
    CancelReason reason = CancelReason::kFault;
    int64_t sleep_ms = 0;          // for kSleep
    /// Times this spec may fire; 0 = unlimited.
    uint64_t fire_limit = 1;
    /// Rate-based firing: when > 0 the spec matches only indices with
    /// index % period == 0, i.e. a deterministic 1/period fault rate over
    /// the site's logical index stream (combine with fire_limit = 0 for a
    /// sustained schedule).  0 keeps the exact-index / any-index behavior.
    uint64_t period = 0;
  };

  /// Registers a spec (several may be armed at once).
  static void Arm(ArmSpec spec);

  /// Removes every armed spec and resets fire counts.  Tests must disarm
  /// in teardown; armed specs hold caller-owned token pointers.
  static void DisarmAll();

  /// True when any spec is armed (the slow path is live).
  static bool armed();

  /// Total times any spec fired at `site` since the last DisarmAll.
  static uint64_t FireCount(const std::string& site);

  /// The production-side hook.  Returns true when the caller must fail
  /// this work unit (a kFail spec fired).  Inert (false, one atomic load)
  /// when nothing is armed.
  static bool Hit(std::string_view site, uint64_t index);
};

}  // namespace csm

#endif  // CSM_COMMON_FAULT_INJECTOR_H_
