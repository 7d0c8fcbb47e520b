// Fingerprints and the cold session tier.
//
// The engine's in-memory session cache (hot tier) dies with the process.  A
// long-lived service wants the expensive part of phase 1 — the matcher
// score grid of every source table against the target database — to
// survive restarts and evictions, so the engine can optionally attach a
// SessionColdStore: a blob store keyed by the (source, target, options)
// fingerprint.  On a hot miss the engine consults the cold store, restores
// the sessions from the blob (cheap: samples rebuild from the request's
// tables, distributions replay from the scores — bit-identical, see
// match/session.h), and promotes the entry into the hot LRU.  On a full
// build it hands the serialized entry back for storage.
//
// The disk-backed implementation lives in src/service/disk_store.h; core
// only defines the interface so the engine stays free of filesystem
// concerns.

#ifndef CSM_CORE_SESSION_STORE_H_
#define CSM_CORE_SESSION_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "match/session.h"
#include "relational/table.h"

namespace csm {

/// FNV-1a style 64-bit fold with avalanche; the mixing primitive behind
/// every fingerprint below (exposed so the service can derive request
/// deduplication keys from the same family).
uint64_t MixFingerprint(uint64_t h, uint64_t v);

/// Content fingerprint of a database: name, schemas and every cell value.
/// Two databases with the same fingerprint yield the same sessions, so
/// caches key on it rather than on object identity (callers often rebuild
/// equal Database values between calls).
uint64_t FingerprintDatabase(const Database& db);

/// Content fingerprint of one table: its name, schema and every cell value
/// (the fold FingerprintDatabase applies to each of its tables).  Keys the
/// engine's SampleStore, which serves a table in either role.
uint64_t FingerprintTableContent(const Table& table);

/// Fingerprint of the MatchOptions fields that change what a session's raw
/// score grid contains (min_non_null_values gates which triples are scored;
/// the others shape confidences recomputed live, but are folded in too so a
/// cold entry never crosses an options change).
uint64_t FingerprintMatchOptions(const MatchOptions& options);

/// A blob store for serialized session-cache entries.  Implementations must
/// tolerate concurrent processes (atomic publish or last-writer-wins) and
/// treat every blob as untrusted: the engine re-validates on parse and
/// falls back to a fresh build on any mismatch.
class SessionColdStore {
 public:
  virtual ~SessionColdStore() = default;

  /// Fills `blob` and returns true when `key` is present.
  virtual bool Load(uint64_t key, std::string* blob) = 0;

  /// Persists `blob` under `key`; returns false on failure (non-fatal: the
  /// engine just rebuilt the sessions, losing the write costs a future
  /// rebuild, nothing else).
  virtual bool Store(uint64_t key, const std::string& blob) = 0;

  /// Health introspection: blobs this store has set aside as corrupt or
  /// truncated (see DiskSessionStore's quarantine).  Default 0 for stores
  /// without integrity checking.
  virtual uint64_t Quarantined() const { return 0; }
};

/// Serializes one session-cache entry: a versioned header, then per source
/// table a name line plus the session's raw score matrix.
std::string SerializeSessionScores(
    const std::vector<std::unique_ptr<TableMatchSession>>& sessions);

/// Parses a SerializeSessionScores blob against `source`'s tables (count
/// and order must line up) and `target`: each table's grid must hold one
/// row per DefaultMatcherSuite matcher, one per source attribute and one
/// score per target attribute.  Returns one RestoredScores per table, ready
/// to feed the TableMatchSession restore constructor.
StatusOr<std::vector<TableMatchSession::RestoredScores>> ParseSessionScores(
    const std::string& blob, const Database& source, const Database& target);

}  // namespace csm

#endif  // CSM_CORE_SESSION_STORE_H_
