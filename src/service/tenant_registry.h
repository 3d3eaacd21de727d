// Tenant catalog of the service layer: name -> retrust::Session, with
// per-tenant SessionOptions, lazy loading, and snapshot-backed
// unload/reload.
//
// Three registration styles:
//   * Add(...)        — eager: the dataset is already in memory; the
//     Session opens immediately, so schema/FD errors surface at
//     registration.
//   * AddCsv(...)     — lazy: only the (path, Σ, options) spec is stored;
//     the first request that needs the tenant pays the CSV read + context
//     build, and I/O or validation failures surface on THAT request
//     (kIoError/kInvalidFd/...). A failed lazy open is retried on the
//     next use, so a dataset that appears later just works.
//   * AddSnapshot(...) — lazy like AddCsv, but the first use restores a
//     src/persist/ snapshot (Session::OpenSnapshot): the O(n²) context
//     build is skipped and the warm caches come back with it.
//
// Hot-tenant lifecycle: every loaded tenant keeps a RELOAD SPEC (the CSV
// path it was opened from, or its latest snapshot), so an idle tenant can
// be unloaded — its Session released, memory reclaimed — and transparently
// reloaded by the next request. SaveSnapshot(name, path) writes the
// tenant's current state and makes that snapshot the reload spec. Unload
// refuses tenants whose in-memory state the spec cannot reproduce (deltas
// applied since the spec was taken) unless a snapshot_dir is configured,
// in which case it auto-saves first. With max_loaded_bytes > 0 the
// registry enforces the budget after every load by unloading
// least-recently-used idle tenants — previously idle tenants pinned their
// memory forever.
//
// Every session is opened with the defaults' pool injected into its
// SessionOptions (see SessionOptions::pool), so a hundred tenants share
// one set of threads instead of spawning a hundred pools.
//
// Thread safety: all methods are safe to call concurrently. The registry
// mutex guards only the catalog shape; a lazy open (and an unload's
// snapshot save) runs under the tenant's own mutex so one slow CSV read
// never blocks other tenants. An unload races benignly with in-flight
// work: executing requests hold the Session by shared_ptr, so the session
// stays alive until they finish — Unload just refuses tenants that are
// visibly busy at the moment of release.

#ifndef RETRUST_SERVICE_TENANT_REGISTRY_H_
#define RETRUST_SERVICE_TENANT_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/api/session.h"
#include "src/service/stats.h"

namespace retrust::service {

class TenantRegistry {
 public:
  /// `defaults` seed tenants registered without explicit options, and
  /// `defaults.pool` (nullable, not owned, must outlive the registry)
  /// replaces the pool of every tenant's SessionOptions. `snapshot_dir`
  /// (may be empty = disabled) lets Unload auto-save dirty tenants to
  /// "<dir>/<name>.snap"; `max_loaded_bytes` (0 = unbounded) bounds the
  /// estimated memory of loaded sessions, enforced by LRU unload of idle
  /// tenants after each load.
  explicit TenantRegistry(SessionOptions defaults,
                          std::string snapshot_dir = {},
                          size_t max_loaded_bytes = 0)
      : defaults_(std::move(defaults)),
        snapshot_dir_(std::move(snapshot_dir)),
        max_loaded_bytes_(max_loaded_bytes) {}

  /// Eager registration: opens the Session now. kInvalidArgument when the
  /// name is taken; otherwise whatever Session::Open reports. Eager
  /// tenants have no reload spec until SaveSnapshot gives them one, so
  /// they are not unloadable before that.
  Status Add(const std::string& name, Instance data,
             const std::vector<std::string>& fd_texts,
             std::optional<SessionOptions> opts = std::nullopt);

  /// Lazy registration: stores the spec, defers the CSV read and context
  /// build to the first Get. kInvalidArgument when the name is taken.
  Status AddCsv(const std::string& name, std::string csv_path,
                std::vector<std::string> fd_texts,
                std::optional<SessionOptions> opts = std::nullopt);

  /// Lazy registration from a snapshot file: the first Get restores it
  /// via Session::OpenSnapshot (fingerprint/corruption errors surface on
  /// that request, and the spec stays for a retry).
  Status AddSnapshot(const std::string& name, std::string snapshot_path,
                     std::optional<SessionOptions> opts = std::nullopt);

  bool Contains(const std::string& name) const;
  std::vector<std::string> Names() const;

  /// The tenant's session, opening/restoring a lazy spec on first use and
  /// then enforcing the byte budget. kInvalidArgument for unknown names;
  /// open failures pass through and leave the spec registered for a retry.
  Result<std::shared_ptr<Session>> Get(const std::string& name);

  /// Saves the tenant's current state to `path` (loading it first if it
  /// is not resident) and records the snapshot as the tenant's reload
  /// spec — after this, Unload can always release it.
  Status SaveSnapshot(const std::string& name, const std::string& path);

  /// Releases the tenant's Session, keeping its reload spec; the next Get
  /// reloads transparently. Not loaded → Ok (idempotent). Refusals:
  /// kOverloaded when requests are executing against it right now;
  /// kInvalidArgument when its state has diverged from its spec (deltas
  /// applied) and no snapshot_dir is configured to auto-save it, or when
  /// it has no reload spec at all. `tolerated_pins` is for callers that
  /// KNOW they hold extra shared_ptr references to the session while
  /// calling (Server's queued unload verb executes with the worker's
  /// resolution pinned): the busy check allows that many beyond the
  /// registry's own.
  Status Unload(const std::string& name, int tolerated_pins = 0);

  /// Session-level stats WITHOUT forcing a lazy open (an unloaded tenant
  /// reports loaded = false and zeros). The queue/execution fields of
  /// TenantStats are the Server's to fill.
  Result<TenantStats> StatsFor(const std::string& name) const;

  /// Re-estimates the bytes charged to `name` after `session` — the
  /// tenant's loaded session — changed size (a delta applied), then
  /// enforces the byte budget with `name` exempt, as a lazy load does. The
  /// caller excludes the tenant's other requests (Server's lane barrier).
  /// A tenant no longer holding `session` is left as it is.
  void Recharge(const std::string& name, const Session& session);

  /// Estimated bytes of all loaded sessions (the budget's left-hand side).
  size_t LoadedBytes() const;

 private:
  struct Tenant {
    /// Reload spec: at most one of csv_path / snapshot_path is the active
    /// source (snapshot wins when both are set — it is always newer, the
    /// registry only sets it via SaveSnapshot/auto-save). Retained after
    /// open so the tenant stays reloadable.
    std::string csv_path;
    std::string snapshot_path;
    std::vector<std::string> fd_texts;
    SessionOptions opts;
    std::shared_ptr<Session> session;  ///< null until opened / when unloaded
    /// The Session::DataVersion() the reload spec reproduces; a loaded
    /// session with a different version is "dirty" (unload would lose
    /// deltas without an auto-save).
    uint64_t spec_version = 0;
    uint64_t last_used = 0;  ///< LRU ordinal (registry use_clock_)
    size_t bytes = 0;        ///< coarse estimate while loaded, 0 otherwise
    /// Serializes the lazy open/unload of THIS tenant only.
    std::unique_ptr<std::mutex> open_mu = std::make_unique<std::mutex>();
  };

  SessionOptions WithPool(std::optional<SessionOptions> opts) const;
  /// Opens `tenant` from its spec (caller holds tenant->open_mu, NOT mu_).
  Result<std::shared_ptr<Session>> OpenFromSpec(Tenant* tenant);
  /// Unload body; `busy_retries` bounds the brief waits for transient
  /// worker-loop pins (0 = fail fast, for best-effort eviction).
  Status UnloadImpl(const std::string& name, int tolerated_pins,
                    int busy_retries);
  /// LRU-unloads idle tenants (never `keep`) until the budget fits.
  void EnforceBudget(const std::string& keep);

  SessionOptions defaults_;
  std::string snapshot_dir_;
  size_t max_loaded_bytes_;
  mutable std::mutex mu_;  ///< guards the map and Tenant::session pointers
  std::map<std::string, Tenant> tenants_;
  uint64_t use_clock_ = 0;
};

}  // namespace retrust::service

#endif  // RETRUST_SERVICE_TENANT_REGISTRY_H_
