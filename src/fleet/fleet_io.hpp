// Whole-fleet checkpoint/restore ("rac-fleet-checkpoint v3"; the loader
// accepts only the version the writer emits).
//
// One checkpoint captures everything a fleet needs to continue
// bit-identically: progress counters, the shared policy library (embedded
// via core::save_library), the stale bases, and per tenant the
// environment's noise-stream position, the dynamic-traffic cursor (the
// model itself is immutable run input carried by the TenantSpec, so only
// the position is state), the fault injector's state, and the agent
// snapshot (embedded via RacAgent::save_state, which writes the
// core::save_agent_snapshot format -- both embedded formats are
// self-delimiting, so no byte counts are needed). Stats registries are
// observability, not state, and are not captured.
//
// A tenant's snapshot holds its Q-table's own rows and the fingerprint of
// the library policy they overlay, never that table. After a cross-tenant
// retrain a tenant keeps reading the previous generation's table until its
// next policy load, so the checkpoint also writes each distinct base its
// tenants overlay that the embedded library does not hold, once, as a
// `stale_base <fingerprint>` line and a rac-qtable block, sorted by
// fingerprint. Restore hands each tenant the table its fingerprint names
// and rejects a tenant naming a base the file does not hold.
//
// Same line-oriented persistence idiom as the rest of the repo: labeled
// tokens, util/lineio hex-float doubles (locale-immune, exact), an "end"
// trailer, atomic file replacement, and trailing-garbage rejection in the
// file loader.
#pragma once

#include <string>

#include "fleet/fleet.hpp"

namespace rac::fleet {

/// File wrappers over FleetManager::save_checkpoint /
/// restore_checkpoint. Saving writes atomically (temp file + rename);
/// restoring rejects trailing garbage after the "end" trailer and
/// validates the checkpoint against the live fleet's specs. Throws
/// std::ios_base::failure on I/O errors and std::runtime_error /
/// std::invalid_argument on malformed or mismatched contents.
void save_fleet_checkpoint_file(const std::string& path,
                                const FleetManager& fleet);
void restore_fleet_checkpoint_file(const std::string& path,
                                   FleetManager& fleet);

}  // namespace rac::fleet
