// FleetManager::save_checkpoint / restore_checkpoint plus the file
// wrappers (format notes in fleet_io.hpp).
#include "fleet/fleet_io.hpp"

#include <fstream>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/library_io.hpp"
#include "core/snapshot.hpp"
#include "env/context.hpp"
#include "env/environment.hpp"
#include "util/lineio.hpp"
#include "util/rng.hpp"

namespace rac::fleet {

namespace {

constexpr const char* kFleetMagic = "rac-fleet-checkpoint";
constexpr int kFleetVersion = 2;

}  // namespace

void FleetManager::save_checkpoint(std::ostream& os) const {
  os << kFleetMagic << " v" << kFleetVersion << "\n";
  os << "seed " << util::format_u64(opt_.seed) << "\n";
  os << "fault_seed " << util::format_u64(opt_.fault_seed) << "\n";
  os << "completed " << util::format_i64(completed_) << "\n";
  os << "retrain_rounds " << util::format_i64(retrain_rounds_) << "\n";
  os << "library\n";
  core::save_library(os, library_);
  os << "tenants " << util::format_u64(tenants_.size()) << "\n";
  for (const Tenant& tenant : tenants_) {
    os << "tenant " << util::format_i64(tenant.spec.id) << "\n";
    util::write_rng_state(os, "env_rng", tenant.analytic->noise_state());
    os << "traffic " << util::format_u64(tenant.analytic->traffic_interval())
       << "\n";
    os << "fault " << util::bool_token(tenant.faulty != nullptr) << "\n";
    if (tenant.faulty != nullptr) {
      fault::save_faulty_env_state(os, tenant.faulty->state());
    }
    os << "agent\n";
    tenant.agent->save_state(os);
  }
  os << "end\n";
  if (!os) {
    throw std::ios_base::failure("save_checkpoint: stream write failed");
  }
}

void FleetManager::restore_checkpoint(std::istream& is) {
  util::expect_header(is, kFleetMagic, kFleetVersion, "fleet checkpoint");
  util::expect_token(is, "seed", "fleet checkpoint");
  const std::uint64_t seed = util::read_u64(is, "seed");
  util::expect_token(is, "fault_seed", "fleet checkpoint");
  const std::uint64_t fault_seed = util::read_u64(is, "fault_seed");
  if (seed != opt_.seed || fault_seed != opt_.fault_seed) {
    throw std::runtime_error(
        "fleet checkpoint: seed mismatch (checkpoint belongs to a "
        "different fleet)");
  }
  util::expect_token(is, "completed", "fleet checkpoint");
  const int completed = util::read_int(is, "completed");
  util::expect_token(is, "retrain_rounds", "fleet checkpoint");
  const int retrain_rounds = util::read_int(is, "retrain_rounds");
  // Both count up as the fleet runs, so their type's maximum is as
  // malformed as a negative value.
  constexpr int kMax = std::numeric_limits<int>::max();
  if (completed < 0 || completed == kMax || retrain_rounds < 0 ||
      retrain_rounds == kMax) {
    throw std::runtime_error(
        "fleet checkpoint: progress counter outside [0, INT_MAX)");
  }
  util::expect_token(is, "library", "fleet checkpoint");
  core::InitialPolicyLibrary library = core::load_library(is);
  if (library.size() != library_.size()) {
    throw std::runtime_error(
        "fleet checkpoint: library size differs from the live fleet's");
  }
  for (std::size_t i = 0; i < library.size(); ++i) {
    if (!(library.at(i).context == library_.at(i).context)) {
      throw std::runtime_error(
          "fleet checkpoint: library context mismatch at policy " +
          std::to_string(i));
    }
  }
  util::expect_token(is, "tenants", "fleet checkpoint");
  const std::uint64_t count = util::read_u64(is, "tenants");
  if (count != tenants_.size()) {
    throw std::runtime_error(
        "fleet checkpoint: tenant count differs from the live fleet's");
  }

  // Parse every tenant into one record and check it against its live
  // tenant before adopting anything: a failed restore leaves the fleet as
  // it was.
  struct TenantRecord {
    util::RngState env_rng;
    std::uint64_t traffic = 0;
    std::optional<fault::FaultyEnvState> fault;
    core::AgentSnapshot agent;
  };
  std::vector<TenantRecord> records(tenants_.size());
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    const Tenant& tenant = tenants_[t];
    TenantRecord& record = records[t];
    util::expect_token(is, "tenant", "fleet checkpoint");
    const int id = util::read_int(is, "tenant");
    if (id != tenant.spec.id) {
      throw std::runtime_error("fleet checkpoint: tenant id " +
                               std::to_string(id) +
                               " does not match the live fleet's " +
                               std::to_string(tenant.spec.id));
    }
    record.env_rng = util::read_rng_state(is, "env_rng");
    util::expect_token(is, "traffic", "fleet checkpoint");
    record.traffic = env::TrafficCursor::read_position(is, "traffic");
    util::expect_token(is, "fault", "fleet checkpoint");
    const bool has_fault = util::read_bool(is, "fault");
    if (has_fault != (tenant.faulty != nullptr)) {
      throw std::runtime_error(
          "fleet checkpoint: fault topology differs from the live fleet's "
          "at tenant " +
          std::to_string(id));
    }
    if (has_fault) record.fault = fault::load_faulty_env_state(is);
    util::expect_token(is, "agent", "fleet checkpoint");
    record.agent = core::load_agent_snapshot(is);
    // The library's contexts were checked above, so the live library
    // answers for the checkpoint's.
    tenant.agent->check_restorable(record.agent);
  }
  util::expect_token(is, "end", "fleet checkpoint");

  // Commit: every check has passed, so nothing below throws on content.
  library_ = std::move(library);
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    Tenant& tenant = tenants_[t];
    const TenantRecord& record = records[t];
    tenant.agent->rebase_library(library_);
    tenant.agent->restore(record.agent);
    tenant.analytic->restore_noise_state(record.env_rng);
    tenant.analytic->seek_traffic(record.traffic);
    if (record.fault.has_value()) tenant.faulty->restore(*record.fault);
  }
  completed_ = completed;
  retrain_rounds_ = retrain_rounds;
}

void save_fleet_checkpoint_file(const std::string& path,
                                const FleetManager& fleet) {
  std::ostringstream buffer;
  fleet.save_checkpoint(buffer);
  util::atomic_write_file(path, buffer.str());
}

void restore_fleet_checkpoint_file(const std::string& path,
                                   FleetManager& fleet) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::ios_base::failure("restore_fleet_checkpoint_file: cannot open " +
                                 path);
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  std::istringstream is(contents.str());
  fleet.restore_checkpoint(is);
  std::string extra;
  if (is >> extra) {
    throw std::runtime_error(
        "restore_fleet_checkpoint_file: trailing garbage after checkpoint");
  }
}

}  // namespace rac::fleet
