// Persistence for learned policies.
//
// Offline policy initialization is the expensive step of RAC (the paper
// reports >10 hours of data collection per context on the real testbed);
// a deployment trains once per anticipated context and ships the result.
// The format ("rac-qtable v2") is a line-oriented text format: versioned
// header, one row per state with the 8 parameter values followed by the
// 17 action values, and an explicit "end" trailer so a table can be
// embedded inside a larger stream (agent snapshots, policy libraries).
// Text keeps the files diffable and platform-independent; round-trip
// precision uses hex floats written and parsed with
// std::to_chars/std::from_chars, which are immune to the process locale.
#pragma once

#include <iosfwd>
#include <string>

#include "rl/qtable.hpp"

namespace rac::rl {

/// Serialize a Q-table: the rows of its merged view, an overlay's base
/// rows included. Throws std::ios_base::failure on stream errors.
void save_qtable(std::ostream& os, const QTable& table);

/// Serialize only the rows `table` holds itself (QTable::num_rows()), in
/// the same format: a plain table of an overlay's own rows, which
/// QTable::overlay_on puts back over the base. Agent snapshots store this.
void save_own_rows(std::ostream& os, const QTable& table);

/// Parse a Q-table produced by save_qtable or save_own_rows. Throws
/// std::runtime_error on malformed input: bad magic, any version but v2,
/// truncated or malformed rows, a non-finite default or Q value (no
/// learner writes one), and duplicate state rows (a duplicate would
/// silently shadow earlier values). Leaves the stream positioned just past
/// the table so callers can embed tables in larger formats.
QTable load_qtable(std::istream& is);

/// File-path convenience wrappers. Saving writes atomically (temp file +
/// rename); loading additionally rejects trailing garbage after the table.
void save_qtable_file(const std::string& path, const QTable& table);
QTable load_qtable_file(const std::string& path);

}  // namespace rac::rl
