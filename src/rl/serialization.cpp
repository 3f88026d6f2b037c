#include "rl/serialization.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "obs/profiler.hpp"
#include "util/lineio.hpp"

namespace rac::rl {

namespace {
constexpr const char* kMagic = "rac-qtable";

// Numbers go through util/lineio (to_chars / from_chars, immune to the
// process locale); the "end" trailer lets the table be embedded in larger
// streams (agent snapshots, policy libraries).
constexpr int kVersion = 2;

// save_qtable formats into a fixed buffer of kBufferChars, handing it to
// the stream whenever the next row might not fit. A row is kNumParams ints
// and kNumActions doubles, each followed by a separator.
constexpr std::size_t kBufferChars = 64 * 1024;
constexpr std::size_t kMaxRowChars =
    config::kNumParams * (util::kMaxI64Chars + 1) +
    config::kNumActions * (util::kMaxDoubleChars + 1);
static_assert(kBufferChars >= 2 * kMaxRowChars);

char* put(char* out, std::string_view text) {
  return std::copy(text.begin(), text.end(), out);
}

struct Row {
  const config::Configuration* state;
  const QTable::ActionValues* values;
};

// Writes a rac-qtable block of `rows` under `default_q`. Rows come in
// first-touch order, a function of the mutation history; sorting them by
// key keeps the output a pure function of the table contents (diffable,
// byte-stable across runs, the same for an overlay and a full copy of
// what it reads).
void write_table(std::ostream& os, double default_q, std::vector<Row> rows) {
  const obs::ProfileScope profile("rl.qtable.save");
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.state->values() < b.state->values();
  });

  // Rows are formatted straight from the table's storage into one buffer
  // of fixed size, which stays in cache however large the table is.
  std::string buffer(kBufferChars, '\0');
  char* const first = buffer.data();
  char* out = first;
  const auto make_room = [&](std::size_t chars) {
    if (static_cast<std::size_t>(first + kBufferChars - out) < chars) {
      os.write(first, static_cast<std::streamsize>(out - first));
      out = first;
    }
  };
  out = put(out, kMagic);
  out = put(out, " v");
  out = util::put_i64(out, kVersion);
  out = put(out, "\ndefault_q ");
  out = util::put_double(out, default_q);
  out = put(out, "\nstates ");
  out = util::put_i64(out, static_cast<std::int64_t>(rows.size()));
  *out++ = '\n';
  for (const Row& row : rows) {
    make_room(kMaxRowChars);
    for (const int v : row.state->values()) {
      out = util::put_i64(out, v);
      *out++ = ' ';
    }
    for (const double q : *row.values) {
      out = util::put_double(out, q);
      *out++ = ' ';
    }
    out[-1] = '\n';
  }
  make_room(4);
  out = put(out, "end\n");
  os.write(first, static_cast<std::streamsize>(out - first));
  if (!os) throw std::ios_base::failure("save_qtable: write failed");
}

// A Q value or default as a table may hold one: every value the TD
// learner and the loaders produce is finite.
double read_q(std::istream& is, const char* what) {
  const double value = util::read_double(is, what);
  if (!std::isfinite(value)) {
    throw std::runtime_error(std::string(what) + ": non-finite value");
  }
  return value;
}

}  // namespace

void save_qtable(std::ostream& os, const QTable& table) {
  std::vector<Row> rows;
  rows.reserve(table.size());
  table.for_each_row([&rows](const config::Configuration& state,
                             const QTable::ActionValues& values) {
    rows.push_back({&state, &values});
  });
  write_table(os, table.default_q(), std::move(rows));
}

void save_own_rows(std::ostream& os, const QTable& table) {
  std::vector<Row> rows;
  rows.reserve(table.num_rows());
  table.for_each_own_row([&rows](const config::Configuration& state,
                                 const QTable::ActionValues& values) {
    rows.push_back({&state, &values});
  });
  write_table(os, table.default_q(), std::move(rows));
}

QTable load_qtable(std::istream& is) {
  const obs::ProfileScope profile("rl.qtable.load");
  util::expect_header(is, kMagic, kVersion, "load_qtable");
  util::expect_token(is, "default_q", "load_qtable");
  QTable table;
  table.set_default_q(read_q(is, "load_qtable default_q"));

  util::expect_token(is, "states", "load_qtable");
  const std::uint64_t count = util::read_u64(is, "load_qtable");
  // Rows are read as they parse: `count` is unchecked input, so it sizes
  // nothing up front.
  for (std::uint64_t row = 0; row < count; ++row) {
    const config::Configuration state =
        config::read_configuration(is, "load_qtable state row");
    if (table.contains(state)) {
      throw std::runtime_error(
          "load_qtable: duplicate state row (each state must appear once)");
    }
    for (std::size_t a = 0; a < config::kNumActions; ++a) {
      table.set_q(state, config::Action(static_cast<int>(a)),
                  read_q(is, "load_qtable Q row"));
    }
  }
  util::expect_token(is, "end", "load_qtable");
  return table;
}

void save_qtable_file(const std::string& path, const QTable& table) {
  std::ostringstream os;
  save_qtable(os, table);
  util::atomic_write_file(path, os.str());
}

QTable load_qtable_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::ios_base::failure("load_qtable_file: cannot open " + path);
  QTable table = load_qtable(is);
  std::string extra;
  if (is >> extra) {
    throw std::runtime_error("load_qtable_file: trailing garbage after table: '" +
                             extra + "'");
  }
  return table;
}

}  // namespace rac::rl
