#include "rl/serialization.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <clocale>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <locale>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "rl/td_learner.hpp"
#include "util/lineio.hpp"
#include "util/rng.hpp"

namespace rac::rl {
namespace {

QTable sample_table() {
  QTable table;
  table.set_default_q(-0.5);
  util::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const auto state = config::ConfigSpace::random_fine(rng);
    for (std::size_t a = 0; a < config::kNumActions; ++a) {
      table.set_q(state, config::Action(static_cast<int>(a)),
                  rng.normal(0.0, 3.0));
    }
  }
  return table;
}

TEST(Serialization, RoundTripIsExact) {
  const QTable original = sample_table();
  std::stringstream stream;
  save_qtable(stream, original);
  const QTable loaded = load_qtable(stream);

  EXPECT_EQ(loaded.size(), original.size());
  EXPECT_DOUBLE_EQ(loaded.default_q(), original.default_q());
  for (const auto& state : original.states()) {
    for (std::size_t a = 0; a < config::kNumActions; ++a) {
      const config::Action action(static_cast<int>(a));
      EXPECT_DOUBLE_EQ(loaded.q(state, action), original.q(state, action));
    }
  }
}

TEST(Serialization, EmptyTableRoundTrips) {
  QTable empty;
  std::stringstream stream;
  save_qtable(stream, empty);
  const QTable loaded = load_qtable(stream);
  EXPECT_TRUE(loaded.empty());
}

TEST(Serialization, GreedyPolicySurvivesRoundTrip) {
  const QTable original = sample_table();
  std::stringstream stream;
  save_qtable(stream, original);
  const QTable loaded = load_qtable(stream);
  for (const auto& state : original.states()) {
    EXPECT_EQ(loaded.best_action(state), original.best_action(state));
  }
}

TEST(Serialization, RejectsForeignStream) {
  std::stringstream stream("not-a-qtable v1\n");
  EXPECT_THROW(load_qtable(stream), std::runtime_error);
}

TEST(Serialization, RejectsUnsupportedVersion) {
  std::stringstream stream("rac-qtable v99\ndefault_q 0x0p+0\nstates 0\n");
  EXPECT_THROW(load_qtable(stream), std::runtime_error);
  // v1 (printf "%a" doubles, no trailer) is no longer written or read.
  std::stringstream v1("rac-qtable v1\ndefault_q 0p+0\nstates 0\n");
  EXPECT_THROW(load_qtable(v1), std::runtime_error);
}

TEST(Serialization, RejectsTruncatedRows) {
  const QTable original = sample_table();
  std::stringstream stream;
  save_qtable(stream, original);
  std::string text = stream.str();
  text.resize(text.size() * 2 / 3);
  std::stringstream truncated(text);
  EXPECT_THROW(load_qtable(truncated), std::runtime_error);
}

TEST(Serialization, FileRoundTrip) {
  const QTable original = sample_table();
  const std::string path = ::testing::TempDir() + "/rac_qtable_test.txt";
  save_qtable_file(path, original);
  const QTable loaded = load_qtable_file(path);
  EXPECT_EQ(loaded.size(), original.size());
  std::remove(path.c_str());
}

TEST(Serialization, MissingFileThrows) {
  EXPECT_THROW(load_qtable_file("/nonexistent/dir/qtable.txt"),
               std::ios_base::failure);
}

TEST(Serialization, WritesV2WithEndTrailer) {
  const QTable table = sample_table();
  std::stringstream stream;
  save_qtable(stream, table);
  const std::string text = stream.str();
  EXPECT_EQ(text.rfind("rac-qtable v2\n", 0), 0u);
  EXPECT_EQ(text.substr(text.size() - 4), "end\n");
}

TEST(Serialization, OutputIsByteStable) {
  // Sorted rows + canonical tokens: the serialized form is a pure function
  // of the table contents, not of hash-map iteration order.
  const QTable table = sample_table();
  std::stringstream first;
  std::stringstream second;
  save_qtable(first, table);
  save_qtable(second, table);
  EXPECT_EQ(first.str(), second.str());

  std::stringstream reload_stream(first.str());
  const QTable reloaded = load_qtable(reload_stream);
  std::stringstream third;
  save_qtable(third, reloaded);
  EXPECT_EQ(third.str(), first.str());
}

TEST(Serialization, TablesCanBeEmbeddedBackToBack) {
  const QTable table = sample_table();
  std::stringstream stream;
  save_qtable(stream, table);
  stream << "tail-token\n";
  const QTable loaded = load_qtable(stream);
  EXPECT_EQ(loaded.size(), table.size());
  // The loader stops exactly at "end"; the embedding caller sees the rest.
  std::string next;
  stream >> next;
  EXPECT_EQ(next, "tail-token");
}

TEST(Serialization, RejectsDuplicateStateRows) {
  // A duplicate row would silently shadow the earlier values.
  util::Rng rng(3);
  const auto state = config::ConfigSpace::random_fine(rng);
  std::ostringstream row;
  for (int v : state.values()) row << v << ' ';
  for (std::size_t a = 0; a < config::kNumActions; ++a) {
    row << "1p+0" << (a + 1 == config::kNumActions ? "\n" : " ");
  }
  std::stringstream stream;
  stream << "rac-qtable v2\ndefault_q 0p+0\nstates 2\n"
         << row.str() << row.str() << "end\n";
  EXPECT_THROW(load_qtable(stream), std::runtime_error);
}

TEST(Serialization, FileLoadRejectsTrailingGarbage) {
  const QTable table = sample_table();
  const std::string path = ::testing::TempDir() + "/rac_qtable_garbage.txt";
  save_qtable_file(path, table);
  {
    std::ofstream os(path, std::ios::app);
    os << "garbage-after-end\n";
  }
  EXPECT_THROW(load_qtable_file(path), std::runtime_error);
  std::remove(path.c_str());
}

// --- locale immunity (the PR-4 serialization bug class) ---------------------

TEST(Serialization, RoundTripSurvivesCommaDecimalCLocale) {
  // Under de_DE/fr_FR, printf("%a")-era code wrote "0x1,8p+0" and stod
  // read "1.5" as 1; to_chars/from_chars ignore the locale entirely.
  const char* candidates[] = {"de_DE.UTF-8", "fr_FR.UTF-8", "de_DE",
                              "fr_FR", "de_DE.utf8", "fr_FR.utf8"};
  const char* engaged_name = nullptr;
  for (const char* name : candidates) {
    if (std::setlocale(LC_ALL, name) != nullptr) {
      engaged_name = name;
      break;
    }
  }
  if (engaged_name == nullptr) {
    std::setlocale(LC_ALL, "C");
    GTEST_SKIP() << "no comma-decimal locale installed on this host";
  }
  const QTable original = sample_table();
  std::stringstream stream;
  save_qtable(stream, original);
  const QTable loaded = load_qtable(stream);
  std::setlocale(LC_ALL, "C");
  ASSERT_EQ(loaded.size(), original.size());
  for (const auto& state : original.states()) {
    for (std::size_t a = 0; a < config::kNumActions; ++a) {
      const config::Action action(static_cast<int>(a));
      EXPECT_EQ(loaded.q(state, action), original.q(state, action));
    }
  }
}

// A numpunct facet that mimics a comma-decimal locale without needing one
// installed: '.'->',' plus thousands grouping. Installed as the GLOBAL C++
// locale, it poisons every default-constructed stream -- exactly what made
// the v1 "states 1500" header come out as "states 1.500" on some hosts.
class CommaNumpunct : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

class ScopedGlobalLocale {
 public:
  explicit ScopedGlobalLocale(const std::locale& loc) : saved_(loc) {}
  ~ScopedGlobalLocale() { std::locale::global(saved_); }

 private:
  std::locale saved_;
};

TEST(Serialization, RoundTripSurvivesCommaGlobalCppLocale) {
  ScopedGlobalLocale guard(std::locale::global(
      std::locale(std::locale::classic(), new CommaNumpunct)));
  // >1000 states so a locale-honoring count would serialize as "1.500".
  QTable original;
  original.set_default_q(0.25);
  util::Rng rng(5);
  while (original.size() < 1500) {
    const auto state = config::ConfigSpace::random_fine(rng);
    original.set_q(state, config::Action(0), rng.normal(0.0, 3.0));
  }
  std::stringstream stream;  // picks up the poisoned global locale
  save_qtable(stream, original);
  EXPECT_NE(stream.str().find("states 1500\n"), std::string::npos);
  const QTable loaded = load_qtable(stream);
  ASSERT_EQ(loaded.size(), original.size());
  for (const auto& state : original.states()) {
    EXPECT_EQ(loaded.q(state, config::Action(0)),
              original.q(state, config::Action(0)));
  }
}


TEST(Serialization, FlatTableMatchesMapBasedReferenceLoader) {
  // The flat open-addressing table replaced a node-based hash map; the
  // rac-qtable v2 format is unchanged. This reference loader parses the
  // stream the way the old map-backed implementation stored it and checks
  // the flat loader agrees value for value.
  const QTable original = sample_table();
  std::stringstream stream;
  save_qtable(stream, original);
  const std::string text = stream.str();

  std::stringstream reference(text);
  ASSERT_EQ(util::read_token(reference, "ref"), "rac-qtable");
  ASSERT_EQ(util::read_token(reference, "ref"), "v2");
  ASSERT_EQ(util::read_token(reference, "ref"), "default_q");
  const double default_q =
      util::parse_double(util::read_token(reference, "ref"), "ref");
  ASSERT_EQ(util::read_token(reference, "ref"), "states");
  const std::uint64_t count =
      util::parse_u64(util::read_token(reference, "ref"), "ref");
  std::unordered_map<config::Configuration,
                     std::array<double, config::kNumActions>,
                     config::ConfigurationHash>
      rows;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::array<int, config::kNumParams> values{};
    for (auto& v : values) {
      v = util::parse_int(util::read_token(reference, "ref"), "ref");
    }
    std::array<double, config::kNumActions> qs{};
    for (auto& q : qs) {
      q = util::parse_double(util::read_token(reference, "ref"), "ref");
    }
    ASSERT_TRUE(rows.emplace(config::Configuration(values), qs).second);
  }
  ASSERT_EQ(util::read_token(reference, "ref"), "end");

  std::stringstream reload(text);
  const QTable loaded = load_qtable(reload);
  EXPECT_EQ(loaded.size(), rows.size());
  EXPECT_EQ(loaded.default_q(), default_q);
  for (const auto& [state, qs] : rows) {
    ASSERT_TRUE(loaded.contains(state));
    for (std::size_t a = 0; a < config::kNumActions; ++a) {
      EXPECT_EQ(loaded.q(state, config::Action(static_cast<int>(a))), qs[a]);
    }
  }
}

// The writer as it was before it walked the table's rows: sorted states(),
// one hashed q() per value and one util::format_double string per value.
// save_qtable must reproduce its bytes exactly.
std::string reference_save_qtable(const QTable& table) {
  std::ostringstream os;
  os << "rac-qtable v2\n";
  os << "default_q " << util::format_double(table.default_q()) << "\n";
  auto states = table.states();
  std::sort(states.begin(), states.end(),
            [](const config::Configuration& a, const config::Configuration& b) {
              return a.values() < b.values();
            });
  os << "states " << util::format_u64(states.size()) << "\n";
  for (const auto& state : states) {
    for (int v : state.values()) os << util::format_i64(v) << ' ';
    for (std::size_t a = 0; a < config::kNumActions; ++a) {
      os << util::format_double(
                table.q(state, config::Action(static_cast<int>(a))))
         << (a + 1 == config::kNumActions ? "" : " ");
    }
    os << "\n";
  }
  os << "end\n";
  return os.str();
}

std::string saved(const QTable& table) {
  std::ostringstream os;
  save_qtable(os, table);
  return os.str();
}

// Every awkward value the hex writer must spell exactly, spread over rows
// that are fully written, partly written, and made but never written (the
// values a row holds unwritten are the default in force when it was made).
QTable edge_value_table() {
  using limits = std::numeric_limits<double>;
  const std::vector<double> values = {
      -0.0,           0.0,          limits::denorm_min(), -limits::denorm_min(),
      limits::min() / 3.0,         -limits::min(),       limits::infinity(),
      -limits::infinity(),         limits::quiet_NaN(),  -limits::quiet_NaN(),
      limits::max(),  limits::lowest(), 1.0 / 3.0,       -1e-300,
      1e300,          2.5,          -7.0};
  QTable table;
  table.set_default_q(-0.0);
  util::Rng rng(31);
  for (int i = 0; i < 40; ++i) {
    const auto state = config::ConfigSpace::random_fine(rng);
    if (i % 5 == 0) {
      table.ensure_row(state);
      continue;
    }
    for (std::size_t a = 0; a < config::kNumActions; ++a) {
      if (i % 3 == 0 && a % 2 == 1) continue;
      table.set_q(state, config::Action(static_cast<int>(a)),
                  values[(a + static_cast<std::size_t>(i)) % values.size()]);
    }
    if (i == 20) table.set_default_q(limits::denorm_min());
  }
  table.set_default_q(-1.0 / 7.0);
  return table;
}

// A table shaped like a trained library's: a row for each state the TD
// walks visited.
QTable trained_table() {
  QTable table;
  table.set_default_q(-0.25);
  TdParams params;
  params.max_sweeps = 20;
  util::Rng rng(32);
  const RewardFn reward = [](const config::Configuration& s) {
    return 1.0 - s.value(config::ParamId::kMaxClients) / 600.0;
  };
  batch_train(table, config::ConfigSpace(3).coarse_grid(), reward, params,
              rng);
  return table;
}

TEST(SerializationOracle, WriterMatchesReferenceByteForByte) {
  QTable empty;
  QTable empty_nonzero_default;
  empty_nonzero_default.set_default_q(0.75);
  QTable only_made;
  only_made.set_default_q(-3.5);
  util::Rng rng(33);
  for (int i = 0; i < 10; ++i) {
    only_made.ensure_row(config::ConfigSpace::random_fine(rng));
  }
  const QTable edges = edge_value_table();
  const QTable trained = trained_table();
  // Long enough that the writer hands its buffer to the stream many times.
  QTable large;
  for (int i = 0; i < 3000; ++i) {
    const auto state = config::ConfigSpace::random_fine(rng);
    large.set_q(state, config::Action(i % static_cast<int>(config::kNumActions)),
                rng.normal(0.0, 1e3));
    large.ensure_row(config::ConfigSpace::random_fine(rng));
  }
  ASSERT_GT(reference_save_qtable(large).size(), 256u * 1024u);
  // An overlay over the trained table: copied rows (made, not changed),
  // modified rows, new rows written or only made, and base rows it never
  // touched.
  QTable overlay;
  overlay.rebase(std::make_shared<const QTable>(trained));
  const std::vector<config::Configuration> base_states = trained.states();
  for (std::size_t i = 0; i < base_states.size(); i += 3) {
    const config::Action action(static_cast<int>(i % config::kNumActions));
    if (i % 2 == 0) {
      overlay.ensure_row(base_states[i]);
    } else {
      overlay.add_q(base_states[i], action, rng.normal(0.0, 1.0));
    }
  }
  for (int i = 0; i < 50; ++i) {
    const auto state = config::ConfigSpace::random_fine(rng);
    if (i % 2 == 0) {
      overlay.set_q(state, config::Action::keep(), rng.normal(0.0, 1.0));
    } else {
      overlay.ensure_row(state);
    }
  }
  ASSERT_GT(overlay.size(), trained.size());
  ASSERT_LT(overlay.num_rows(), overlay.size());
  const std::vector<const QTable*> tables = {
      &empty, &empty_nonzero_default, &only_made, &edges,
      &trained, &large, &overlay};
  for (std::size_t i = 0; i < tables.size(); ++i) {
    SCOPED_TRACE(i);
    const std::string expected = reference_save_qtable(*tables[i]);
    EXPECT_EQ(saved(*tables[i]), expected);
  }
  const QTable sample = sample_table();
  EXPECT_EQ(saved(sample), reference_save_qtable(sample));
  // The premise: the edge table exercises every awkward spelling.
  const std::string text = saved(edges);
  for (const char* token : {" -0p+0", " inf", " -inf", " nan", " -nan",
                            "p-1022", "p-1074"}) {
    EXPECT_NE(text.find(token), std::string::npos) << token;
  }
}

// Row counts are unchecked input. A count far past the rows present must
// fail as malformed input, not size an allocation (std::bad_alloc,
// std::length_error).
TEST(Serialization, HugeStateCountIsMalformedInputNotAnAllocation) {
  const config::Configuration state = config::Configuration::defaults();
  std::string row;
  for (const int v : state.values()) {
    row += util::format_i64(v) + ' ';
  }
  for (std::size_t a = 0; a < config::kNumActions; ++a) row += "0p+0 ";
  row += '\n';
  for (const char* count : {"1000000000000", "18446744073709551615"}) {
    SCOPED_TRACE(count);
    std::stringstream stream("rac-qtable v2\ndefault_q 0p+0\nstates " +
                             std::string(count) + "\n" + row + "end\n");
    EXPECT_THROW(load_qtable(stream), std::runtime_error);
  }
}

}  // namespace
}  // namespace rac::rl
