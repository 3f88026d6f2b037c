#include "rl/qtable.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "rl/serialization.hpp"
#include "rl/td_learner.hpp"
#include "util/rng.hpp"

namespace rac::rl {
namespace {

using config::Action;
using config::ConfigSpace;
using config::Configuration;
using config::ParamId;

TEST(QTable, UnknownStateReadsDefault) {
  QTable t;
  const Configuration s;
  EXPECT_DOUBLE_EQ(t.q(s, Action::keep()), 0.0);
  t.set_default_q(2.5);
  EXPECT_DOUBLE_EQ(t.q(s, Action::keep()), 2.5);
  EXPECT_DOUBLE_EQ(t.max_q(s), 2.5);
  EXPECT_FALSE(t.contains(s));
}

TEST(QTable, SetAndGetRoundTrip) {
  QTable t;
  const Configuration s;
  const Action a = Action::increase(ParamId::kMaxClients);
  t.set_q(s, a, 3.0);
  EXPECT_DOUBLE_EQ(t.q(s, a), 3.0);
  EXPECT_TRUE(t.contains(s));
  EXPECT_EQ(t.size(), 1u);
}

TEST(QTable, AddAccumulates) {
  QTable t;
  const Configuration s;
  const Action a = Action::keep();
  t.add_q(s, a, 1.0);
  t.add_q(s, a, 0.5);
  EXPECT_DOUBLE_EQ(t.q(s, a), 1.5);
}

TEST(QTable, NewRowInheritsDefaultForOtherActions) {
  QTable t;
  t.set_default_q(-1.0);
  const Configuration s;
  t.set_q(s, Action::keep(), 5.0);
  EXPECT_DOUBLE_EQ(t.q(s, Action::increase(ParamId::kMaxThreads)), -1.0);
}

TEST(QTable, BestActionIsArgmax) {
  QTable t;
  const Configuration s;
  t.set_q(s, Action::increase(ParamId::kMaxClients), 1.0);
  t.set_q(s, Action::decrease(ParamId::kSessionTimeout), 4.0);
  EXPECT_EQ(t.best_action(s), Action::decrease(ParamId::kSessionTimeout));
  EXPECT_DOUBLE_EQ(t.max_q(s), 4.0);
}

TEST(QTable, BestActionTieBreaksTowardKeep) {
  QTable t;
  const Configuration s;
  t.set_q(s, Action::keep(), 1.0);
  t.set_q(s, Action::increase(ParamId::kMaxClients), 1.0);
  EXPECT_EQ(t.best_action(s), Action::keep());
}

TEST(QTable, BestActionOfUnknownStateIsKeep) {
  const QTable t;
  EXPECT_EQ(t.best_action(Configuration{}), Action::keep());
}

TEST(QTable, StatesEnumeratesRows) {
  QTable t;
  Configuration a;
  Configuration b;
  b.set(ParamId::kMaxClients, 300);
  t.set_q(a, Action::keep(), 1.0);
  t.set_q(b, Action::keep(), 2.0);
  const auto states = t.states();
  EXPECT_EQ(states.size(), 2u);
}

TEST(QTable, ClearEmptiesTable) {
  QTable t;
  t.set_q(Configuration{}, Action::keep(), 1.0);
  t.clear();
  EXPECT_TRUE(t.empty());
}

TEST(QTable, EnsureRowMakesADefaultRowOfTheTable) {
  // A row ensure_row makes is part of the table at once (its caller writes
  // it), holding the default in force; its handle reads and writes it.
  QTable t;
  t.set_default_q(0.75);
  const Configuration s;
  EXPECT_EQ(t.find_row(s), QTable::npos);
  const std::size_t row = t.ensure_row(s);
  EXPECT_EQ(t.ensure_row(s), row);
  EXPECT_EQ(t.find_row(s), row);
  EXPECT_TRUE(t.contains(s));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.states(), std::vector<Configuration>{s});
  EXPECT_DOUBLE_EQ(t.q_at(row, Action::keep()), 0.75);
  EXPECT_DOUBLE_EQ(t.max_q_at(row), 0.75);
  EXPECT_EQ(t.best_action_at(row), Action::keep());
  t.add_q_at(row, Action(2), 0.5);
  EXPECT_DOUBLE_EQ(t.q(s, Action(2)), 1.25);
  EXPECT_EQ(t.best_action_at(row), Action(2));
  EXPECT_EQ(t.size(), 1u);
}

TEST(QTable, ManyStatesSurviveProbeTableGrowth) {
  // Push well past the initial probe-table capacity and re-read everything.
  QTable t;
  util::Rng rng(7);
  std::vector<Configuration> states;
  for (int i = 0; i < 500; ++i) {
    const auto s = config::ConfigSpace::random_fine(rng);
    if (t.contains(s)) continue;
    t.set_q(s, Action::keep(), static_cast<double>(i));
    states.push_back(s);
  }
  EXPECT_EQ(t.size(), states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    EXPECT_DOUBLE_EQ(t.q(states[i], Action::keep()), static_cast<double>(i));
  }
  EXPECT_EQ(t.states().size(), states.size());
}

// --- overlay ----------------------------------------------------------------

std::string saved(const QTable& table) {
  std::ostringstream os;
  save_qtable(os, table);
  return os.str();
}

RewardFn toward(int max_clients) {
  return [max_clients](const Configuration& s) {
    return -std::abs(s.value(ParamId::kMaxClients) - max_clients) / 100.0;
  };
}

// A library table as the offline trainer leaves it: a row for each state a
// TD batch visited, under a non-zero default.
QTable trained_library_table() {
  QTable table;
  table.set_default_q(-0.25);
  TdParams params;
  params.max_sweeps = 20;
  util::Rng rng(41);
  batch_train(table, ConfigSpace(3).coarse_grid(), toward(250), params, rng);
  return table;
}

std::vector<Configuration> sorted_states(const QTable& table) {
  std::vector<Configuration> states = table.states();
  std::sort(states.begin(), states.end(),
            [](const Configuration& a, const Configuration& b) {
              return a.values() < b.values();
            });
  return states;
}

void expect_same_reads(const QTable& copy, const QTable& overlay,
                       const std::vector<Configuration>& probes) {
  EXPECT_EQ(copy.size(), overlay.size());
  EXPECT_EQ(copy.empty(), overlay.empty());
  EXPECT_EQ(copy.default_q(), overlay.default_q());
  EXPECT_EQ(sorted_states(copy), sorted_states(overlay));
  for (const Configuration& s : probes) {
    ASSERT_EQ(copy.contains(s), overlay.contains(s));
    ASSERT_EQ(copy.max_q(s), overlay.max_q(s));
    ASSERT_EQ(copy.best_action(s), overlay.best_action(s));
    for (const Action a : ConfigSpace::all_actions()) {
      ASSERT_EQ(copy.q(s, a), overlay.q(s, a));
    }
  }
  EXPECT_EQ(saved(copy), saved(overlay));
}

// An overlay over the library table must be indistinguishable from a full
// copy of it through one seeded sequence of row-handle edits, point writes
// and a TD batch.
TEST(QTableOverlay, MatchesAFullCopyThroughEditsAndATrainingBatch) {
  const QTable library = trained_library_table();
  QTable copy = library;
  QTable overlay;
  overlay.rebase(std::make_shared<const QTable>(library));
  ASSERT_EQ(overlay.num_rows(), 0U);

  // Library states, their neighbors (most without a row), fresh states.
  std::vector<Configuration> probes = library.states();
  util::Rng rng(42);
  for (std::size_t i = 0, n = probes.size(); i < n; i += 7) {
    probes.push_back(ConfigSpace::apply(
        probes[i], Action(rng.uniform_int(0, config::kNumActions - 1))));
  }
  for (int i = 0; i < 200; ++i) probes.push_back(ConfigSpace::random_fine(rng));
  expect_same_reads(copy, overlay, probes);

  for (int i = 0; i < 3000; ++i) {
    const Configuration& s = probes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(probes.size()) - 1))];
    const Action a(rng.uniform_int(0, config::kNumActions - 1));
    const double value = rng.normal(0.0, 1.0);
    switch (rng.uniform_int(0, 2)) {
      case 0: {
        const std::size_t copy_row = copy.ensure_row(s);
        const std::size_t overlay_row = overlay.ensure_row(s);
        ASSERT_EQ(copy.q_at(copy_row, a), overlay.q_at(overlay_row, a));
        ASSERT_EQ(copy.max_q_at(copy_row), overlay.max_q_at(overlay_row));
        ASSERT_EQ(copy.best_action_at(copy_row),
                  overlay.best_action_at(overlay_row));
        break;
      }
      case 1:
        copy.add_q_at(copy.ensure_row(s), a, value);
        overlay.add_q_at(overlay.ensure_row(s), a, value);
        break;
      default:
        copy.set_q(s, a, value);
        overlay.set_q(s, a, value);
        break;
    }
  }
  expect_same_reads(copy, overlay, probes);

  std::vector<Configuration> starts(probes.begin(), probes.begin() + 40);
  starts.push_back(probes.back());
  const TdParams online{0.1, 0.9, 0.1, 1e-3, 8, 40};
  util::Rng copy_rng(43);
  util::Rng overlay_rng(43);
  const TdResult copy_result =
      batch_train(copy, starts, toward(400), online, copy_rng);
  const TdResult overlay_result =
      batch_train(overlay, starts, toward(400), online, overlay_rng);
  EXPECT_EQ(copy_result.sweeps, overlay_result.sweeps);
  EXPECT_EQ(copy_result.final_error, overlay_result.final_error);
  EXPECT_EQ(copy_result.converged, overlay_result.converged);
  const util::RngState copy_state = copy_rng.state();
  const util::RngState overlay_state = overlay_rng.state();
  EXPECT_EQ(copy_state.words, overlay_state.words);
  EXPECT_EQ(copy_state.cached_normal, overlay_state.cached_normal);
  EXPECT_EQ(copy_state.has_cached_normal, overlay_state.has_cached_normal);
  expect_same_reads(copy, overlay, probes);

  // The base was never written.
  EXPECT_EQ(saved(*overlay.base()), saved(library));
  EXPECT_GT(overlay.num_rows(), 0U);
  EXPECT_LT(overlay.num_rows(), copy.num_rows());
}

TEST(QTableOverlay, CompactedFlattensTheMergedView) {
  QTable base;
  const Configuration kept;
  Configuration edited;
  edited.set(ParamId::kMaxClients, 300);
  Configuration fresh;
  fresh.set(ParamId::kMaxThreads, 500);
  base.set_q(kept, Action::keep(), 1.0);
  base.set_q(edited, Action::keep(), 2.0);
  QTable overlay;
  overlay.rebase(std::make_shared<const QTable>(base));
  overlay.add_q(edited, Action(3), 0.5);
  overlay.set_q(fresh, Action::keep(), 3.0);
  overlay.ensure_row(kept);  // a copy of the base row, left unchanged

  const QTable flat = overlay.compacted();
  EXPECT_EQ(flat.base(), nullptr);
  EXPECT_EQ(flat.num_rows(), 3U);
  EXPECT_EQ(flat.size(), overlay.size());
  EXPECT_EQ(flat.states(), overlay.states());
  EXPECT_EQ(flat.states(), (std::vector<Configuration>{kept, edited, fresh}));
  EXPECT_EQ(flat.q(edited, Action(3)), 0.5);
  EXPECT_EQ(saved(flat), saved(overlay));
}

TEST(QTableOverlay, RebaseDropsOwnRowsAndRejectsAnOverlayBase) {
  auto base = std::make_shared<QTable>();
  base->set_default_q(-1.5);
  base->set_q(Configuration{}, Action::keep(), 4.0);
  QTable overlay;
  overlay.set_q(Configuration::defaults(), Action::keep(), 9.0);
  overlay.rebase(base);
  EXPECT_EQ(overlay.num_rows(), 0U);
  EXPECT_EQ(overlay.size(), 1U);
  EXPECT_EQ(overlay.default_q(), -1.5);
  EXPECT_EQ(overlay.q(Configuration{}, Action::keep()), 4.0);

  QTable stacked;
  EXPECT_THROW(stacked.rebase(std::make_shared<const QTable>(overlay)),
               std::invalid_argument);
  overlay.rebase(nullptr);
  EXPECT_EQ(overlay.base(), nullptr);
  EXPECT_TRUE(overlay.empty());
}

}  // namespace
}  // namespace rac::rl
