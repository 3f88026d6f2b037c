// Shared helpers for the rac-analyze rule tests: fixture files (never
// compiled) analyzed under a pretend repo-relative path.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analyze_core.hpp"

namespace rac::analyze::testing {

inline std::string read_fixture(const std::string& name) {
  const auto path = std::filesystem::path(RAC_ANALYZE_FIXTURE_DIR) / name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Analyze one in-memory file without a layer manifest.
inline std::vector<Finding> analyze_text(const std::string& relpath,
                                         const std::string& contents) {
  return analyze_sources({{relpath, contents}}, nullptr);
}

inline std::vector<Finding> analyze_fixture(const std::string& name,
                                            const std::string& relpath) {
  return analyze_text(relpath, read_fixture(name));
}

inline int count_rule(const std::vector<Finding>& findings,
                      std::string_view rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

inline std::string render(const std::vector<Finding>& findings) {
  return to_text(findings);
}

}  // namespace rac::analyze::testing
