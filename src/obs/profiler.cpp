#include "obs/profiler.hpp"

#include <algorithm>
#include <chrono>

#include "util/lineio.hpp"

namespace rac::obs {

namespace {

std::atomic<bool> g_profiling{true};

std::uint64_t next_profiler_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

void set_profiling(bool enabled) noexcept {
  g_profiling.store(enabled, std::memory_order_relaxed);
}

bool profiling_enabled() noexcept {
  return g_profiling.load(std::memory_order_relaxed);
}

struct Profiler::Node {
  explicit Node(std::string node_name) : name(std::move(node_name)) {}
  std::string name;
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> total_ns{0};
  std::vector<std::unique_ptr<Node>> children;  // encounter order

  Node* find_or_add(std::string_view child_name) {
    for (const auto& child : children) {
      if (child->name == child_name) return child.get();
    }
    children.push_back(std::make_unique<Node>(std::string(child_name)));
    return children.back().get();
  }
};

struct Profiler::ThreadTree {
  ThreadTree() : root("") { stack.push_back(&root); }
  Node root;
  std::vector<Node*> stack;  // open frames; stack[0] is the root sentinel
};

namespace {

// Per-thread cache of (profiler, epoch) -> tree so a scope enter is a
// couple of relaxed loads plus a child lookup. Entries for destroyed or
// reset profilers simply never match again (ids are unique, epochs only
// grow).
struct TreeCacheEntry {
  std::uint64_t profiler_id = 0;
  std::uint64_t epoch = 0;
  Profiler::ThreadTree* tree = nullptr;
};
thread_local std::vector<TreeCacheEntry> t_tree_cache;

}  // namespace

Profiler::Profiler() : id_(next_profiler_id()) {}

Profiler::~Profiler() = default;

std::uint64_t Profiler::clock_now() const {
  const ClockFn clock = clock_.load(std::memory_order_relaxed);
  if (clock != nullptr) return clock();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Profiler::set_clock(ClockFn clock) noexcept {
  clock_.store(clock, std::memory_order_relaxed);
}

Profiler::ThreadTree& Profiler::local_tree() {
  const std::uint64_t current_epoch = epoch();
  for (auto& entry : t_tree_cache) {
    if (entry.profiler_id == id_ && entry.epoch == current_epoch) {
      return *entry.tree;
    }
  }
  auto tree = std::make_unique<ThreadTree>();
  ThreadTree* raw = tree.get();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    trees_.push_back(std::move(tree));
  }
  for (auto& entry : t_tree_cache) {
    if (entry.profiler_id == id_) {
      entry = {id_, current_epoch, raw};
      return *raw;
    }
  }
  t_tree_cache.push_back({id_, current_epoch, raw});
  return *raw;
}

Profiler::Node* Profiler::enter(const char* name) {
  ThreadTree& tree = local_tree();
  Node* node = tree.stack.back()->find_or_add(name);
  node->calls.fetch_add(1, std::memory_order_relaxed);
  tree.stack.push_back(node);
  return node;
}

void Profiler::exit(Node* node, std::uint64_t elapsed_ns) {
  node->total_ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
  local_tree().stack.pop_back();
}

std::vector<std::string> Profiler::capture_path() const {
  std::vector<std::string> path;
  const std::uint64_t current_epoch = epoch();
  for (const auto& entry : t_tree_cache) {
    if (entry.profiler_id == id_ && entry.epoch == current_epoch) {
      const auto& stack = entry.tree->stack;
      path.reserve(stack.size() - 1);
      for (std::size_t i = 1; i < stack.size(); ++i) {
        path.push_back(stack[i]->name);
      }
      break;
    }
  }
  return path;
}

int Profiler::anchor_open(const std::vector<std::string>& path) {
  ThreadTree& tree = local_tree();
  // Skip the prefix already open on this thread: the submitter (and, at
  // pool size 1, every task) re-enters under the very frames the path was
  // captured from, and a thread helping from inside an enclosing region
  // already has that region's path open; neither may duplicate them.
  std::size_t k = 0;
  while (k < path.size() && k + 1 < tree.stack.size() &&
         tree.stack[k + 1]->name == path[k]) {
    ++k;
  }
  int opened = 0;
  for (std::size_t i = k; i < path.size(); ++i) {
    Node* node = tree.stack.back()->find_or_add(path[i]);
    tree.stack.push_back(node);  // pass-through: no call count, no timing
    ++opened;
  }
  return opened;
}

void Profiler::anchor_close(int opened) {
  ThreadTree& tree = local_tree();
  for (int i = 0; i < opened; ++i) tree.stack.pop_back();
}

void Profiler::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  trees_.clear();
}

namespace {

void accumulate(PhaseNode& out, const Profiler::Node& node);

PhaseNode& merged_child(PhaseNode& parent, const std::string& name) {
  for (auto& child : parent.children) {
    if (child.name == name) return child;
  }
  parent.children.emplace_back();
  parent.children.back().name = name;
  return parent.children.back();
}

void accumulate(PhaseNode& out, const Profiler::Node& node) {
  out.calls += node.calls.load(std::memory_order_relaxed);
  out.inclusive_us +=
      static_cast<double>(node.total_ns.load(std::memory_order_relaxed)) *
      1e-3;
  for (const auto& child : node.children) {
    accumulate(merged_child(out, child->name), *child);
  }
}

// Sort children by name, fill pass-through inclusive times bottom-up, and
// derive exclusive = inclusive - sum(children) clamped at zero (pooled
// children can sum past their parent's single-thread wall time).
void finalize(PhaseNode& node) {
  std::sort(node.children.begin(), node.children.end(),
            [](const PhaseNode& a, const PhaseNode& b) {
              return a.name < b.name;
            });
  double child_sum = 0.0;
  for (auto& child : node.children) {
    finalize(child);
    child_sum += child.inclusive_us;
  }
  if (node.calls == 0) node.inclusive_us = child_sum;
  node.exclusive_us = std::max(0.0, node.inclusive_us - child_sum);
}

}  // namespace

PhaseNode Profiler::snapshot() const {
  PhaseNode root;
  root.name = "root";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& tree : trees_) {
      for (const auto& top : tree->root.children) {
        accumulate(merged_child(root, top->name), *top);
      }
    }
  }
  finalize(root);
  return root;
}

Profiler& Profiler::default_profiler() {
  static Profiler* profiler = new Profiler();  // never destroyed: scopes in
  return *profiler;                            // atexit hooks must stay safe
}

ProfileScope::ProfileScope(const char* name, Profiler* profiler)
    : profiler_(profiling_enabled()
                    ? (profiler != nullptr ? profiler
                                           : &Profiler::default_profiler())
                    : nullptr) {
  if (profiler_ == nullptr) return;
  epoch_ = profiler_->epoch();
  node_ = profiler_->enter(name);
  start_ns_ = profiler_->clock_now();
}

ProfileScope::ProfileScope(const char* name, Histogram& histogram)
    : ProfileScope(name) {
  if (profiler_ != nullptr) histogram_ = &histogram;
}

ProfileScope::~ProfileScope() {
  if (profiler_ == nullptr) return;
  const std::uint64_t elapsed_ns = profiler_->clock_now() - start_ns_;
  if (histogram_ != nullptr) {
    histogram_->observe(static_cast<double>(elapsed_ns) / 1000.0);
  }
  if (profiler_->epoch() != epoch_) return;  // reset() abandoned this frame
  profiler_->exit(node_, elapsed_ns);
}

ProfileAnchor::ProfileAnchor(const std::vector<std::string>& path,
                             Profiler* profiler)
    : profiler_(profiling_enabled()
                    ? (profiler != nullptr ? profiler
                                           : &Profiler::default_profiler())
                    : nullptr) {
  if (profiler_ == nullptr || path.empty()) {
    profiler_ = nullptr;
    return;
  }
  epoch_ = profiler_->epoch();
  opened_ = profiler_->anchor_open(path);
}

ProfileAnchor::~ProfileAnchor() {
  if (profiler_ == nullptr) return;
  if (profiler_->epoch() != epoch_) return;
  profiler_->anchor_close(opened_);
}

const PhaseNode* PhaseNode::child(std::string_view child_name) const {
  for (const auto& c : children) {
    if (c.name == child_name) return &c;
  }
  return nullptr;
}

const PhaseNode* PhaseNode::find(std::string_view path) const {
  const PhaseNode* node = this;
  while (node != nullptr && !path.empty()) {
    const std::size_t slash = path.find('/');
    const std::string_view head =
        slash == std::string_view::npos ? path : path.substr(0, slash);
    node = node->child(head);
    path = slash == std::string_view::npos ? std::string_view{}
                                           : path.substr(slash + 1);
  }
  return node;
}

namespace {

void append_json(std::string& out, const PhaseNode& node) {
  out += "{\"name\":\"";
  out += node.name;
  out += "\",\"calls\":";
  out += util::format_u64(node.calls);
  out += ",\"inclusive_us\":";
  out += util::format_double_decimal(node.inclusive_us);
  out += ",\"exclusive_us\":";
  out += util::format_double_decimal(node.exclusive_us);
  out += ",\"children\":[";
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) out += ",";
    append_json(out, node.children[i]);
  }
  out += "]}";
}

void append_text(std::string& out, const PhaseNode& node, int depth) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
  out += node.name;
  out += "  calls=";
  out += util::format_u64(node.calls);
  out += " incl_ms=";
  out += util::format_double_decimal(node.inclusive_us / 1000.0);
  out += " excl_ms=";
  out += util::format_double_decimal(node.exclusive_us / 1000.0);
  out += "\n";
  for (const auto& child : node.children) {
    append_text(out, child, depth + 1);
  }
}

void append_signature(std::string& out, const PhaseNode& node) {
  out += node.name;
  out += ":";
  out += util::format_u64(node.calls);
  out += "{";
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) out += ",";
    append_signature(out, node.children[i]);
  }
  out += "}";
}

}  // namespace

std::string to_json(const PhaseNode& root) {
  std::string out;
  append_json(out, root);
  return out;
}

std::string to_text(const PhaseNode& root) {
  std::string out;
  append_text(out, root, 0);
  return out;
}

std::string structure_signature(const PhaseNode& root) {
  std::string out;
  append_signature(out, root);
  return out;
}

}  // namespace rac::obs
