// Clean corpus: near-miss patterns that must NOT trip any token rule.
// The analyzer's good-corpus CTest runs this directory and requires exit 0.
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace corp::util {
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream);
}  // namespace corp::util

namespace corp::fixture {

inline constexpr std::uint64_t kCleanStream = 5;

// Named stream tags and derived expressions are the blessed pattern.
std::uint64_t seed_for_replica(std::uint64_t base, std::uint64_t replica) {
  return util::derive_seed(base, kCleanStream) + replica;
}

// Identifiers that merely *contain* banned substrings must not trip:
struct RandomizedBackoff {
  int srand_count = 0;  // field named like srand, never called
  std::uint64_t mt19937_lookalike = 0;  // not std::-qualified
};

// steady_clock is the sanctioned clock for phase timing.
double phase_ms(std::chrono::steady_clock::time_point begin,
                std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

// Strings and comments mentioning banned constructs are fine:
// std::random_device, rand(), time(nullptr)
inline const std::string kBannedList =
    "std::random_device rand() srand() time(nullptr) system_clock";

// Keyed access into an unordered container never leaks hash order.
double lookup_only(const std::string& key) {
  std::unordered_map<std::string, double> cache;
  cache["k"] = 2.0;
  return cache.count(key) != 0U ? cache.at(key) : 0.0;
}

// Ordered containers iterate deterministically — no justification needed.
double ordered_total(const std::map<std::string, double>& weights) {
  double total = 0.0;
  for (const auto& [name, w] : weights) {
    total += w + static_cast<double>(name.size());
  }
  return total;
}

// `float` is allowed outside dnn/hmm/predict paths (this file lives in
// fixtures/good/, none of those path components).
float display_ratio(float hits, float total) {
  return total > 0.0f ? hits / total : 0.0f;
}

// Naming a prediction-stack type is fine — CORP-API-001 only fires on
// construction. Scope access, references, and smart-pointer storage are
// all near-misses that must stay clean.
class CorpStack;
struct RccrStack {
  struct Options {
    int horizon = 6;
  };
};

int stack_scope_access_only(const CorpStack& stack,
                            std::vector<CorpStack*>& registry) {
  RccrStack::Options options;
  registry.push_back(nullptr);
  (void)stack;
  return options.horizon;
}

}  // namespace corp::fixture
