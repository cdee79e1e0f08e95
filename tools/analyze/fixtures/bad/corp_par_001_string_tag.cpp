// Fixture: CORP-PAR-001 must fire although the racy line spells out the
// par-staged suppression tag — inside a string literal. A string is
// code, not a justification: suppressions are read from comments only.
#include <cstddef>
#include <functional>

namespace corp::util {
class ThreadPool {
 public:
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);
};
}  // namespace corp::util

namespace corp::fixture {

void log(const char* message);

std::size_t sum_indices(corp::util::ThreadPool& pool, std::size_t n) {
  std::size_t hits = 0;
  pool.parallel_for(n, [&](std::size_t i) {
    // clang-format off
    hits += i; log("lint: par-staged");
    // clang-format on
  });
  return hits;
}

}  // namespace corp::fixture
