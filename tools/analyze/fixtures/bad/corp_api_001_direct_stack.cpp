// Fixture: must trip exactly CORP-API-001.
// Hand-rolled stack construction bypasses make_stack's option
// validation and the Table II defaults it bakes in.
#include <memory>

namespace corp::predict {

class CorpStack;
class DraStack;

std::unique_ptr<CorpStack> assemble_by_hand() {
  return std::make_unique<CorpStack>();  // violation: direct construction
}

int temporary_stack() {
  DraStack local{};  // violation: local stack built outside make_stack
  (void)local;
  return 0;
}

// Commented-out code must not trip:
// auto old = std::make_unique<RccrStack>(options);

}  // namespace corp::predict
