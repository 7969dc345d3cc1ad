// Fixture for the eval-options-designated-init rule: constructing
// core::EvalOptions with designated initializers bypasses the chainable
// with_* builder surface. Three violations; the with_* chains and the plain
// default construction below must stay clean.

#include <cstddef>

namespace rim::core {
enum class Strategy { kAuto, kBrute };
enum class Model { kReceiverCentric };
struct EvalOptions {
  Strategy strategy = Strategy::kAuto;
  Model model = Model::kReceiverCentric;
  std::size_t touched_floor = 64;
  EvalOptions& with_strategy(Strategy s) {
    strategy = s;
    return *this;
  }
  EvalOptions& with_model(Model m) {
    model = m;
    return *this;
  }
};
}  // namespace rim::core

namespace fixture {

using rim::core::EvalOptions;
using rim::core::Model;
using rim::core::Strategy;

// Violation: single designated field.
const EvalOptions bad_one = EvalOptions{.strategy = Strategy::kBrute};

// Violation: multiple designated fields.
const EvalOptions bad_two =
    EvalOptions{.strategy = Strategy::kBrute, .touched_floor = 128};

// Violation: qualified name.
const rim::core::EvalOptions bad_three =
    rim::core::EvalOptions{.model = Model::kReceiverCentric};

// Clean: default construction and builder chains.
const EvalOptions good_default = EvalOptions{};
const EvalOptions good_chain =
    EvalOptions{}.with_strategy(Strategy::kBrute).with_model(
        Model::kReceiverCentric);

}  // namespace fixture
