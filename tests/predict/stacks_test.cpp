#include "predict/stacks.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace corp::predict {
namespace {

SeriesCorpus training_corpus(std::uint64_t seed) {
  util::Rng rng(seed);
  SeriesCorpus corpus;
  for (int s = 0; s < 4; ++s) {
    std::vector<double> series;
    double level = 0.45;
    for (int i = 0; i < 150; ++i) {
      level += 0.3 * (0.45 - level) + rng.normal(0.0, 0.04);
      series.push_back(std::clamp(level + 0.1 * std::sin(0.4 * i), 0.05, 1.0));
    }
    corpus.push_back(std::move(series));
  }
  return corpus;
}

TEST(MethodNameTest, AllMethodsNamed) {
  EXPECT_EQ(method_name(Method::kCorp), "CORP");
  EXPECT_EQ(method_name(Method::kRccr), "RCCR");
  EXPECT_EQ(method_name(Method::kCloudScale), "CloudScale");
  EXPECT_EQ(method_name(Method::kDra), "DRA");
}

class StackFactoryTest : public ::testing::TestWithParam<Method> {};

TEST_P(StackFactoryTest, TrainsAndPredictsFinite) {
  util::Rng rng(11);
  StackConfig config;
  auto stack = make_stack(GetParam(), config, rng);
  ASSERT_NE(stack, nullptr);
  stack->train(training_corpus(3));
  const std::vector<double> history(24, 0.5);
  const double pred = stack->predict(history);
  EXPECT_TRUE(std::isfinite(pred));
  EXPECT_GE(pred, 0.0);  // predictions are clamped non-negative
}

TEST_P(StackFactoryTest, RecordOutcomeDoesNotThrow) {
  util::Rng rng(11);
  auto stack = make_stack(GetParam(), StackConfig{}, rng);
  stack->train(training_corpus(3));
  stack->record_outcome(0.5, 0.4);
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(AllMethods, StackFactoryTest,
                         ::testing::Values(Method::kCorp, Method::kRccr,
                                           Method::kCloudScale,
                                           Method::kDra));

TEST(CorpStackTest, ConfidenceBoundLowersPrediction) {
  util::Rng rng(13);
  CorpStack::Options with_bound;
  with_bound.stack.confidence_level = 0.9;
  with_bound.dnn.trainer.max_epochs = 10;
  CorpStack::Options without_bound = with_bound;
  without_bound.enable_confidence_bound = false;

  util::Rng rng_a(13), rng_b(13);
  CorpStack bounded(with_bound, rng_a);
  CorpStack unbounded(without_bound, rng_b);
  const SeriesCorpus corpus = training_corpus(5);
  bounded.train(corpus);
  unbounded.train(corpus);

  const std::vector<double> history(24, 0.5);
  // Eq. 19: the bounded stack predicts less or equal (sigma >= 0).
  EXPECT_LE(bounded.predict(history), unbounded.predict(history) + 1e-9);
}

TEST(CorpStackTest, HigherConfidenceMoreConservative) {
  const SeriesCorpus corpus = training_corpus(7);
  auto make = [&](double confidence) {
    util::Rng rng(17);
    CorpStack::Options options;
    options.stack.confidence_level = confidence;
    options.dnn.trainer.max_epochs = 10;
    auto stack = std::make_unique<CorpStack>(options, rng);
    stack->train(corpus);
    return stack;
  };
  auto low = make(0.5);
  auto high = make(0.95);
  const std::vector<double> history(24, 0.5);
  EXPECT_LE(high->predict(history), low->predict(history) + 1e-9);
}

TEST(CorpStackTest, SeededTrackerPopulated) {
  util::Rng rng(19);
  CorpStack::Options options;
  options.dnn.trainer.max_epochs = 8;
  CorpStack stack(options, rng);
  stack.train(training_corpus(9));
  EXPECT_GT(stack.tracker().count(), 10u);
  EXPECT_GT(stack.absolute_tolerance(), 0.0);
  EXPECT_GE(stack.gate_probability(), 0.0);
  EXPECT_LE(stack.gate_probability(), 1.0);
}

TEST(CorpStackTest, GateRespectsThreshold) {
  util::Rng rng(19);
  CorpStack::Options options;
  options.dnn.trainer.max_epochs = 8;
  options.stack.probability_threshold = 0.0;  // always open once seeded
  CorpStack open_stack(options, rng);
  open_stack.train(training_corpus(9));
  EXPECT_TRUE(open_stack.unlocked());

  util::Rng rng2(19);
  options.stack.probability_threshold = 1.01;  // never satisfiable
  CorpStack closed_stack(options, rng2);
  closed_stack.train(training_corpus(9));
  EXPECT_FALSE(closed_stack.unlocked());
}

TEST(MakeStackTest, RejectsOutOfRangeKnobs) {
  util::Rng rng(3);
  const auto build_with = [&rng](auto mutate) {
    StackConfig config;
    mutate(config);
    return make_stack(Method::kRccr, config, rng);
  };
  EXPECT_THROW(build_with([](StackConfig& c) { c.confidence_level = 0.0; }),
               std::invalid_argument);
  EXPECT_THROW(build_with([](StackConfig& c) { c.confidence_level = 1.0; }),
               std::invalid_argument);
  EXPECT_THROW(
      build_with([](StackConfig& c) { c.probability_threshold = -0.1; }),
      std::invalid_argument);
  EXPECT_THROW(
      build_with([](StackConfig& c) { c.probability_threshold = 1.5; }),
      std::invalid_argument);
  EXPECT_THROW(build_with([](StackConfig& c) { c.error_tolerance = -1.0; }),
               std::invalid_argument);
}

TEST(MakeStackTest, GateBoundaryThresholdsAreValidOperatingPoints) {
  // 0 (gate opens once seeded) and 1 (strictest satisfiable gate) are both
  // meaningful Eq. 21 settings and must not be rejected.
  util::Rng rng(3);
  for (const double threshold : {0.0, 1.0}) {
    StackConfig config;
    config.probability_threshold = threshold;
    EXPECT_NE(make_stack(Method::kDra, config, rng), nullptr) << threshold;
  }
}

TEST(RccrStackTest, ConservativeBiasIsPositiveOnAverage) {
  util::Rng rng(23);
  StackConfig config;
  config.confidence_level = 0.9;
  RccrStack stack(config);
  const SeriesCorpus corpus = training_corpus(11);
  stack.train(corpus);
  // The confidence lower bound makes actual >= predicted on average.
  EXPECT_GT(stack.tracker().mean(), 0.0);
}

TEST(CloudScaleStackTest, PaddingReducesPrediction) {
  CloudScaleStack stack(StackConfig{});
  stack.train(training_corpus(13));
  // A volatile history produces a bigger burst padding than a flat one,
  // hence a lower (more damped) forecast.
  std::vector<double> flat(24, 0.5);
  std::vector<double> volatile_history;
  for (int i = 0; i < 24; ++i) {
    volatile_history.push_back(0.5 + 0.4 * ((i % 2 == 0) ? 1.0 : -1.0));
  }
  EXPECT_LE(stack.predict(volatile_history), stack.predict(flat) + 0.05);
}

TEST(DraStackTest, NeverUnlocks) {
  util::Rng rng(29);
  auto stack = make_stack(Method::kDra, StackConfig{}, rng);
  stack->train(training_corpus(15));
  for (int i = 0; i < 50; ++i) stack->record_outcome(0.5, 0.5);
  EXPECT_FALSE(stack->unlocked());
  EXPECT_DOUBLE_EQ(stack->gate_probability(), 0.0);
}

TEST(MakeStackTest, AblationFlagsOnlyAffectCorp) {
  util::Rng rng(31);
  // Should not throw for any method with flags off.
  for (Method m : kAllMethods) {
    auto stack = make_stack(m, StackConfig{}, rng, false, false);
    EXPECT_NE(stack, nullptr);
  }
}

}  // namespace
}  // namespace corp::predict
