#include "sim/params.hpp"

#include <gtest/gtest.h>

#include "cluster/environment.hpp"
#include "predict/dnn_predictor.hpp"
#include "predict/hmm_corrector.hpp"

namespace corp::sim {
namespace {

// Table II of the paper, asserted literally where the code reads each
// value, so drift is caught.
TEST(ParamsTest, TableIIDefaults) {
  EXPECT_EQ(cluster::EnvironmentConfig::PalmettoCluster().num_pms,
            50u);                                  // N_p (cluster)
  EXPECT_EQ(cluster::EnvironmentConfig::AmazonEc2().num_pms,
            30u);                                  // N_p (EC2)
  EXPECT_EQ(Params::kJobsMin, 50u);                // |J| from 50
  EXPECT_EQ(Params::kJobsMax, 300u);               // ... to 300
  EXPECT_EQ(Params::kJobsStep, 50u);               // step 50
  EXPECT_EQ(Params::kResourceTypes, 3u);           // l = 3
  EXPECT_DOUBLE_EQ(Params::kProbabilityThreshold, 0.95);  // P_th
  const predict::DnnPredictorConfig dnn;
  EXPECT_EQ(dnn.hidden_layers, 4u);                // h = 4
  EXPECT_EQ(dnn.hidden_units, 50u);                // N_n = 50
  EXPECT_EQ(dnn.history_slots, 12u);               // Delta = 12
  EXPECT_EQ(predict::HmmCorrector::kNumStates, 3u);  // H = 3
  EXPECT_DOUBLE_EQ(Params::kConfidenceMax, 0.90);  // eta up to 90%
}

TEST(ParamsTest, DerivedTimeBase) {
  const Params p;
  EXPECT_EQ(p.window_slots, 6u);  // L = 1 minute of 10-second slots
  EXPECT_DOUBLE_EQ(trace::kSlotSeconds, 10.0);
  EXPECT_EQ(trace::kShortJobMaxSlots, 30u);  // 5-minute cap
}

TEST(ParamsTest, WeightsMatchPaper) {
  const trace::ResourceWeights weights;
  // CPU/MEM/storage = 0.4/0.4/0.2 (storage is not the bottleneck).
  EXPECT_DOUBLE_EQ(weights.w[0], 0.4);
  EXPECT_DOUBLE_EQ(weights.w[1], 0.4);
  EXPECT_DOUBLE_EQ(weights.w[2], 0.2);
  EXPECT_TRUE(weights.valid());
}

TEST(ParamsTest, StackConfigPropagates) {
  const Params p;
  const predict::StackConfig stack = p.stack_config();
  EXPECT_DOUBLE_EQ(stack.probability_threshold,
                   Params::kProbabilityThreshold);
  EXPECT_DOUBLE_EQ(stack.error_tolerance, Params::kErrorTolerance);
  EXPECT_EQ(stack.horizon_slots, p.window_slots);
  EXPECT_DOUBLE_EQ(stack.confidence_level, Params::kConfidenceMax);
}

TEST(ParamsTest, ContentionPenaltySuperlinear) {
  const Params p;
  EXPECT_GT(p.contention_penalty, 1.0);
}

}  // namespace
}  // namespace corp::sim
