// Walk-forward (rolling-origin) backtesting for series predictors.
//
// Given a corpus of held-out series, a stack is evaluated exactly as it
// would run online: at each origin it sees only the past, forecasts the
// next window, and is scored against what then happened. Reports the
// standard regression errors plus the two quantities CORP's control loop
// actually consumes: the conservative-coverage rate P(delta >= 0) and the
// Eq. 21 band rate P(0 <= delta < eps).
#pragma once

#include <cstddef>

#include "predict/stacks.hpp"

namespace corp::predict {

struct BacktestReport {
  std::size_t forecasts = 0;
  double rmse = 0.0;
  double mae = 0.0;
  /// Mean of delta = actual - predicted (positive = conservative).
  double bias = 0.0;
  /// P(delta >= 0): how often the forecast was a safe lower bound.
  double coverage = 0.0;
  /// P(0 <= delta < eps): the Eq. 21 band rate, eps = 0.3 series units.
  double band_rate = 0.0;
};

/// Walk-forward evaluation of `stack` over every series in `corpus`:
/// origins every 6 slots after a 12-slot warm-up, each scored against the
/// mean of the next 6 slots, with every outcome fed back into the stack
/// (online operation). The stack must already be trained.
BacktestReport backtest(PredictionStack& stack, const SeriesCorpus& corpus);

}  // namespace corp::predict
