#include "hmm/hmm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace corp::hmm {

namespace {

bool row_stochastic(const std::vector<double>& row, double eps) {
  double sum = 0.0;
  for (double x : row) {
    if (x < -eps) return false;
    sum += x;
  }
  return std::abs(sum - 1.0) <= eps;
}

void normalize_row(std::vector<double>& row) {
  double sum = 0.0;
  for (double x : row) sum += x;
  if (sum <= 0.0) {
    const double uniform = 1.0 / static_cast<double>(row.size());
    for (double& x : row) x = uniform;
    return;
  }
  for (double& x : row) x /= sum;
}

}  // namespace

bool HmmParams::valid(double eps) const {
  const std::size_t h = num_states();
  const std::size_t m = num_symbols();
  if (h == 0 || m == 0) return false;
  if (transition.size() != h || emission.size() != h) return false;
  for (const auto& row : transition) {
    if (row.size() != h || !row_stochastic(row, eps)) return false;
  }
  for (const auto& row : emission) {
    if (row.size() != m || !row_stochastic(row, eps)) return false;
  }
  return row_stochastic(initial, eps);
}

DiscreteHmm::DiscreteHmm(std::size_t num_states, std::size_t num_symbols,
                         util::Rng& rng) {
  if (num_states == 0 || num_symbols == 0) {
    throw std::invalid_argument("DiscreteHmm: zero states or symbols");
  }
  auto perturbed_row = [&](std::size_t n) {
    std::vector<double> row(n);
    for (double& x : row) x = 1.0 + rng.uniform(-0.05, 0.05);
    normalize_row(row);
    return row;
  };
  params_.transition.resize(num_states);
  params_.emission.resize(num_states);
  for (std::size_t i = 0; i < num_states; ++i) {
    params_.transition[i] = perturbed_row(num_states);
    params_.emission[i] = perturbed_row(num_symbols);
  }
  params_.initial = perturbed_row(num_states);
}

DiscreteHmm::DiscreteHmm(HmmParams params) : params_(std::move(params)) {
  if (!params_.valid()) {
    throw std::invalid_argument("DiscreteHmm: invalid parameters");
  }
}

void DiscreteHmm::validate_observations(
    std::span<const std::size_t> observations) const {
  if (observations.empty()) {
    throw std::invalid_argument("DiscreteHmm: empty observation sequence");
  }
  for (std::size_t o : observations) {
    if (o >= num_symbols()) {
      throw std::invalid_argument("DiscreteHmm: observation symbol out of range");
    }
  }
}

ForwardResult DiscreteHmm::forward(
    std::span<const std::size_t> observations) const {
  validate_observations(observations);
  const std::size_t T = observations.size();
  const std::size_t H = num_states();
  ForwardResult result;
  result.alpha.assign(T, std::vector<double>(H, 0.0));
  result.scale.assign(T, 0.0);

  double norm = 0.0;
  for (std::size_t i = 0; i < H; ++i) {
    result.alpha[0][i] =
        params_.initial[i] * params_.emission[i][observations[0]];
    norm += result.alpha[0][i];
  }
  if (norm <= 0.0) norm = std::numeric_limits<double>::min();
  result.scale[0] = 1.0 / norm;
  for (double& a : result.alpha[0]) a *= result.scale[0];

  for (std::size_t t = 1; t < T; ++t) {
    norm = 0.0;
    for (std::size_t j = 0; j < H; ++j) {
      double acc = 0.0;
      for (std::size_t i = 0; i < H; ++i) {
        acc += result.alpha[t - 1][i] * params_.transition[i][j];
      }
      result.alpha[t][j] = acc * params_.emission[j][observations[t]];
      norm += result.alpha[t][j];
    }
    if (norm <= 0.0) norm = std::numeric_limits<double>::min();
    result.scale[t] = 1.0 / norm;
    for (double& a : result.alpha[t]) a *= result.scale[t];
  }

  double ll = 0.0;
  for (double c : result.scale) ll -= std::log(c);
  result.log_likelihood = ll;
  return result;
}

std::vector<std::vector<double>> DiscreteHmm::backward(
    std::span<const std::size_t> observations,
    std::span<const double> scale) const {
  validate_observations(observations);
  const std::size_t T = observations.size();
  const std::size_t H = num_states();
  if (scale.size() != T) {
    throw std::invalid_argument("DiscreteHmm::backward: scale size mismatch");
  }
  std::vector<std::vector<double>> beta(T, std::vector<double>(H, 0.0));
  for (std::size_t i = 0; i < H; ++i) beta[T - 1][i] = scale[T - 1];
  for (std::size_t t = T - 1; t-- > 0;) {
    for (std::size_t i = 0; i < H; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < H; ++j) {
        acc += params_.transition[i][j] *
               params_.emission[j][observations[t + 1]] * beta[t + 1][j];
      }
      beta[t][i] = acc * scale[t];
    }
  }
  return beta;
}

double DiscreteHmm::log_likelihood(
    std::span<const std::size_t> observations) const {
  return forward(observations).log_likelihood;
}

std::vector<std::vector<double>> DiscreteHmm::posterior_states(
    std::span<const std::size_t> observations) const {
  const ForwardResult fwd = forward(observations);
  const auto beta = backward(observations, fwd.scale);
  const std::size_t T = observations.size();
  const std::size_t H = num_states();
  std::vector<std::vector<double>> gamma(T, std::vector<double>(H, 0.0));
  for (std::size_t t = 0; t < T; ++t) {
    double norm = 0.0;
    for (std::size_t i = 0; i < H; ++i) {
      gamma[t][i] = fwd.alpha[t][i] * beta[t][i];
      norm += gamma[t][i];
    }
    if (norm > 0.0) {
      for (double& g : gamma[t]) g /= norm;
    }
  }
  return gamma;
}

std::vector<std::size_t> DiscreteHmm::viterbi(
    std::span<const std::size_t> observations) const {
  validate_observations(observations);
  const std::size_t T = observations.size();
  const std::size_t H = num_states();
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  auto safe_log = [](double x) {
    return x > 0.0 ? std::log(x) : -std::numeric_limits<double>::max();
  };

  std::vector<std::vector<double>> delta(T, std::vector<double>(H, kNegInf));
  std::vector<std::vector<std::size_t>> psi(T, std::vector<std::size_t>(H, 0));
  for (std::size_t i = 0; i < H; ++i) {
    delta[0][i] = safe_log(params_.initial[i]) +
                  safe_log(params_.emission[i][observations[0]]);
  }
  for (std::size_t t = 1; t < T; ++t) {
    for (std::size_t j = 0; j < H; ++j) {
      double best = kNegInf;
      std::size_t arg = 0;
      for (std::size_t i = 0; i < H; ++i) {
        const double cand = delta[t - 1][i] + safe_log(params_.transition[i][j]);
        if (cand > best) {
          best = cand;
          arg = i;
        }
      }
      delta[t][j] = best + safe_log(params_.emission[j][observations[t]]);
      psi[t][j] = arg;
    }
  }
  std::vector<std::size_t> path(T, 0);
  path[T - 1] = static_cast<std::size_t>(
      std::max_element(delta[T - 1].begin(), delta[T - 1].end()) -
      delta[T - 1].begin());
  for (std::size_t t = T - 1; t-- > 0;) {
    path[t] = psi[t + 1][path[t + 1]];
  }
  return path;
}

BaumWelchReport DiscreteHmm::baum_welch(
    std::span<const std::size_t> observations, std::size_t max_iterations,
    double tolerance) {
  const obs::ScopedTimer timer("hmm.baum_welch");
  validate_observations(observations);
  const std::size_t T = observations.size();
  const std::size_t H = num_states();
  const std::size_t M = num_symbols();
  BaumWelchReport report;
  double prev_ll = -std::numeric_limits<double>::infinity();
  double last_delta = 0.0;

  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    const ForwardResult fwd = forward(observations);
    const auto beta = backward(observations, fwd.scale);

    // gamma_t(i) and xi_t(i,j) accumulators.
    std::vector<std::vector<double>> gamma(T, std::vector<double>(H, 0.0));
    std::vector<std::vector<double>> xi_sum(H, std::vector<double>(H, 0.0));
    for (std::size_t t = 0; t < T; ++t) {
      double norm = 0.0;
      for (std::size_t i = 0; i < H; ++i) {
        gamma[t][i] = fwd.alpha[t][i] * beta[t][i];
        norm += gamma[t][i];
      }
      if (norm > 0.0) {
        for (double& g : gamma[t]) g /= norm;
      }
    }
    for (std::size_t t = 0; t + 1 < T; ++t) {
      double norm = 0.0;
      std::vector<std::vector<double>> xi(H, std::vector<double>(H, 0.0));
      for (std::size_t i = 0; i < H; ++i) {
        for (std::size_t j = 0; j < H; ++j) {
          xi[i][j] = fwd.alpha[t][i] * params_.transition[i][j] *
                     params_.emission[j][observations[t + 1]] *
                     beta[t + 1][j];
          norm += xi[i][j];
        }
      }
      if (norm > 0.0) {
        for (std::size_t i = 0; i < H; ++i) {
          for (std::size_t j = 0; j < H; ++j) {
            xi_sum[i][j] += xi[i][j] / norm;
          }
        }
      }
    }

    // Re-estimation.
    for (std::size_t i = 0; i < H; ++i) {
      params_.initial[i] = gamma[0][i];
      double gamma_total = 0.0;
      for (std::size_t t = 0; t + 1 < T; ++t) gamma_total += gamma[t][i];
      if (gamma_total > 0.0) {
        for (std::size_t j = 0; j < H; ++j) {
          params_.transition[i][j] = xi_sum[i][j] / gamma_total;
        }
      }
      normalize_row(params_.transition[i]);

      std::vector<double> emit(M, 0.0);
      double emit_total = 0.0;
      for (std::size_t t = 0; t < T; ++t) {
        emit[observations[t]] += gamma[t][i];
        emit_total += gamma[t][i];
      }
      if (emit_total > 0.0) {
        for (std::size_t k = 0; k < M; ++k) {
          params_.emission[i][k] = emit[k] / emit_total;
        }
      }
      normalize_row(params_.emission[i]);
    }
    normalize_row(params_.initial);

    report.iterations = iter + 1;
    report.final_log_likelihood = fwd.log_likelihood;
    last_delta = std::abs(fwd.log_likelihood - prev_ll);
    if (last_delta < tolerance) {
      report.converged = true;
      break;
    }
    prev_ll = fwd.log_likelihood;
  }
  // Record the likelihood of the final parameters.
  report.final_log_likelihood = log_likelihood(observations);
  if (obs::enabled()) {
    obs::MetricRegistry& reg = obs::registry();
    reg.counter("hmm.bw_fits").add(1);
    reg.counter("hmm.bw_iterations").add(report.iterations);
    if (report.converged) reg.counter("hmm.bw_converged").add(1);
    obs::set_gauge("hmm.final_log_likelihood", report.final_log_likelihood);
    obs::set_gauge("hmm.log_likelihood_delta", last_delta);
  }
  return report;
}

std::vector<double> DiscreteHmm::next_symbol_distribution(
    std::span<const std::size_t> observations) const {
  const std::vector<std::size_t> path = viterbi(observations);
  const std::size_t last_state = path.back();
  const std::size_t H = num_states();
  const std::size_t M = num_symbols();
  std::vector<double> dist(M, 0.0);
  for (std::size_t j = 0; j < H; ++j) {
    const double p = params_.transition[last_state][j];
    for (std::size_t k = 0; k < M; ++k) {
      dist[k] += p * params_.emission[j][k];
    }
  }
  return dist;
}

std::size_t DiscreteHmm::predict_next_symbol(
    std::span<const std::size_t> observations) const {
  const std::vector<double> dist = next_symbol_distribution(observations);
  return static_cast<std::size_t>(
      std::max_element(dist.begin(), dist.end()) - dist.begin());
}

}  // namespace corp::hmm
