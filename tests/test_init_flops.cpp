// Tests for weight initialization conventions, FLOPs accounting, model
// summaries, and the logging level gate.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/flops.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace appeal;

TEST(init, kaiming_normal_has_fan_in_scaled_variance) {
  util::rng gen(3);
  tensor weights(shape{64, 128});
  nn::kaiming_normal(weights, gen, 128);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const float v : weights.values()) {
    sum += v;
    sum_sq += static_cast<double>(v) * v;
  }
  const double n = static_cast<double>(weights.size());
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 2.0 / 128.0, 0.2 * 2.0 / 128.0);
}

TEST(init, xavier_uniform_respects_bound) {
  util::rng gen(5);
  tensor weights(shape{32, 32});
  nn::xavier_uniform(weights, gen, 32, 32);
  const float bound = std::sqrt(6.0F / 64.0F);
  for (const float v : weights.values()) {
    ASSERT_GE(v, -bound);
    ASSERT_LT(v, bound);
  }
}

TEST(init, initialize_model_follows_name_conventions) {
  nn::sequential net;
  net.emplace<nn::conv2d>(3, 8, 3, 1, 1);
  net.emplace<nn::batchnorm2d>(8);
  net.emplace<nn::global_avgpool>();
  net.emplace<nn::linear>(8, 4);
  util::rng gen(7);
  nn::initialize_model(net, gen);

  for (auto& np : net.named_parameters("")) {
    const std::string& name = np.qualified_name;
    const tensor& v = np.param->value;
    if (name.find("gamma") != std::string::npos) {
      for (const float x : v.values()) EXPECT_EQ(x, 1.0F);
    } else if (name.find("beta") != std::string::npos ||
               name.find("bias") != std::string::npos) {
      for (const float x : v.values()) EXPECT_EQ(x, 0.0F);
    } else {
      // Weights: non-degenerate random values.
      double norm = 0.0;
      for (const float x : v.values()) norm += std::fabs(x);
      EXPECT_GT(norm, 0.0) << name;
    }
    // Gradients start cleared.
    for (const float g : np.param->grad.values()) EXPECT_EQ(g, 0.0F);
  }
}

TEST(init, deterministic_given_seed) {
  nn::linear a(16, 16);
  nn::linear b(16, 16);
  util::rng ga(11);
  util::rng gb(11);
  nn::initialize_model(a, ga);
  nn::initialize_model(b, gb);
  for (std::size_t i = 0; i < a.weight().value.size(); ++i) {
    ASSERT_EQ(a.weight().value[i], b.weight().value[i]);
  }
}

TEST(flops, linear_and_conv_formulas) {
  nn::linear fc(100, 10);
  // (100 MACs + bias) per output, 2 FLOPs per MAC.
  EXPECT_EQ(fc.flops(shape{1, 100}), 2ULL * (100 * 10 + 10));

  nn::conv2d conv(3, 8, 3, 1, 1, 1, /*bias=*/false);
  // out 16x16x8, each from 3*3*3 MACs.
  EXPECT_EQ(conv.flops(shape{1, 3, 16, 16}), 2ULL * 8 * 16 * 16 * 27);
}

TEST(flops, sequential_sums_children_through_shape_inference) {
  nn::sequential net;
  net.emplace<nn::conv2d>(3, 4, 3, 2, 1);  // halves resolution
  net.emplace<nn::conv2d>(4, 8, 3, 1, 1);  // runs at 8x8
  const std::uint64_t expected =
      net.child(0).flops(shape{1, 3, 16, 16}) +
      net.child(1).flops(shape{1, 4, 8, 8});
  EXPECT_EQ(net.flops(shape{1, 3, 16, 16}), expected);
}

TEST(flops, mflops_and_parameter_count) {
  nn::sequential net;
  net.emplace<nn::linear>(1000, 1000);
  EXPECT_NEAR(nn::mflops(net, shape{1, 1000}), 2.002, 0.001);
  EXPECT_EQ(nn::parameter_count(net), 1000U * 1000 + 1000);
}

TEST(flops, model_summary_mentions_parameters_and_cost) {
  nn::sequential net;
  net.emplace<nn::linear>(4, 2);
  const std::string summary = nn::model_summary(net, shape{1, 4});
  EXPECT_NE(summary.find("0.weight"), std::string::npos);
  EXPECT_NE(summary.find("parameters: 10"), std::string::npos);
  EXPECT_NE(summary.find("MFLOPs"), std::string::npos);
}

TEST(logging, level_gate) {
  const auto saved = util::get_log_level();
  util::set_log_level(util::log_level::err);
  EXPECT_EQ(util::get_log_level(), util::log_level::err);
  // Emitting below the gate must be a no-op (no crash, nothing observable).
  APPEAL_LOG_DEBUG("test") << "hidden";
  APPEAL_LOG_INFO("test") << "hidden";
  util::set_log_level(saved);
}

TEST(timer, measures_forward_progress) {
  util::timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GT(t.seconds(), 0.0);
  EXPECT_GE(t.milliseconds(), t.seconds() * 1000.0 * 0.99);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

}  // namespace
