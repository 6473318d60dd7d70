// Accuracy and special-value tests for the vectorizable fast_tanh that the
// fused forward pass and the training step apply, and the fused forward
// pass bit for bit. The bound asserted here (8 ulp) is deliberately
// looser than the observed maximum (~4 ulp) so a different FMA/rounding
// environment doesn't flake, while still catching any real defect — a
// wrong polynomial term or range-reduction bug shows up as thousands of
// ulp, not single digits.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cvsafe/nn/activation.hpp"
#include "cvsafe/nn/fast_math.hpp"
#include "cvsafe/nn/matrix.hpp"
#include "cvsafe/nn/mlp.hpp"
#include "cvsafe/nn/workspace.hpp"
#include "cvsafe/util/contracts.hpp"
#include "cvsafe/util/rng.hpp"

namespace {

using cvsafe::nn::Activation;
using cvsafe::nn::fast_tanh;
using cvsafe::nn::Matrix;
using cvsafe::nn::Mlp;

std::int64_t ulp_diff(double a, double b) {
  if (a == b) return 0;  // cvsafe-lint: allow(float-compare)
  auto ia = std::bit_cast<std::int64_t>(a);
  auto ib = std::bit_cast<std::int64_t>(b);
  // Map to a monotonic integer line so the difference counts ulps across
  // the sign boundary too.
  if (ia < 0) ia = std::numeric_limits<std::int64_t>::min() - ia;
  if (ib < 0) ib = std::numeric_limits<std::int64_t>::min() - ib;
  return ia > ib ? ia - ib : ib - ia;
}

constexpr std::int64_t kMaxUlp = 8;

TEST(FastTanhTest, DenseSweepWithinUlpBound) {
  for (double x = -25.0; x <= 25.0; x += 1e-3) {
    ASSERT_LE(ulp_diff(fast_tanh(x), std::tanh(x)), kMaxUlp) << "x = " << x;
  }
}

TEST(FastTanhTest, RandomAndTinyInputsWithinUlpBound) {
  cvsafe::util::Rng rng(41);
  for (int i = 0; i < 200000; ++i) {
    const double x = rng.uniform(-40.0, 40.0);
    ASSERT_LE(ulp_diff(fast_tanh(x), std::tanh(x)), kMaxUlp) << "x = " << x;
  }
  for (double x = 1e-300; x < 1.0; x *= 1.31) {
    ASSERT_LE(ulp_diff(fast_tanh(x), std::tanh(x)), kMaxUlp) << "x = " << x;
    ASSERT_LE(ulp_diff(fast_tanh(-x), std::tanh(-x)), kMaxUlp) << "x = " << -x;
  }
}

TEST(FastTanhTest, SpecialValues) {
  EXPECT_TRUE(std::isnan(fast_tanh(std::nan(""))));
  EXPECT_EQ(fast_tanh(std::numeric_limits<double>::infinity()), 1.0);
  EXPECT_EQ(fast_tanh(-std::numeric_limits<double>::infinity()), -1.0);
  EXPECT_EQ(fast_tanh(0.0), 0.0);
  EXPECT_TRUE(std::signbit(fast_tanh(-0.0)));
  EXPECT_EQ(fast_tanh(25.0), 1.0);   // saturated
  EXPECT_EQ(fast_tanh(-25.0), -1.0);
  // Exact for subnormal-adjacent magnitudes where tanh(x) == x.
  EXPECT_EQ(fast_tanh(1e-300), 1e-300);
}

TEST(FastTanhTest, OddSymmetry) {
  cvsafe::util::Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(0.0, 30.0);
    EXPECT_EQ(fast_tanh(-x), -fast_tanh(x)) << "x = " << x;
  }
}

TEST(FastTanhTest, Pow2IntegralMatchesIntegerConversion) {
  // The bit construction against the int64 conversion it replaced, over
  // fast_tanh's k range [0, 56] and the rest of the documented domain.
  for (int k = -1022; k <= 1023; ++k) {
    const double kd = k;
    const double converted = std::bit_cast<double>(
        (static_cast<std::int64_t>(kd) + 1023) << 52);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(cvsafe::nn::pow2_integral(kd)),
              std::bit_cast<std::uint64_t>(converted))
        << "k = " << k;
    ASSERT_EQ(cvsafe::nn::pow2_integral(kd), std::ldexp(1.0, k));
  }
}

// --- Activations, bit for bit -----------------------------------------
//
// The fused forward pass applies the activations in a CVSAFE_NN_KERNEL
// compiled for baseline x86-64 and x86-64-v3 (src/nn/isa_dispatch.hpp);
// the v3 clone runs fast_tanh as a vectorized loop with hardware FMA. The
// reference below is the same formula written as a scalar function in
// this test, with the baseline flags, so on an AVX2 + FMA host the
// FusedForward cases hold the v3 clone to the baseline's bits.

constexpr Activation kActivations[] = {Activation::kIdentity,
                                       Activation::kRelu, Activation::kTanh,
                                       Activation::kSigmoid};

double reference_activation(Activation act, double x) {
  switch (act) {
    case Activation::kIdentity: return x;
    case Activation::kRelu: return x > 0.0 ? x : 0.0;
    case Activation::kTanh: return fast_tanh(x);
    case Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-x));
  }
  return x;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Inputs that reach every select and rounding step of fast_tanh: signed
/// zeros, subnormals, +/-inf, NaN, the saturation threshold 19.0625 and
/// its neighbours, and points where z * log2(e) = 2|x| * log2(e) lands on
/// or next to k + 0.5, where nearbyint's tie rule picks k.
std::vector<double> tanh_edge_inputs(int* exact_ties) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kLog2e = 1.44269504088896338700e+00;  // fast_tanh's
  std::vector<double> v = {0.0,
                           -0.0,
                           kInf,
                           -kInf,
                           std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::min() / 3.0,
                           -std::numeric_limits<double>::min(),
                           1e-300,
                           -1e-300};
  for (const double sat : {19.0625, -19.0625}) {
    double lo = sat;
    double hi = sat;
    v.push_back(sat);
    for (int i = 0; i < 3; ++i) {
      lo = std::nextafter(lo, -kInf);
      hi = std::nextafter(hi, kInf);
      v.push_back(lo);
      v.push_back(hi);
    }
  }
  *exact_ties = 0;
  for (int k = 0; k <= 56; ++k) {
    double x = (k + 0.5) / (2.0 * kLog2e);
    for (int i = 0; i < 4; ++i) x = std::nextafter(x, -kInf);
    for (int i = 0; i < 9; ++i, x = std::nextafter(x, kInf)) {
      // cvsafe-lint: allow(float-compare) counting exact ties on purpose
      if ((2.0 * x) * kLog2e == k + 0.5) ++*exact_ties;
      v.push_back(x);
      v.push_back(-x);
    }
  }
  return v;
}

/// rows x cols: the edge inputs in turn with seeded random values between
/// them, so every edge value lands in vector bodies and scalar tails.
Matrix activation_input(std::size_t rows, std::size_t cols,
                        const std::vector<double>& edges,
                        cvsafe::util::Rng& rng, std::size_t* next_edge) {
  Matrix z(rows, cols);
  for (auto& x : z.data()) {
    if (rng.uniform_int(0, 2) == 0) {
      x = edges[(*next_edge)++ % edges.size()];
    } else {
      x = rng.uniform(-25.0, 25.0);
    }
  }
  return z;
}

/// rows x cols of signed zeros, each row all +0.0 or all -0.0, alternating:
/// with a -0.0 bias, the structured case in which a sum that starts from
/// +0.0 and one seeded with its first product differ (random inputs almost
/// never line their signed zeros up this way).
Matrix signed_zero_rows(std::size_t rows, std::size_t cols) {
  Matrix z(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) z(i, j) = i % 2 ? -0.0 : 0.0;
  }
  return z;
}

// --- Fused forward pass, bit for bit -----------------------------------
//
// Mlp::forward_into and predict_scalar run one fused kernel through every
// layer, from each layer's W^T cache, which must be fresh. The reference
// is a per-layer pass built from W itself: matmul_into against W^T, then
// the bias and reference_activation, layer by layer.

// Around the fused kernel's four-row tiles, and its 24-, 8- and 4-column
// tiles and single columns.
constexpr std::size_t kFusedRows[] = {1, 2, 3, 7, 53, 64, 513};
constexpr std::size_t kFusedInputs[] = {1, 4, 25};
constexpr std::size_t kFusedWidths[] = {1, 4, 8, 23, 24, 25, 64, 257};

Matrix reference_forward(const Mlp& net, const Matrix& x) {
  Matrix h = x;
  Matrix z;
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    const auto& layer = net.layer(l);
    cvsafe::nn::matmul_into(h, layer.weights().transpose(), z);
    for (std::size_t i = 0; i < z.rows(); ++i) {
      for (std::size_t j = 0; j < z.cols(); ++j) {
        z(i, j) = reference_activation(layer.activation(),
                                       z(i, j) + layer.bias()(0, j));
      }
    }
    h = z;
  }
  return h;
}

/// Bit equality; NaNs match whatever their payloads (which NaN survives
/// an add of two NaNs depends on the operand order the compiler picked).
bool same_bits(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return bits(a) == bits(b);
}

void expect_same_bits(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(same_bits(got.data()[i], want.data()[i]))
        << "element " << i << " (row " << i / got.cols() << ")"
        << std::hexfloat << ": " << got.data()[i] << " vs reference "
        << want.data()[i];
  }
}

/// Every row of \p x through predict_scalar (1-output nets only).
void expect_predict_scalar_matches(const Mlp& net, const Matrix& x,
                                   const Matrix& want,
                                   cvsafe::nn::Workspace& ws) {
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const std::span<const double> row(x.data().data() + i * x.cols(),
                                      x.cols());
    ASSERT_TRUE(same_bits(net.predict_scalar(row, ws), want(i, 0)))
        << "predict_scalar, row " << i;
  }
}

/// A net of \p depth layers: \p in inputs, widths cycling through
/// kFusedWidths from \p first_width, \p act everywhere. Glorot weights;
/// the biases come from activation_input, so they carry the edge values.
Mlp fused_net(std::size_t in, std::size_t first_width, std::size_t depth,
              Activation act, const std::vector<double>& edges,
              cvsafe::util::Rng& rng, std::size_t* next_edge) {
  cvsafe::nn::MlpSpec spec;
  spec.layer_sizes.push_back(in);
  for (std::size_t l = 0; l < depth; ++l) {
    spec.layer_sizes.push_back(
        kFusedWidths[(first_width + l) % std::size(kFusedWidths)]);
  }
  spec.hidden_activation = act;
  spec.output_activation = act;
  Mlp net(spec, rng);
  for (std::size_t l = 0; l < depth; ++l) {
    Matrix& bias = net.mutable_layer(l).mutable_bias();
    bias = activation_input(1, bias.cols(), edges, rng, next_edge);
  }
  return net;
}

/// One-input layers with unit weights and -0.0 biases hand each row's x to
/// the activation as it is (0.0 + x * 1.0 + -0.0 is x, or +0.0 for
/// x = -0.0), so every edge value reaches the activation exactly, in
/// every column: the vector lanes of the 24-, 8- and 4-column tiles and
/// the single columns.
void expect_edge_inputs_match(Activation act,
                              const std::vector<double>& edges,
                              cvsafe::util::Rng& rng,
                              cvsafe::nn::Workspace& ws) {
  const Matrix x(edges.size(), 1, edges);
  for (const std::size_t width : kFusedWidths) {
    SCOPED_TRACE(testing::Message() << "edge inputs, width " << width);
    cvsafe::nn::MlpSpec spec;
    spec.layer_sizes = {1, width};
    spec.output_activation = act;
    Mlp net(spec, rng);
    for (auto& w : net.mutable_layer(0).mutable_weights().data()) w = 1.0;
    for (auto& b : net.mutable_layer(0).mutable_bias().data()) b = -0.0;
    net.refresh_inference_cache();
    const Matrix want = reference_forward(net, x);
    expect_same_bits(net.forward_into(x, ws), want);
    if (width == 1) expect_predict_scalar_matches(net, x, want, ws);
  }
}

TEST(FusedForward, MatchesPerLayerReferenceBitForBit) {
  int exact_ties = 0;
  const std::vector<double> edges = tanh_edge_inputs(&exact_ties);
  ASSERT_GT(exact_ties, 0);
  cvsafe::util::Rng rng(44);
  std::size_t next_edge = 0;
  std::size_t shape = 0;
  cvsafe::nn::Workspace ws;  // shared: every shape resizes its buffers
  for (const Activation act : kActivations) {
    SCOPED_TRACE(cvsafe::nn::activation_name(act));
    expect_edge_inputs_match(act, edges, rng, ws);
    for (std::size_t w = 0; w < std::size(kFusedWidths); ++w) {
      for (std::size_t depth = 1; depth <= 4; ++depth, ++shape) {
        const std::size_t in = kFusedInputs[shape % std::size(kFusedInputs)];
        const Mlp net = fused_net(in, w, depth, act, edges, rng, &next_edge);
        Mlp zero_net = net;
        for (std::size_t l = 0; l < depth; ++l) {
          for (auto& b : zero_net.mutable_layer(l).mutable_bias().data()) {
            b = -0.0;
          }
        }
        std::size_t widest = 0;
        for (std::size_t l = 0; l < depth; ++l) {
          widest = std::max(widest, net.layer(l).out_dim());
        }
        for (const std::size_t rows : kFusedRows) {
          // Bounds the run time: 513 rows only through nets up to 64 wide.
          if (widest > 64 && rows > 64) continue;
          SCOPED_TRACE(testing::Message()
                       << cvsafe::nn::activation_name(act) << " depth "
                       << depth << " in " << in << " first width "
                       << kFusedWidths[w] << " rows " << rows);
          const Matrix x = activation_input(rows, in, edges, rng, &next_edge);
          const Matrix want = reference_forward(net, x);
          expect_same_bits(net.forward_into(x, ws), want);
          if (net.output_dim() == 1) {
            expect_predict_scalar_matches(net, x, want, ws);
          }

          SCOPED_TRACE("signed-zero rows, -0.0 biases");
          const Matrix zeros = signed_zero_rows(rows, in);
          const Matrix zero_want = reference_forward(zero_net, zeros);
          expect_same_bits(zero_net.forward_into(zeros, ws), zero_want);
          if (zero_net.output_dim() == 1) {
            expect_predict_scalar_matches(zero_net, zeros, zero_want, ws);
          }
        }
      }
    }
  }
}

TEST(FusedForward, ProductionShapeMatchesPerLayerReferenceBitForBit) {
  // kappa_n's shape: 4 -> 24 -> 24 -> 1, tanh hidden, identity output.
  cvsafe::util::Rng rng(45);
  cvsafe::nn::MlpSpec spec;
  spec.layer_sizes = {4, 24, 24, 1};
  Mlp net(spec, rng);
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    for (auto& b : net.mutable_layer(l).mutable_bias().data()) {
      b = rng.uniform(-0.5, 0.5);
    }
  }
  cvsafe::nn::Workspace ws;
  for (const std::size_t rows : kFusedRows) {
    Matrix x(rows, 4);
    for (auto& v : x.data()) v = rng.uniform(-1.5, 1.5);
    const Matrix want = reference_forward(net, x);
    expect_same_bits(net.forward_into(x, ws), want);
    expect_predict_scalar_matches(net, x, want, ws);
  }
}

TEST(FusedForward, SumsStartFromPositiveZero) {
  // One input, so each pre-activation is 0.0 + x * w + b. With x = +/-0
  // the product is a signed zero; starting the sum at 0.0 makes it +0.0,
  // and a -0.0 bias keeps it +0.0. A sum seeded with the product instead
  // would end at -0.0, which identity and tanh pass through.
  cvsafe::util::Rng rng(46);
  cvsafe::nn::Workspace ws;
  for (const Activation act : kActivations) {
    for (const std::size_t width : kFusedWidths) {
      cvsafe::nn::MlpSpec spec;
      spec.layer_sizes = {1, width};
      spec.output_activation = act;
      Mlp net(spec, rng);
      for (auto& b : net.mutable_layer(0).mutable_bias().data()) b = -0.0;
      // Six rows: one four-row tile and two single rows.
      const Matrix x(6, 1, {0.0, -0.0, 0.0, -0.0, 0.0, -0.0});
      const Matrix want = reference_forward(net, x);
      const Matrix& got = net.forward_into(x, ws);
      SCOPED_TRACE(testing::Message() << cvsafe::nn::activation_name(act)
                                      << " width " << width);
      expect_same_bits(got, want);
      if (act == Activation::kIdentity || act == Activation::kTanh) {
        for (const double y : got.data()) {
          ASSERT_FALSE(std::signbit(y)) << "a -0.0 sum";
        }
      }
    }
  }
}

TEST(FusedForward, StaleCacheIsAContractViolationUntilRefreshed) {
  // mutable_weights() leaves the W^T cache stale; forward_into and
  // predict_scalar then fail their contract instead of reading it, and
  // once the cache is refreshed they agree with the reference built from
  // the mutated W.
  int exact_ties = 0;
  const std::vector<double> edges = tanh_edge_inputs(&exact_ties);
  cvsafe::util::Rng rng(47);
  std::size_t next_edge = 0;
  cvsafe::nn::MlpSpec spec;
  spec.layer_sizes = {4, 25, 24, 1};
  Mlp net(spec, rng);
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    for (auto& b : net.mutable_layer(l).mutable_bias().data()) {
      b = rng.uniform(-0.5, 0.5);
    }
  }
  const Matrix x = activation_input(53, 4, edges, rng, &next_edge);
  cvsafe::nn::Workspace ws;

  for (auto& v : net.mutable_layer(1).mutable_weights().data()) v += 0.25;
  ASSERT_FALSE(net.layer(1).inference_cache_fresh());
  {
    const cvsafe::util::ScopedContractMode mode(
        cvsafe::util::ContractMode::kThrow);
    EXPECT_THROW(net.forward_into(x, ws), cvsafe::util::ContractViolation);
    const std::span<const double> row(x.data().data(), x.cols());
    try {
      net.predict_scalar(row, ws);
      ADD_FAILURE() << "predict_scalar ran on a stale cache";
    } catch (const cvsafe::util::ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("refresh_inference_cache()"),
                std::string::npos)
          << e.what();
    }
  }

  net.refresh_inference_cache();
  ASSERT_TRUE(net.layer(1).inference_cache_fresh());
  const Matrix want = reference_forward(net, x);
  expect_same_bits(net.forward_into(x, ws), want);
  expect_predict_scalar_matches(net, x, want, ws);
}

}  // namespace
