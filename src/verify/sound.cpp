#include "cvsafe/verify/sound.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>
#include <utility>

#include "cvsafe/nn/interval_mlp.hpp"
#include "cvsafe/nn/serialize.hpp"
#include "cvsafe/obs/metrics.hpp"
#include "cvsafe/util/contracts.hpp"
#include "cvsafe/util/rounded_interval.hpp"
#include "cvsafe/util/thread_pool.hpp"

// Compiled with -ffp-contract=off (src/verify/CMakeLists.txt): certified
// endpoints must not depend on whether the compiler fuses a multiply-add.

namespace cvsafe::verify {

using util::Interval;
namespace rd = util::rounded;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Deterministic bisection: split the axis with the largest width relative
/// to its root-domain width (ties to the lower index) at the floating
/// midpoint. Both the prover and scripts/check_certificate.py re-derive
/// the split from the box alone, which is what makes the leaf tiling
/// independently checkable.
template <std::size_t N>
std::size_t widest_scaled_axis(const std::array<Interval, N>& box,
                               const std::array<double, N>& domain_width) {
  std::size_t axis = 0;
  double best = -1.0;
  for (std::size_t i = 0; i < N; ++i) {
    const double w =
        domain_width[i] > 0.0 ? box[i].width() / domain_width[i] : 0.0;
    if (w > best) {
      best = w;
      axis = i;
    }
  }
  return axis;
}

// ---------------------------------------------------------------------------
// Theorem A: Eq. 4 on the slack band, in (v0, s) coordinates.
// ---------------------------------------------------------------------------

struct Eq4Consts {
  double a_min = 0.0;   ///< < 0
  double two_am = 0.0;  ///< -2 a_min (exact: negate + double)
  double dt = 0.0;
  double v_max = 0.0;
  double s_max = 0.0;
};

/// Upper bound of q(v, s) = v^2 / (2 (d_b(v) + s)) over the box — the
/// magnitude of the ideal emergency braking command. q is monotone
/// increasing in u = v^2 (dq/du = 2s / den^2 >= 0) and decreasing in s,
/// so the maximum sits at (v.hi, s.lo); the single-point evaluation is
/// outward-rounded. q <= |a_min| holds identically (d_b >= v^2/(2|a_min|)
/// and s >= 0), which caps the 0/0 corner at v = 0, s = 0.
double q_upper(const Eq4Consts& c, const Interval& v, const Interval& s) {
  // Exact zero test (q(0, s) = 0). cvsafe-lint: allow(float-compare)
  if (v.hi == 0.0) return 0.0;
  const double u_up = rd::mul_up(v.hi, v.hi);
  const double u_dn = rd::mul_down(v.hi, v.hi);
  const double db_dn = rd::div_down(u_dn, c.two_am);
  const double den_dn = 2.0 * rd::add_down(db_dn, s.lo);
  if (den_dn <= 0.0) return -c.a_min;
  return std::min(-c.a_min, rd::div_up(u_up, den_dn));
}

/// Lower bound of q over the box: minimum at (v.lo, s.hi).
double q_lower(const Eq4Consts& c, const Interval& v, const Interval& s) {
  // Exact zero test (q(0, s) = 0). cvsafe-lint: allow(float-compare)
  if (v.lo == 0.0) return 0.0;
  const double u_dn = rd::mul_down(v.lo, v.lo);
  const double u_up = rd::mul_up(v.lo, v.lo);
  const double db_up = rd::div_up(u_up, c.two_am);
  const double den_up = 2.0 * rd::add_up(db_up, s.hi);
  if (den_up <= 0.0) return 0.0;
  return std::max(0.0, rd::div_down(u_dn, den_up));
}

/// Outcome of evaluating one Eq. 4 box.
struct Eq4Eval {
  bool margin_ok = false;    ///< numeric rule discharged the box
  bool all_stopping = false; ///< every state halts within the step
  double slack_next_lb = 0.0;
};

/// Directed-rounding evaluation of the no-stop successor slack lower
/// bound over the box. Sound for every state in the box whose successor
/// does not halt within the step; halting states are covered by the
/// exact-braking invariance lemma on every leaf (they stop at or before
/// the front line by construction of the command).
Eq4Eval eval_eq4_box(const Eq4Consts& c, const Interval& v,
                     const Interval& s) {
  Eq4Eval out;
  // Command enclosure A ∋ a*(x) = max(a_min, -q(x)) for every x in box.
  const double q_up = q_upper(c, v, s);
  const double q_dn = q_lower(c, v, s);
  const Interval a{std::max(c.a_min, -q_up), -q_dn};

  const Interval dt_i = Interval::point(c.dt);
  const Interval vn = rd::add(v, rd::mul(a, dt_i));
  const Interval vn_pos = vn.intersect(Interval{0.0, kInf});
  if (vn_pos.empty()) {
    out.all_stopping = true;  // lemma covers the whole box
    return out;
  }

  // gap = d_b(v) + s by the band parameterization.
  const Interval bd = rd::div_scalar(rd::sqr(v), c.two_am);
  const Interval gap = rd::add(bd, s);
  // No-stop displacement v dt + a dt^2 / 2.
  const Interval half_dt2 = rd::scale(rd::mul(dt_i, dt_i), 0.5);
  const Interval disp = rd::add(rd::mul(v, dt_i), rd::mul(a, half_dt2));
  // Successor slack = gap' - d_b(v') with gap' = gap - disp.
  const Interval bd_next = rd::div_scalar(rd::sqr(vn_pos), c.two_am);
  const Interval slack_next = rd::sub(rd::sub(gap, disp), bd_next);
  out.slack_next_lb = slack_next.lo;
  out.margin_ok = slack_next.lo >= 0.0;
  return out;
}

// ---------------------------------------------------------------------------
// JSON rendering helpers.
// ---------------------------------------------------------------------------

/// Canonical hex rendering of a double: full 13-hex-digit mantissa, so
/// the string is bit-lossless and identical across C libraries (the
/// digit count of bare %a is implementation-defined).
std::string hexd(double x) {
  if (x == kInf) return "inf";
  if (x == -kInf) return "-inf";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.13a", x);
  return buf;
}

std::string json_interval(const Interval& iv) {
  return "[\"" + hexd(iv.lo) + "\", \"" + hexd(iv.hi) + "\"]";
}

}  // namespace

std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64-bit offset basis
  for (const char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;  // FNV-1a 64-bit prime
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

NnInputDomain NnInputDomain::planner_view(
    const scenario::LeftTurnScenario& scn,
    const planners::InputEncoding& enc) {
  NnInputDomain d;
  d.p0 = Interval{scn.geometry().ego_start, scn.geometry().ego_back};
  d.v0 = Interval{0.0, scn.ego_limits().v_max};
  d.w_rel = Interval{enc.w_min, enc.w_max};
  return d;
}

Eq4SoundResult certify_eq4_sound(const scenario::LeftTurnScenario& scenario,
                                 const SoundBnbOptions& options) {
  // Exact precondition, not a tolerance. cvsafe-lint: allow(float-compare)
  CVSAFE_EXPECTS(scenario.ego_limits().v_min == 0.0,
                 "Theorem A's band parameterization assumes v_min == 0");
  Eq4Consts c;
  c.a_min = scenario.ego_limits().a_min;
  c.two_am = -2.0 * c.a_min;
  c.dt = scenario.control_period();
  c.v_max = scenario.ego_limits().v_max;
  c.s_max =
      scenario.geometry().ego_front - scenario.geometry().ego_start;

  Eq4SoundResult result;
  result.v_domain = Interval{0.0, c.v_max};
  result.s_domain = Interval{0.0, c.s_max};
  const std::array<double, 2> domain_width{c.v_max, c.s_max};

  struct Node {
    std::string path;
    Interval v, s;
  };
  struct Outcome {
    bool is_leaf = false;
    Eq4LeafProof leaf;
    std::size_t axis = 0;
  };

  std::vector<Node> frontier{{std::string(), result.v_domain,
                              result.s_domain}};
  std::size_t depth = 0;
  while (!frontier.empty()) {
    std::vector<Outcome> outcomes(frontier.size());
    util::parallel_for(
        frontier.size(),
        [&](std::size_t i) {
          const Node& node = frontier[i];
          Outcome& o = outcomes[i];
          const Eq4Eval ev = eval_eq4_box(c, node.v, node.s);
          const std::array<Interval, 2> box{node.v, node.s};
          const std::size_t axis = widest_scaled_axis(box, domain_width);
          const double scaled =
              domain_width[axis] > 0.0
                  ? box[axis].width() / domain_width[axis]
                  : 0.0;
          const bool floor_hit =
              scaled <= options.min_width || depth >= options.max_depth;
          if (ev.margin_ok || ev.all_stopping || floor_hit) {
            o.is_leaf = true;
            o.leaf.path = node.path;
            o.leaf.v = node.v;
            o.leaf.s = node.s;
            if (ev.margin_ok) {
              o.leaf.rule = Eq4Rule::kMargin;
              o.leaf.slack_next_lb = ev.slack_next_lb;
            } else {
              o.leaf.rule = Eq4Rule::kLemma;
              o.leaf.slack_next_lb = 0.0;
            }
          } else {
            o.axis = axis;
          }
        },
        options.threads);

    std::vector<Node> next;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      Outcome& o = outcomes[i];
      if (o.is_leaf) {
        if (o.leaf.rule == Eq4Rule::kMargin) {
          ++result.margin_leaves;
        } else {
          ++result.lemma_leaves;
        }
        result.leaves.push_back(std::move(o.leaf));
        continue;
      }
      const Node& node = frontier[i];
      const Interval& span = o.axis == 0 ? node.v : node.s;
      // Split point, not a bound: any interior value is sound, and the
      // checker replays this exact round-to-nearest midpoint bit-for-bit.
      // cvsafe-lint: allow(no-raw-endpoint-arithmetic)
      const double mid = 0.5 * (span.lo + span.hi);
      Node lo = node;
      Node hi = node;
      lo.path += '0';
      hi.path += '1';
      if (o.axis == 0) {
        lo.v = Interval{node.v.lo, mid};
        hi.v = Interval{mid, node.v.hi};
      } else {
        lo.s = Interval{node.s.lo, mid};
        hi.s = Interval{mid, node.s.hi};
      }
      next.push_back(std::move(lo));
      next.push_back(std::move(hi));
    }
    frontier = std::move(next);
    if (!frontier.empty()) ++depth;
  }
  result.max_depth_reached = depth;
  result.proved = true;  // every leaf discharged by margin or lemma
  if (options.metrics != nullptr) {
    options.metrics
        ->counter("cvsafe_sound_eq4_leaves_total{rule=\"margin\"}")
        .inc(result.margin_leaves);
    options.metrics
        ->counter("cvsafe_sound_eq4_leaves_total{rule=\"lemma\"}")
        .inc(result.lemma_leaves);
  }
  return result;
}

NnBoundsResult certify_nn_bounds_sound(const nn::Mlp& net,
                                       const planners::InputEncoding& encoding,
                                       const NnInputDomain& domain,
                                       const SoundBnbOptions& options) {
  CVSAFE_EXPECTS(net.input_dim() == planners::InputEncoding::dim() &&
                     net.output_dim() == 1,
                 "Theorem B expects the planner network shape");
  NnBoundsResult result;
  result.assert_range = options.nn_assert;
  // Directed encoding of the raw domain (mirrors encode_into's scaling;
  // the window axes share w_rel, a box superset of the ordered pairs).
  result.domain = {rd::div_scalar(domain.p0, encoding.p_scale),
                   rd::div_scalar(domain.v0, encoding.v_scale),
                   rd::div_scalar(domain.w_rel, encoding.w_scale),
                   rd::div_scalar(domain.w_rel, encoding.w_scale)};
  std::array<double, 4> domain_width{};
  for (std::size_t i = 0; i < 4; ++i) {
    domain_width[i] = result.domain[i].width();
  }

  struct Node {
    std::string path;
    std::array<Interval, 4> box;
  };
  struct Outcome {
    bool is_leaf = false;
    NnLeafProof leaf;
    std::size_t axis = 0;
  };

  std::vector<Node> frontier{{std::string(), result.domain}};
  std::size_t depth = 0;
  bool all_inside = true;
  Interval hull = Interval::empty_interval();
  // Per-worker interval workspaces would need worker identity; the pass
  // allocates two small vectors per box instead, which the bench shows is
  // immaterial next to the interval arithmetic itself.
  while (!frontier.empty()) {
    std::vector<Outcome> outcomes(frontier.size());
    util::parallel_for(
        frontier.size(),
        [&](std::size_t i) {
          const Node& node = frontier[i];
          Outcome& o = outcomes[i];
          nn::IntervalWorkspace ws;
          const Interval out =
              nn::interval_predict_scalar(net, node.box, ws);
          const std::size_t axis =
              widest_scaled_axis(node.box, domain_width);
          const double scaled =
              domain_width[axis] > 0.0
                  ? node.box[axis].width() / domain_width[axis]
                  : 0.0;
          const bool tight = options.nn_assert.contains(out) &&
                             out.width() <= options.nn_target_width;
          const bool floor_hit = scaled <= options.nn_min_box_width ||
                                 depth >= options.max_depth;
          if (tight || floor_hit) {
            o.is_leaf = true;
            o.leaf.path = node.path;
            o.leaf.box = node.box;
            o.leaf.out = out;
          } else {
            o.axis = axis;
          }
        },
        options.threads);

    std::vector<Node> next;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      Outcome& o = outcomes[i];
      if (o.is_leaf) {
        all_inside =
            all_inside && options.nn_assert.contains(o.leaf.out);
        hull = hull.hull(o.leaf.out);
        result.leaves.push_back(std::move(o.leaf));
        continue;
      }
      const Node& node = frontier[i];
      const Interval& span = node.box[o.axis];
      // Split point, not a bound (same argument as the Eq. 4 tree).
      // cvsafe-lint: allow(no-raw-endpoint-arithmetic)
      const double mid = 0.5 * (span.lo + span.hi);
      Node lo = node;
      Node hi = node;
      lo.path += '0';
      hi.path += '1';
      lo.box[o.axis] = Interval{span.lo, mid};
      hi.box[o.axis] = Interval{mid, span.hi};
      next.push_back(std::move(lo));
      next.push_back(std::move(hi));
    }
    frontier = std::move(next);
    if (!frontier.empty()) ++depth;
  }
  result.max_depth_reached = depth;
  result.hull = hull;
  result.proved = all_inside;
  if (options.metrics != nullptr) {
    options.metrics->counter("cvsafe_sound_nn_leaves_total")
        .inc(result.leaves.size());
    options.metrics->gauge("cvsafe_sound_nn_hull_width")
        .set(hull.width());
  }
  return result;
}

SoundCertificate certify_sound(const scenario::LeftTurnScenario& scenario,
                               const nn::Mlp& net,
                               const planners::InputEncoding& encoding,
                               const SoundBnbOptions& options) {
  SoundCertificate cert;
  cert.eq4 = certify_eq4_sound(scenario, options);
  cert.nn = certify_nn_bounds_sound(
      net, encoding, NnInputDomain::planner_view(scenario, encoding),
      options);
  std::ostringstream net_bytes;
  nn::save_mlp(net, net_bytes);
  cert.net_hash = fnv1a_hex(net_bytes.str());

  std::string config;
  const auto& g = scenario.geometry();
  const auto& ego = scenario.ego_limits();
  config += hexd(g.ego_front) + "," + hexd(g.ego_back) + "," +
            hexd(g.ego_start) + "," + hexd(g.ego_target) + "," +
            hexd(ego.v_min) + "," + hexd(ego.v_max) + "," +
            hexd(ego.a_min) + "," + hexd(ego.a_max) + "," +
            hexd(scenario.control_period()) + ";" +
            hexd(encoding.p_scale) + "," + hexd(encoding.v_scale) + "," +
            hexd(encoding.w_scale) + "," + hexd(encoding.w_min) + "," +
            hexd(encoding.w_max);
  cert.config_hash = fnv1a_hex(config);
  return cert;
}

namespace {

/// Embedded network: one object per layer, weights row-major (out x in),
/// every coefficient a lossless hex string.
std::string json_network(const nn::Mlp& net) {
  std::string j = "[\n";
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const nn::DenseLayer& layer = net.layer(i);
    const nn::Matrix& w = layer.weights();
    const nn::Matrix& b = layer.bias();
    j += "    {\"out\": ";
    j += std::to_string(layer.out_dim());
    j += ", \"in\": ";
    j += std::to_string(layer.in_dim());
    j += ", \"activation\": \"";
    j += nn::activation_name(layer.activation());
    j += "\",\n     \"weights\": [";
    for (std::size_t r = 0; r < layer.out_dim(); ++r) {
      for (std::size_t c = 0; c < layer.in_dim(); ++c) {
        if (r != 0 || c != 0) j += ", ";
        j += '"';
        j += hexd(w(r, c));
        j += '"';
      }
    }
    j += "],\n     \"bias\": [";
    for (std::size_t c = 0; c < layer.out_dim(); ++c) {
      if (c != 0) j += ", ";
      j += '"';
      j += hexd(b(0, c));
      j += '"';
    }
    j += "]}";
    j += i + 1 < net.layer_count() ? ",\n" : "\n";
  }
  j += "  ]";
  return j;
}

}  // namespace

std::string certificate_json(const SoundCertificate& cert,
                             const scenario::LeftTurnScenario& scenario,
                             const nn::Mlp& net,
                             const planners::InputEncoding& encoding,
                             const SoundBnbOptions& options) {
  std::string j;
  j.reserve(1 << 20);
  const auto& g = scenario.geometry();
  const auto& ego = scenario.ego_limits();
  j += "{\n";
  j += "  \"format\": \"cvsafe-sound-certificate v1\",\n";
  j += "  \"scenario\": {";
  j += "\"ego_front\": \"" + hexd(g.ego_front) + "\", ";
  j += "\"ego_back\": \"" + hexd(g.ego_back) + "\", ";
  j += "\"ego_start\": \"" + hexd(g.ego_start) + "\", ";
  j += "\"v_min\": \"" + hexd(ego.v_min) + "\", ";
  j += "\"v_max\": \"" + hexd(ego.v_max) + "\", ";
  j += "\"a_min\": \"" + hexd(ego.a_min) + "\", ";
  j += "\"a_max\": \"" + hexd(ego.a_max) + "\", ";
  j += "\"dt_c\": \"" + hexd(scenario.control_period()) + "\"},\n";
  j += "  \"encoding\": {";
  j += "\"p_scale\": \"" + hexd(encoding.p_scale) + "\", ";
  j += "\"v_scale\": \"" + hexd(encoding.v_scale) + "\", ";
  j += "\"w_scale\": \"" + hexd(encoding.w_scale) + "\", ";
  j += "\"w_min\": \"" + hexd(encoding.w_min) + "\", ";
  j += "\"w_max\": \"" + hexd(encoding.w_max) + "\"},\n";
  j += "  \"options\": {";
  j += "\"max_depth\": " + std::to_string(options.max_depth) + ", ";
  j += "\"min_width\": \"" + hexd(options.min_width) + "\", ";
  j += "\"nn_target_width\": \"" + hexd(options.nn_target_width) + "\", ";
  j += "\"nn_min_box_width\": \"" + hexd(options.nn_min_box_width) + "\", ";
  j += "\"nn_assert\": " + json_interval(options.nn_assert) + ", ";
  j += "\"tanh_margin\": \"" + hexd(nn::kTanhEnclosureMargin) + "\"},\n";
  j += "  \"net_hash\": \"" + cert.net_hash + "\",\n";
  j += "  \"config_hash\": \"" + cert.config_hash + "\",\n";
  j += "  \"network\": " + json_network(net) + ",\n";

  j += "  \"eq4\": {\n";
  j += "    \"proved\": ";
  j += cert.eq4.proved ? "true" : "false";
  j += ",\n";
  j += "    \"v_domain\": " + json_interval(cert.eq4.v_domain) + ",\n";
  j += "    \"s_domain\": " + json_interval(cert.eq4.s_domain) + ",\n";
  j += "    \"margin_leaves\": " + std::to_string(cert.eq4.margin_leaves) +
       ",\n";
  j += "    \"lemma_leaves\": " + std::to_string(cert.eq4.lemma_leaves) +
       ",\n";
  j += "    \"leaves\": [\n";
  for (std::size_t i = 0; i < cert.eq4.leaves.size(); ++i) {
    const auto& leaf = cert.eq4.leaves[i];
    j += "      {\"path\": \"" + leaf.path + "\", \"v\": " +
         json_interval(leaf.v) + ", \"s\": " + json_interval(leaf.s) +
         ", \"rule\": \"" +
         (leaf.rule == Eq4Rule::kMargin ? "margin" : "lemma") +
         "\", \"slack_next_lb\": \"" + hexd(leaf.slack_next_lb) + "\"}";
    j += i + 1 < cert.eq4.leaves.size() ? ",\n" : "\n";
  }
  j += "    ]\n";
  j += "  },\n";

  j += "  \"nn_bounds\": {\n";
  j += "    \"proved\": ";
  j += cert.nn.proved ? "true" : "false";
  j += ",\n";
  j += "    \"assert\": " + json_interval(cert.nn.assert_range) + ",\n";
  j += "    \"hull\": " + json_interval(cert.nn.hull) + ",\n";
  j += "    \"domain\": [" + json_interval(cert.nn.domain[0]) + ", " +
       json_interval(cert.nn.domain[1]) + ", " +
       json_interval(cert.nn.domain[2]) + ", " +
       json_interval(cert.nn.domain[3]) + "],\n";
  j += "    \"leaves\": [\n";
  for (std::size_t i = 0; i < cert.nn.leaves.size(); ++i) {
    const auto& leaf = cert.nn.leaves[i];
    j += "      {\"path\": \"" + leaf.path + "\", \"box\": [" +
         json_interval(leaf.box[0]) + ", " + json_interval(leaf.box[1]) +
         ", " + json_interval(leaf.box[2]) + ", " +
         json_interval(leaf.box[3]) + "], \"out\": " +
         json_interval(leaf.out) + "}";
    j += i + 1 < cert.nn.leaves.size() ? ",\n" : "\n";
  }
  j += "    ]\n";
  j += "  },\n";

  // Self-hash over everything above this line.
  j += "  \"hash\": \"" + fnv1a_hex(j) + "\"\n}\n";
  return j;
}

}  // namespace cvsafe::verify
