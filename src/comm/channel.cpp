#include "cvsafe/comm/channel.hpp"

#include <sstream>

#include "cvsafe/util/contracts.hpp"

namespace cvsafe::comm {
namespace {
// Tolerance for matching transmission instants against the control clock.
constexpr double kTimeEps = 1e-9;
}  // namespace

CommConfig CommConfig::no_disturbance(double period) {
  return CommConfig{period, 0.0, 0.0, false};
}

CommConfig CommConfig::delayed(double drop_prob, double delay, double period) {
  return CommConfig{period, delay, drop_prob, false};
}

CommConfig CommConfig::messages_lost(double period) {
  CommConfig c;
  c.period = period;
  c.drop_prob = 1.0;
  c.lost = true;
  return c;
}

CommConfig CommConfig::bursty(double bad_fraction, double mean_burst_len,
                              double delay, double period) {
  CommConfig c;
  c.period = period;
  c.delay = delay;
  c.burst = true;
  c.drop_prob = 0.0;
  c.burst_drop_prob = 1.0;
  // Mean burst length L -> p(B->G) = 1/L; stationary bad fraction f:
  // f = p_gb / (p_gb + p_bg) -> p(G->B) = f p_bg / (1 - f).
  mean_burst_len = mean_burst_len < 1.0 ? 1.0 : mean_burst_len;
  bad_fraction = bad_fraction < 0.0   ? 0.0
                 : bad_fraction > 0.99 ? 0.99
                                       : bad_fraction;
  c.p_bad_to_good = 1.0 / mean_burst_len;
  c.p_good_to_bad = bad_fraction * c.p_bad_to_good / (1.0 - bad_fraction);
  return c;
}

double CommConfig::stationary_drop_prob() const {
  if (lost) return 1.0;
  if (!burst) return drop_prob;
  const double denom = p_good_to_bad + p_bad_to_good;
  const double bad_frac = denom > 0.0 ? p_good_to_bad / denom : 0.0;
  return (1.0 - bad_frac) * drop_prob + bad_frac * burst_drop_prob;
}

void CommConfig::validate() const {
  // Comparisons are written so NaN (which fails every ordered
  // comparison) violates the corresponding contract.
  CVSAFE_EXPECTS(period > 0.0 && period < 1e9,
                 "comm period must be positive and finite");
  CVSAFE_EXPECTS(delay >= 0.0 && delay < 1e9,
                 "comm delay must be non-negative and finite");
  CVSAFE_EXPECTS(drop_prob >= 0.0 && drop_prob <= 1.0,
                 "drop probability must lie in [0,1]");
  CVSAFE_EXPECTS(burst_drop_prob >= 0.0 && burst_drop_prob <= 1.0,
                 "burst drop probability must lie in [0,1]");
  CVSAFE_EXPECTS(p_good_to_bad >= 0.0 && p_good_to_bad <= 1.0,
                 "burst G->B transition probability must lie in [0,1]");
  CVSAFE_EXPECTS(p_bad_to_good >= 0.0 && p_bad_to_good <= 1.0,
                 "burst B->G transition probability must lie in [0,1]");
}

std::string CommConfig::label() const {
  if (lost || (!burst && drop_prob >= 1.0)) return "messages lost";
  if (burst) {
    std::ostringstream os;
    os << "bursty (stationary p_drop=" << stationary_drop_prob() << ')';
    return os.str();
  }
  if (delay > 0.0 || drop_prob > 0.0) {
    std::ostringstream os;
    os << "messages delayed (dt_d=" << delay << "s, p_drop=" << drop_prob
       << ')';
    return os.str();
  }
  return "no disturbance";
}

void Channel::offer(const Message& msg, util::Rng& rng) {
  if (admit(msg, rng)) enqueue(msg, msg.stamp() + config_.delay);
}

bool Channel::admit(const Message& msg, util::Rng& rng) {
  if (msg.stamp() + kTimeEps < next_tx_time_) {
    return false;  // not a tx instant yet
  }
  next_tx_time_ += config_.period;
  ++sent_;
  double p_drop = config_.drop_prob;
  if (config_.burst) {
    // Gilbert-Elliott state transition, then state-dependent drop.
    in_bad_state_ = in_bad_state_ ? !rng.bernoulli(config_.p_bad_to_good)
                                  : rng.bernoulli(config_.p_good_to_bad);
    p_drop = in_bad_state_ ? config_.burst_drop_prob : config_.drop_prob;
  }
  if (config_.lost || rng.bernoulli(p_drop)) {
    ++dropped_;
    return false;
  }
  return true;
}

void Channel::enqueue(const Message& msg, double delivery_time) {
  pending_.push(InFlight{delivery_time, next_seq_++, msg});
}

std::vector<Message> Channel::collect(double t) {
  std::vector<Message> out;
  collect_into(t, out);
  return out;
}

void Channel::collect_into(double t, std::vector<Message>& out) {
  out.clear();
  while (!pending_.empty() &&
         pending_.top().delivery_time <= t + kTimeEps) {
    out.push_back(pending_.top().msg);
    pending_.pop();
  }
}

}  // namespace cvsafe::comm
