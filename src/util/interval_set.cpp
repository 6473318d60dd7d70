#include "cvsafe/util/interval_set.hpp"

#include <algorithm>
#include <ostream>

namespace cvsafe::util {

IntervalSet::IntervalSet(const Interval& iv) {
  if (!iv.empty()) parts_.push_back(iv);
}

IntervalSet::IntervalSet(std::initializer_list<Interval> ivs) {
  for (const auto& iv : ivs) {
    if (!iv.empty()) parts_.push_back(iv);
  }
  normalize();
}

void IntervalSet::normalize() {
  if (parts_.size() < 2) return;
  std::sort(parts_.begin(), parts_.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  // Merge in place: parts_[0..kept) is the merged prefix.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    const Interval iv = parts_[i];
    CVSAFE_ASSERT(!iv.empty(), "normalize must never see empty parts");
    if (kept > 0 && iv.lo <= parts_[kept - 1].hi) {
      parts_[kept - 1].hi = std::max(parts_[kept - 1].hi, iv.hi);
    } else {
      parts_[kept++] = iv;
    }
  }
  parts_.resize(kept);
}

double IntervalSet::measure() const {
  double m = 0.0;
  for (const auto& iv : parts_) m += iv.width();
  return m;
}

Interval IntervalSet::hull() const {
  if (empty()) return Interval::empty_interval();
  return Interval{parts_.front().lo, parts_.back().hi};
}

bool IntervalSet::contains(double x) const {
  for (const auto& iv : parts_) {
    if (iv.contains(x)) return true;
    if (iv.lo > x) break;
  }
  return false;
}

bool IntervalSet::intersects(const Interval& target) const {
  if (target.empty()) return false;
  for (const auto& iv : parts_) {
    if (iv.intersects(target)) return true;
    if (iv.lo > target.hi) break;
  }
  return false;
}

void IntervalSet::insert(const Interval& iv) {
  if (iv.empty()) return;
  parts_.push_back(iv);
  normalize();
}

void IntervalSet::inflate(double margin) {
  for (auto& part : parts_) part = part.inflated(margin);
  normalize();
}

IntervalSet IntervalSet::unite(const IntervalSet& other) const {
  IntervalSet out = *this;
  out.parts_.insert(out.parts_.end(), other.parts_.begin(),
                    other.parts_.end());
  out.normalize();
  return out;
}

IntervalSet IntervalSet::intersect(const Interval& iv) const {
  IntervalSet out;
  if (iv.empty()) return out;
  for (const auto& part : parts_) {
    const Interval clipped = part.intersect(iv);
    if (!clipped.empty()) out.parts_.push_back(clipped);
  }
  return out;  // already sorted and disjoint
}

IntervalSet IntervalSet::after(double t) const {
  IntervalSet out;
  for (const auto& part : parts_) {
    if (part.hi < t) continue;
    out.parts_.push_back(Interval{std::max(part.lo, t), part.hi});
  }
  return out;
}

std::optional<double> IntervalSet::first_point_after(double t) const {
  for (const auto& part : parts_) {
    if (part.hi >= t) return std::max(part.lo, t);
  }
  return std::nullopt;
}

std::optional<Interval> IntervalSet::first_part_after(double t) const {
  for (const auto& part : parts_) {
    if (part.hi >= t) return Interval{std::max(part.lo, t), part.hi};
  }
  return std::nullopt;
}

bool IntervalSet::intersects_after(double t, const Interval& target) const {
  if (target.empty()) return false;
  for (const auto& part : parts_) {
    if (part.hi < t) continue;
    const Interval clipped{std::max(part.lo, t), part.hi};
    if (clipped.intersects(target)) return true;
    if (clipped.lo > target.hi) break;
  }
  return false;
}

std::ostream& operator<<(std::ostream& os, const IntervalSet& s) {
  if (s.empty()) return os << "{}";
  os << '{';
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i) os << " u ";
    os << s[i];
  }
  return os << '}';
}

}  // namespace cvsafe::util
