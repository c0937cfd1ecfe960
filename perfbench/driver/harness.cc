#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <utility>

namespace perfbench {

std::vector<std::size_t> Rng::Permutation(std::size_t n) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[Below(i)]);
  return perm;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

int SpanLog::Open(const char* name, std::uint64_t op) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, op, parent, SecondsSince(origin_), 0});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanLog::Close(int index) {
  spans_[static_cast<std::size_t>(index)].end_s = SecondsSince(origin_);
  // Spans nest, so the closing span is the innermost open one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanLog::Absorb(const SpanLog& other) {
  const int offset = static_cast<int>(spans_.size());
  const double shift =
      std::chrono::duration<double>(other.origin_ - origin_).count();
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    span.start_s += shift;
    span.end_s += shift;
    spans_.push_back(span);
  }
}

double SpanLog::P90Ms(const char* name) const {
  std::vector<double> ms;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0) {
      ms.push_back((span.end_s - span.start_s) * 1e3);
    }
  }
  return Quantile(std::move(ms), 0.9);
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"id\": %zu, \"name\": \"%s\", \"op\": %llu, "
                  "\"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f}\n",
                  i, s.name, static_cast<unsigned long long>(s.op), s.parent,
                  s.start_s, s.end_s);
    out << line;
  }
  return static_cast<bool>(out);
}

void RunResult::Fail(const std::string& why) {
  correct = false;
  ++failed;
  std::cerr << "check failed: " << why << "\n";
}

}  // namespace perfbench
