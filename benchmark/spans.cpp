#include "spans.h"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <utility>

#include "util/json.h"

namespace tsxbench {

double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

int Tracer::add(std::string name, double start_s, double end_s, int parent,
                int cell) {
  spans_.push_back(Span{std::move(name), start_s, end_s, parent, cell});
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, double> Tracer::self_seconds(int root) const {
  std::vector<int> root_of(spans_.size());
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    root_of[i] = s.parent < 0 ? static_cast<int>(i)
                              : root_of[static_cast<size_t>(s.parent)];
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].push_back({s.start_s, s.end_s});
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (root_of[i] != root) continue;
    // Union of the children's intervals, so overlapping children are not
    // subtracted twice.
    std::vector<std::pair<double, double>>& k = kids[i];
    std::sort(k.begin(), k.end());
    double covered = 0, lo = 0, hi = 0;
    bool have = false;
    for (const auto& [a, b] : k) {
      if (have && a <= hi) {
        hi = std::max(hi, b);
        continue;
      }
      if (have) covered += hi - lo;
      lo = a;
      hi = b;
      have = true;
    }
    if (have) covered += hi - lo;
    out[spans_[i].name] += (spans_[i].end_s - spans_[i].start_s) - covered;
  }
  return out;
}

void Tracer::write_chrome(std::ostream& os) const {
  os << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "") << "{\"name\": \"" << tsx::util::json_escape(s.name)
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
       << tsx::util::json_fixed(s.start_s * 1e6, 3)
       << ", \"dur\": " << tsx::util::json_fixed((s.end_s - s.start_s) * 1e6, 3)
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
       << ", \"cell\": " << s.cell << "}}";
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

}  // namespace tsxbench
