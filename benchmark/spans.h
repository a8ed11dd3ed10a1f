#pragma once
// Host-time spans recorded by the benchmark around its calls into each
// tsxlab layer. Spans stay in memory and are written out as Chrome
// trace-event JSON when the run ends (load in Perfetto or chrome://tracing).
//
// Every span has a name, a start, an end, a parent (-1 for a root) and the
// id of the cell it belongs to (-1 outside any cell). A span's self time is
// its duration minus the part of it that its children cover.

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace tsxbench {

// Seconds on the steady clock since the first call in this process.
double now_s();

struct Span {
  std::string name;
  double start_s = 0;
  double end_s = 0;
  int parent = -1;
  int cell = -1;
};

class Tracer {
 public:
  // Records a span and returns its index, the parent id of the spans
  // recorded under it; a parent must be recorded before its children.
  int add(std::string name, double start_s, double end_s, int parent,
          int cell);

  const std::vector<Span>& spans() const { return spans_; }

  // Self time summed per span name, over span `root` and its descendants.
  std::map<std::string, double> self_seconds(int root) const;

  void write_chrome(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace tsxbench
