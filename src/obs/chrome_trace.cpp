#include "obs/chrome_trace.h"

#include <array>
#include <optional>
#include <ostream>
#include <string>

#include "sim/types.h"
#include "util/json.h"

namespace tsx::obs {

namespace {

struct Emitter {
  std::ostream& os;
  bool first = true;

  void raw(const std::string& event_json) {
    if (!first) os << ",\n";
    first = false;
    os << "  " << event_json;
  }
};

std::string us(sim::Cycles cycles, double freq_ghz) {
  // cycles / (GHz * 1000) = microseconds. Fixed precision keeps the output
  // byte-stable.
  double f = freq_ghz > 0 ? freq_ghz : 1.0;
  return util::json_fixed(static_cast<double>(cycles) / (f * 1000.0), 3);
}

std::string site_label(const Capture& c, uint32_t site) {
  auto it = c.site_names.find(site);
  if (it != c.site_names.end()) return it->second;
  if (site == kNoSite) return "tx";
  return "tx@site" + std::to_string(site);
}

void meta_event(Emitter& em, int pid, int tid, const char* name,
                const std::string& value) {
  std::string j = "{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
                  ",\"tid\":" + std::to_string(tid) + ",\"name\":\"" + name +
                  "\",\"args\":{\"name\":\"" + util::json_escape(value) +
                  "\"}}";
  em.raw(j);
}

struct PendingBegin {
  sim::Cycles t = 0;
  uint32_t site = kNoSite;
  uint8_t flags = 0;
};

void write_capture(Emitter& em, const Capture& c, int pid) {
  meta_event(em, pid, 0, "process_name", c.label);
  for (uint32_t t = 0; t < c.threads; ++t) {
    meta_event(em, pid, static_cast<int>(t), "thread_name",
               "hw thread " + std::to_string(t));
  }

  std::array<std::optional<PendingBegin>, sim::kMaxCtxs> open{};
  auto base = [&](const char* ph, const Event& e, sim::Cycles ts) {
    return std::string("{\"ph\":\"") + ph + "\",\"pid\":" +
           std::to_string(pid) + ",\"tid\":" + std::to_string(e.ctx) +
           ",\"ts\":" + us(ts, c.freq_ghz);
  };

  for (const Event& e : c.events) {
    switch (e.kind) {
      case EventKind::kTxBegin:
        if (e.ctx < open.size()) open[e.ctx] = PendingBegin{e.t, e.site, e.flags};
        break;
      case EventKind::kTxCommit:
      case EventKind::kTxAbort: {
        bool abort = e.kind == EventKind::kTxAbort;
        bool have_begin = e.ctx < open.size() && open[e.ctx].has_value();
        PendingBegin b;
        if (have_begin) {
          b = *open[e.ctx];
          open[e.ctx].reset();
        }
        std::string args = std::string("\"outcome\":\"") +
                           (abort ? "abort" : "commit") + "\"";
        if (e.flags & kFlagStm) args += ",\"stm\":true";
        if (abort) {
          args += std::string(",\"reason\":\"") + abort_reason_name(e.reason) +
                  "\"";
          if (e.line != ~0ull) args += ",\"line\":" + std::to_string(e.line);
          if (e.attacker != ~sim::CtxId{0}) {
            args += ",\"attacker\":" + std::to_string(e.attacker);
            args += ",\"attacker_site\":\"" +
                    util::json_escape(site_label(c, e.attacker_site)) + "\"";
          }
        }
        if (have_begin) {
          // Complete ("X") duration event spanning begin -> outcome.
          em.raw(base("X", e, b.t) + ",\"dur\":" + us(e.t - b.t, c.freq_ghz) +
                 ",\"name\":\"" + util::json_escape(site_label(c, b.site)) +
                 "\",\"args\":{" + args + "}}");
        } else {
          // Begin was evicted from the ring: degrade to an instant event.
          em.raw(base("i", e, e.t) + ",\"s\":\"t\",\"name\":\"" +
                 util::json_escape(site_label(c, e.site)) + "\",\"args\":{" +
                 args + "}}");
        }
        if (abort) {
          em.raw(base("i", e, e.t) + ",\"s\":\"t\",\"name\":\"abort: " +
                 abort_reason_name(e.reason) + "\",\"args\":{" + args + "}}");
        }
        break;
      }
      case EventKind::kEvict:
        em.raw(base("i", e, e.t) + ",\"s\":\"t\",\"name\":\"" +
               (e.level == 1 ? "evict L1 write-set" : "evict L3 read-set") +
               "\",\"args\":{\"line\":" + std::to_string(e.line) + "}}");
        break;
      case EventKind::kRetry:
        em.raw(base("i", e, e.t) + ",\"s\":\"t\",\"name\":\"" +
               (e.decision ? "fallback" : "retry") +
               "\",\"args\":{\"site\":\"" +
               util::json_escape(site_label(c, e.site)) +
               "\",\"backoff_cycles\":" + std::to_string(e.backoff) + "}}");
        break;
    }
  }
  // Transactions still open when tracing ended.
  for (uint32_t ctx = 0; ctx < open.size(); ++ctx) {
    if (!open[ctx]) continue;
    Event e;
    e.ctx = ctx;
    em.raw(base("i", e, open[ctx]->t) + ",\"s\":\"t\",\"name\":\"" +
           util::json_escape(site_label(c, open[ctx]->site)) +
           " (unfinished)\",\"args\":{}}");
  }

  if (c.metrics) {
    // PMU counter tracks: each window's boundary snapshot rendered as Chrome
    // counter ("C") events alongside the span events above.
    Event ce;  // counters are process-scoped; park them on tid 0
    ce.ctx = 0;
    for (const MetricsWindow& w : c.metrics->windows) {
      if (!w.end) continue;
      const sim::MachineStats& m = w.end->machine;
      sim::Cycles t = w.start + c.metrics->window_cycles;
      em.raw(base("C", ce, t) + ",\"name\":\"pmu tx\",\"args\":{\"starts\":" +
             std::to_string(m.tx.started) +
             ",\"commits\":" + std::to_string(m.tx.committed) +
             ",\"aborts\":" + std::to_string(m.tx.aborted()) + "}}");
      em.raw(base("C", ce, t) +
             ",\"name\":\"pmu tx cycles\",\"args\":{\"committed\":" +
             std::to_string(w.end->committed_cycles) +
             ",\"wasted\":" + std::to_string(w.end->wasted_cycles) + "}}");
      em.raw(base("C", ce, t) +
             ",\"name\":\"pmu memory\",\"args\":{\"l1_hits\":" +
             std::to_string(m.mem.l1_hits) +
             ",\"l2_hits\":" + std::to_string(m.mem.l2_hits) +
             ",\"l3_hits\":" + std::to_string(m.mem.l3_hits) +
             ",\"mem\":" + std::to_string(m.mem.mem_accesses) + "}}");
    }

    // Detected phase boundaries: process-scoped instant events, so the
    // steady/flash-crowd/write-burst edges line up against the span and
    // counter tracks above.
    static const char* kChannelNames[] = {"activity", "abort-rate",
                                          "wasted-share"};
    for (const PhaseEvent& pe : c.metrics->phases) {
      const char* chan =
          pe.channel >= 0 && pe.channel < 3 ? kChannelNames[pe.channel] : "?";
      em.raw(base("i", ce, pe.t) + ",\"s\":\"p\",\"name\":\"phase change\"" +
             ",\"args\":{\"window\":" + std::to_string(pe.window) +
             ",\"channel\":\"" + chan + "\",\"direction\":\"" +
             (pe.direction > 0 ? "rise" : "fall") + "\",\"score\":" +
             util::json_fixed(pe.score, 2) + "}}");
    }
  }
}

}  // namespace

void write_chrome_trace(std::ostream& os,
                        const std::vector<Capture>& captures) {
  os << "{\"traceEvents\":[\n";
  Emitter em{os};
  int pid = 1;
  for (const Capture& c : captures) write_capture(em, c, pid++);
  os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

}  // namespace tsx::obs
