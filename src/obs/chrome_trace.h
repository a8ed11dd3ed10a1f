#pragma once
// Chrome trace-event JSON exporter (loadable in Perfetto / chrome://tracing).
//
// Layout: one "process" per capture (pid = 1-based capture index, named by
// the capture label), one track ("thread") per simulated hardware thread.
// Transaction attempts become complete ("X") duration events; aborts,
// capacity evictions and retry decisions become instant ("i") events;
// the window series' boundary snapshots become counter ("C") events.
//
// Timestamps convert simulated cycles to microseconds with the capture's
// core frequency and fixed 3-digit precision, so the output is byte-stable.

#include <iosfwd>
#include <vector>

#include "obs/registry.h"

namespace tsx::obs {

void write_chrome_trace(std::ostream& os, const std::vector<Capture>& captures);

}  // namespace tsx::obs
