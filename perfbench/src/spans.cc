#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace fcbench {

const char *
spanKindName(SpanKind k)
{
    switch (k) {
      case SpanKind::SubmitRead:
        return "core.submit.read";
      case SpanKind::SubmitWrite:
        return "core.submit.write";
      case SpanKind::SubmitCompute:
        return "core.submit.compute";
      case SpanKind::Trim:
        return "core.trim";
      case SpanKind::Plan:
        return "core.plan";
      case SpanKind::SimRun:
        return "sim.run";
      case SpanKind::Callback:
        return "bench.callback";
      case SpanKind::Sink:
        return "bench.sink";
      case SpanKind::kCount:
        break;
    }
    return "?";
}

SpanRecorder::Totals
SpanRecorder::totals() const
{
    Totals t;
    for (const Span &s : spans_) {
        const std::int64_t len = s.end - s.start;
        const auto k = static_cast<std::size_t>(s.kind);
        t.selfNs[k] += len;
        ++t.count[k];
        if (s.parent < 0)
            t.topLevelNs += len;
        else
            t.selfNs[static_cast<std::size_t>(
                spans_[static_cast<std::size_t>(s.parent)].kind)] -= len;
    }
    return t;
}

std::string
SpanRecorder::chromeJson(std::int64_t origin_ns,
                         std::size_t max_spans) const
{
    std::string out = "{\"traceEvents\":[\n"
                      "{\"ph\":\"M\",\"pid\":1000,\"name\":\"process_name\","
                      "\"args\":{\"name\":\"fcbench host\"}}";
    char buf[256];
    const std::size_t n = std::min(max_spans, spans_.size());
    for (std::size_t i = 0; i < n; ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      ",\n{\"ph\":\"X\",\"pid\":1000,\"tid\":1,"
                      "\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"span\":%zu,\"parent\":%d,"
                      "\"request\":%llu}}",
                      spanKindName(s.kind),
                      static_cast<double>(s.start - origin_ns) / 1e3,
                      static_cast<double>(s.end - s.start) / 1e3, i,
                      s.parent, static_cast<unsigned long long>(s.request));
        out += buf;
    }
    out += "\n],\"displayTimeUnit\":\"ns\"}\n";
    return out;
}

} // namespace fcbench
