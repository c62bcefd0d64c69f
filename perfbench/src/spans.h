/**
 * @file
 * Host-clock span recorder of the benchmark.
 *
 * Every call the benchmark makes into the drive (submit*, trimVector,
 * planFor, advanceTo / waitAll) and every piece of the benchmark's own
 * work that runs inside the drive (onOutcome callbacks, result sinks)
 * is wrapped in a span: kind, start, end, parent span and drive
 * RequestId. Spans stay in memory; self times (a span minus the part
 * of it its children cover) are summed per kind at the end of a rep,
 * and one rep's spans can be written as Chrome trace_event JSON that
 * loads in Perfetto next to the drive's own simulated-time trace.
 *
 * When the recorder is off, open() is a single branch and returns -1.
 */

#ifndef FCBENCH_SPANS_H
#define FCBENCH_SPANS_H

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace fcbench {

enum class SpanKind : std::uint8_t
{
    SubmitRead,    ///< submitReadVector
    SubmitWrite,   ///< submitWritePages (incl. overwrite trims)
    SubmitCompute, ///< submitRead(expr) / submitCompute
    Trim,          ///< trimVector
    Plan,          ///< planFor
    SimRun,        ///< advanceTo / waitAll
    Callback,      ///< the benchmark's onOutcome hooks
    Sink,          ///< the benchmark's result sink (per-page digests)
    kCount,
};

const char *spanKindName(SpanKind k);

inline std::int64_t
hostNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

class SpanRecorder
{
  public:
    struct Span
    {
        SpanKind kind;
        std::int32_t parent;
        std::int64_t start;
        std::int64_t end;
        std::uint64_t request;
    };

    explicit SpanRecorder(bool on) : on_(on) {}

    bool on() const { return on_; }

    /** Open a span nested in the innermost open one; -1 when off. */
    std::int32_t open(SpanKind kind)
    {
        if (!on_)
            return -1;
        const auto idx = static_cast<std::int32_t>(spans_.size());
        spans_.push_back(Span{kind, stack_.empty() ? -1 : stack_.back(),
                              hostNowNs(), 0, 0});
        stack_.push_back(idx);
        return idx;
    }

    void close(std::int32_t idx, std::uint64_t request = 0)
    {
        if (idx < 0)
            return;
        Span &s = spans_[static_cast<std::size_t>(idx)];
        s.end = hostNowNs();
        s.request = request;
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time per kind, and the summed length of top-level spans
     *  (what the timed section's wall time is compared against). */
    struct Totals
    {
        std::array<std::int64_t, static_cast<std::size_t>(SpanKind::kCount)>
            selfNs{};
        std::array<std::uint64_t, static_cast<std::size_t>(SpanKind::kCount)>
            count{};
        std::int64_t topLevelNs = 0;
    };
    Totals totals() const;

    /** Chrome trace_event JSON of the first @p max_spans spans, times
     *  relative to @p origin_ns. */
    std::string chromeJson(std::int64_t origin_ns,
                           std::size_t max_spans) const;

  private:
    bool on_;
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
};

/** RAII span; the request id may be attached before it closes. */
class SpanScope
{
  public:
    SpanScope(SpanRecorder &rec, SpanKind kind)
        : rec_(rec), idx_(rec.open(kind))
    {}
    ~SpanScope() { rec_.close(idx_, request_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    void setRequest(std::uint64_t id) { request_ = id; }

  private:
    SpanRecorder &rec_;
    std::int32_t idx_;
    std::uint64_t request_ = 0;
};

} // namespace fcbench

#endif // FCBENCH_SPANS_H
