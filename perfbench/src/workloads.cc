#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <limits>
#include <memory>

#include "core/drive.h"
#include "obs/obs.h"
#include "oracle.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/units.h"

namespace fcbench {
namespace {

using fcos::Rng;
using fcos::Time;
using fcos::core::Expr;
using fcos::core::VectorId;
using fcos::ssd::EnergyComponent;
using Drive = fcos::core::FlashCosmosDrive;
using Outcome = fcos::engine::RequestQueue::Outcome;

// FNV-1a: the rep digest folds every stream digest in submission order.
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/** Benchmark request classes: plain vector reads, writes (appends and
 *  overwrites) and in-flash compute (streamed MWS reads of an
 *  expression, or fcCompute into a stored vector). */
enum class Cls : std::uint8_t
{
    Read,
    Write,
    Compute,
};
constexpr std::size_t kClasses = 3;

double
secondsSince(std::int64_t t0_ns)
{
    return static_cast<double>(hostNowNs() - t0_ns) / 1e9;
}

/** Nearest-rank quantile of @p v (sorted in place); 0 when empty. */
Time
quantile(std::vector<Time> &v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    return v[static_cast<std::size_t>(static_cast<double>(v.size() - 1) * q)];
}

struct Record
{
    Cls cls = Cls::Read;
    bool done = false;
    /** Vectors this request reads; their reader counts drop at
     *  completion (the generator never trims a vector being read). */
    std::uint8_t nReading = 0;
    std::array<VectorId, 3> reading{};
    Time due = 0;
    Time admitted = 0;
    Time completed = 0;
    /** Streamed reads: expected content and page count (null expect:
     *  the request returns no bytes). */
    ContentRef expect;
    std::uint64_t pages = 0;
    std::uint64_t digest = 0;
    std::uint64_t delivered = 0;
};

/** Result sink of one read: stream digest + delivered page count. */
class RecordSink final : public fcos::core::ResultSink
{
  public:
    RecordSink(SpanRecorder &spans, Record &rec) : spans_(spans), rec_(rec)
    {}

    void consume(const fcos::core::ResultChunk &chunk) override
    {
        SpanScope s(spans_, SpanKind::Sink);
        digest_.add(chunk.index, chunk.page, chunk.bits);
        ++rec_.delivered;
    }

    void end() override { rec_.digest = digest_.value(); }

  private:
    SpanRecorder &spans_;
    Record &rec_;
    StreamDigest digest_;
};

/** Drive counters, sampled at both ends of the timed section. */
struct Counters
{
    Time now = 0;
    Drive::GcTotals gc;
    std::array<double, static_cast<std::size_t>(EnergyComponent::kCount)>
        energy{};
    double energyTotal = 0.0;
    std::uint64_t dieOps = 0;
    std::uint64_t dma = 0;
    std::uint64_t senses = 0;
    Time dieBusy = 0;
    Time channelBusy = 0;
    // obs registry (traced reps only)
    std::uint64_t events = 0;
    std::uint64_t bypass = 0;
    std::uint64_t waves = 0;
    std::uint64_t poolBusyNs = 0;
    std::uint64_t poolWallNs = 0;
};

std::unique_ptr<fcos::obs::ScopedCapture>
captureFor(const RepParams &p)
{
    if (!p.spans)
        return nullptr;
    return std::make_unique<fcos::obs::ScopedCapture>(false, true);
}

/**
 * The benchmark's client of one drive: every call into the drive goes
 * through here, so it is timed (spans), its request recorded (class,
 * due time, lifecycle, returned stream digest) and the logical content
 * of every vector tracked for the oracle.
 */
class Client
{
  public:
    using Then = std::function<void()>;

    Client(const Drive::Config &cfg, const RepParams &p)
        : params_(p), capture_(captureFor(p)), drive_(cfg),
          oracle_(cfg.geometry.pageBits()),
          page_bytes_(cfg.geometry.pageBytes), channels_(cfg.channels),
          columns_(cfg.channels * cfg.dies * cfg.geometry.planesPerDie)
    {}

    Drive &drive() { return drive_; }
    std::uint32_t columns() const { return columns_; }

    std::uint32_t readers(VectorId v) const
    {
        return v < vecs_.size() ? vecs_[v].readers : 0;
    }

    /** Write @p pages fresh random pages (due 0: now). */
    VectorId write(std::uint64_t pages, const Drive::WriteOptions &wo,
                   Time due = 0, Then then = {})
    {
        const std::uint64_t seed_base = Rng::mix(params_.seed, write_seq_++);
        const std::size_t idx = newRecord(Cls::Write, due);
        if (wo.replaces != Drive::kNoVector)
            dropContent(wo.replaces);
        Drive::Submitted sub;
        {
            SpanScope s(spans_, SpanKind::SubmitWrite);
            sub = drive_.submitWritePages(
                [seed_base](std::uint64_t j) {
                    return randomPage(seed_base, j);
                },
                pages, wo, options(idx, std::move(then)));
            s.setRequest(sub.request);
        }
        VecState &v = vec(sub.vector);
        v.content = randomContent(seed_base);
        v.pages = pages;
        return sub.vector;
    }

    /** Plain read of a stored vector. */
    void read(VectorId id, Time due = 0, Then then = {})
    {
        const std::size_t idx = newRecord(Cls::Read, due);
        Record &r = records_[idx];
        r.expect = vec(id).content;
        r.pages = vec(id).pages;
        hold(r, id);
        RecordSink &sink = sinks_.emplace_back(spans_, r);
        SpanScope s(spans_, SpanKind::SubmitRead);
        s.setRequest(drive_.submitReadVector(id, sink, &stats_,
                                             options(idx, std::move(then))));
    }

    /** In-flash compute streamed back to the host (MWS fc_read). */
    void readExpr(const Expr &e, Time due = 0, Then then = {})
    {
        plan(e);
        const std::size_t idx = newRecord(Cls::Compute, due);
        Record &r = records_[idx];
        r.expect = snapshot(e, r);
        RecordSink &sink = sinks_.emplace_back(spans_, r);
        SpanScope s(spans_, SpanKind::SubmitCompute);
        s.setRequest(drive_.submitRead(e, sink, &stats_,
                                       options(idx, std::move(then))));
    }

    /** In-flash compute persisted into a new vector (fcCompute). */
    VectorId compute(const Expr &e, const Drive::WriteOptions &wo,
                     Time due = 0, Then then = {})
    {
        plan(e);
        const std::size_t idx = newRecord(Cls::Compute, due);
        Record &r = records_[idx];
        ContentRef content = snapshot(e, r);
        const std::uint64_t pages = r.pages;
        r.pages = 0; // returns no bytes; a later read checks them
        Drive::Submitted sub;
        {
            SpanScope s(spans_, SpanKind::SubmitCompute);
            sub = drive_.submitCompute(e, wo, &stats_,
                                       options(idx, std::move(then)));
            s.setRequest(sub.request);
        }
        VecState &v = vec(sub.vector);
        v.content = std::move(content);
        v.pages = pages;
        return sub.vector;
    }

    void trim(VectorId id)
    {
        dropContent(id);
        SpanScope s(spans_, SpanKind::Trim);
        drive_.trimVector(id);
    }

    void advanceTo(Time t)
    {
        SpanScope s(spans_, SpanKind::SimRun);
        drive_.advanceTo(t);
    }

    void waitAll()
    {
        SpanScope s(spans_, SpanKind::SimRun);
        drive_.waitAll();
    }

    /** Set-up is over (preload drained): start the timed section. */
    void beginTimed(std::int64_t setup_start_ns, Rep &rep)
    {
        fcos_assert(drive_.admission().idle(), "preload still in flight");
        sinks_.clear();
        records_.clear();
        spans_ = SpanRecorder(params_.spans != nullptr);
        rep.setupS = secondsSince(setup_start_ns);
        before_ = sample();
        free_min_ = std::numeric_limits<std::uint64_t>::max();
        sampleFtl();
        timed_start_ns_ = hostNowNs();
    }

    /** The generator has drained: close the timed section. */
    void endTimed(Rep &rep)
    {
        const std::int64_t end_ns = hostNowNs();
        rep.timedS = static_cast<double>(end_ns - timed_start_ns_) / 1e9;
        fcos_assert(drive_.admission().idle(), "timed section left work");
        sampleFtl();
        const Counters after = sample();
        summarize(after, end_ns - timed_start_ns_, rep);
        if (params_.spans)
            *params_.spans = std::move(spans_);
    }

    /** After the timed section: read every vector of @p ids back, one
     *  at a time; check() verifies them with the timed requests. */
    void audit(const std::vector<VectorId> &ids, Rep &rep)
    {
        for (VectorId id : ids) {
            read(id);
            waitAll();
        }
        rep.attempted += ids.size();
    }

    /** Oracle check of every timed request (outside the timed
     *  section): a request is ok when it completed and, if it returns
     *  bytes, every page arrived and the stream matches the oracle. */
    void check(Rep &rep)
    {
        const std::int64_t t0 = hostNowNs();
        std::uint64_t ok = 0;
        std::uint64_t reported = 0;
        for (std::size_t i = 0; i < records_.size(); ++i) {
            const Record &r = records_[i];
            if (!r.done)
                continue;
            if (!r.expect || (r.delivered == r.pages &&
                              oracle_.expectedDigest(*r.expect, r.pages) ==
                                  r.digest)) {
                ++ok;
            } else if (reported++ < 5) {
                std::fprintf(stderr,
                             "fcbench: oracle mismatch on request %zu "
                             "(class %d, %llu/%llu pages)\n",
                             i, static_cast<int>(r.cls),
                             static_cast<unsigned long long>(r.delivered),
                             static_cast<unsigned long long>(r.pages));
            }
        }
        oracle_.clear();
        rep.ok = ok;
        rep.checkS = secondsSince(t0);
        rep.layer["bench.check_ns_per_req"] =
            rep.checkS * 1e9 / static_cast<double>(rep.attempted);
    }

  private:
    struct VecState
    {
        ContentRef content;
        std::uint64_t pages = 0;
        std::uint32_t readers = 0;
    };

    VecState &vec(VectorId id)
    {
        if (id >= vecs_.size())
            vecs_.resize(id + 1);
        return vecs_[id];
    }

    void dropContent(VectorId id)
    {
        fcos_assert(readers(id) == 0,
                    "benchmark trimmed vector %u under a reader", id);
        vec(id).content.reset();
    }

    std::size_t newRecord(Cls cls, Time due)
    {
        const Time now = drive_.now();
        if (due != 0 && due < now)
            ++late_;
        Record &r = records_.emplace_back();
        r.cls = cls;
        r.due = due != 0 ? due : now;
        return records_.size() - 1;
    }

    void hold(Record &r, VectorId id)
    {
        fcos_assert(r.nReading < r.reading.size(), "too many operands");
        r.reading[r.nReading++] = id;
        ++vec(id).readers;
    }

    /** Content of @p e over its leaves' current contents; the request
     *  holds the leaves as a reader. */
    ContentRef snapshot(const Expr &e, Record &r)
    {
        std::map<VectorId, ContentRef> leaves;
        for (VectorId id : e.leafIds()) {
            leaves.emplace(id, vec(id).content);
            r.pages = vec(id).pages;
            hold(r, id);
        }
        return exprContent(e, std::move(leaves));
    }

    void plan(const Expr &e)
    {
        SpanScope s(spans_, SpanKind::Plan);
        if (drive_.planFor(e).kind == fcos::core::MwsPlan::Kind::Fallback)
            fcos_fatal("benchmark expression %s has no in-flash plan",
                       e.toString().c_str());
    }

    Drive::RequestOptions options(std::size_t idx, Then then)
    {
        Drive::RequestOptions ro;
        ro.arrival = records_[idx].due;
        ro.onOutcome = [this, idx, then = std::move(then)](const Outcome &oc) {
            SpanScope s(spans_, SpanKind::Callback);
            Record &r = records_[idx];
            r.done = true;
            r.admitted = oc.admitted;
            r.completed = oc.completed;
            for (std::uint8_t i = 0; i < r.nReading; ++i)
                --vecs_[r.reading[i]].readers;
            if ((++completed_ & 63) == 0)
                sampleFtl();
            if (then)
                then();
        };
        return ro;
    }

    void sampleFtl()
    {
        const fcos::ssd::Ftl &ftl = drive_.ftl();
        for (std::uint32_t col = 0; col < ftl.columns(); ++col)
            free_min_ = std::min(free_min_, ftl.freeBlocks(col));
    }

    Counters sample()
    {
        Counters c;
        c.now = drive_.now();
        c.gc = drive_.gcTotals();
        const fcos::ssd::EnergyMeter &e = drive_.engine().energy();
        for (std::size_t k = 0; k < c.energy.size(); ++k)
            c.energy[k] = e.get(static_cast<EnergyComponent>(k));
        c.energyTotal = drive_.engine().totalEnergyJ();
        const fcos::engine::CommandScheduler &sched =
            drive_.engine().scheduler();
        c.dieOps = sched.dieOpsExecuted();
        c.dma = sched.dmaTransfers();
        for (std::uint32_t d = 0; d < drive_.dieCount(); ++d) {
            c.senses += drive_.chip(d).senseCount();
            c.dieBusy += sched.dieBusyTime(d);
        }
        for (std::uint32_t ch = 0; ch < channels_; ++ch)
            c.channelBusy += sched.channelBusyTime(ch);
        if (capture_) {
            fcos::obs::Registry &m = fcos::obs::metrics();
            c.events = m.counter("sim.queue.events_executed").value();
            c.bypass = m.counter("sim.queue.heap_bypass_hits").value();
            c.waves = m.counter("sim.queue.waves").value();
            c.poolWallNs = m.counter("host.pool.wall_ns").value();
            for (std::uint32_t t = 0; t < sched.workerCount(); ++t)
                c.poolBusyNs +=
                    m.counter("host.pool.lane" + std::to_string(t) +
                              ".busy_ns")
                        .value();
        }
        return c;
    }

    void summarize(const Counters &a, std::int64_t wall_ns, Rep &rep)
    {
        const Counters &b = before_;
        std::vector<Time> lat[kClasses];
        std::vector<Time> wait;
        std::vector<Time> service;
        std::uint64_t result_pages = 0;
        std::uint64_t digest = kFnvOffset;
        for (const Record &r : records_) {
            ++rep.attempted;
            if (!r.done)
                continue;
            ++rep.completed;
            lat[static_cast<std::size_t>(r.cls)].push_back(r.completed -
                                                           r.due);
            wait.push_back(r.admitted - r.due);
            service.push_back(r.completed - r.admitted);
            result_pages += r.delivered;
            if (r.expect) {
                digest ^= r.digest;
                digest *= kFnvPrime;
            }
        }
        const double n = static_cast<double>(std::max<std::uint64_t>(
            rep.completed, 1));
        const double sim_s = static_cast<double>(a.now - b.now) / 1e9;
        const std::uint64_t host_written =
            a.gc.hostPagesWritten - b.gc.hostPagesWritten;
        const std::uint64_t copies = a.gc.pageCopies - b.gc.pageCopies;
        rep.hostPages = host_written + copies + result_pages;
        rep.digest = digest;

        auto us = [](Time t) { return fcos::timeToUs(t); };
        auto &sim = rep.sim;
        sim["sim_result_gbps"] = static_cast<double>(result_pages) *
                                 page_bytes_ / sim_s / 1e9;
        sim["sim_req_per_s"] = static_cast<double>(rep.completed) / sim_s;
        sim["sim_read_p50_us"] = us(quantile(lat[0], 0.50));
        sim["sim_read_p99_us"] = us(quantile(lat[0], 0.99));
        sim["sim_write_p99_us"] = us(quantile(lat[1], 0.99));
        sim["sim_compute_p99_us"] = us(quantile(lat[2], 0.99));
        sim["sim_energy_uj_per_req"] =
            (a.energyTotal - b.energyTotal) / n * 1e6;
        sim["write_amplification"] =
            1.0 + static_cast<double>(copies) /
                      static_cast<double>(
                          std::max<std::uint64_t>(host_written, 1));

        auto &l = rep.layer;
        for (std::size_t c = 0; c < kClasses; ++c)
            l[std::string("bench.samples.") +
              (c == 0 ? "read" : c == 1 ? "write" : "compute")] =
                static_cast<double>(lat[c].size());
        l["engine.admission_wait_p99_us"] = us(quantile(wait, 0.99));
        l["engine.service_p99_us"] = us(quantile(service, 0.99));
        l["engine.die_ops_per_req"] =
            static_cast<double>(a.dieOps - b.dieOps) / n;
        l["engine.dma_per_req"] = static_cast<double>(a.dma - b.dma) / n;
        l["engine.die_busy_frac"] =
            static_cast<double>(a.dieBusy - b.dieBusy) /
            (static_cast<double>(a.now - b.now) * drive_.dieCount());
        l["engine.channel_busy_frac"] =
            static_cast<double>(a.channelBusy - b.channelBusy) /
            (static_cast<double>(a.now - b.now) * channels_);
        l["engine.stream_peak_pages"] =
            static_cast<double>(stats_.streamPeakPages);
        l["ssd.gc_runs_per_kreq"] =
            static_cast<double>(a.gc.runs - b.gc.runs) / n * 1e3;
        l["ssd.gc_copies_per_kreq"] = static_cast<double>(copies) / n * 1e3;
        l["ssd.erases_per_kreq"] =
            static_cast<double>(a.gc.blocksErased - b.gc.blocksErased) / n *
            1e3;
        l["ssd.free_blocks_min"] = static_cast<double>(free_min_);
        l["nand.senses_per_req"] =
            static_cast<double>(a.senses - b.senses) / n;
        l["nand.result_pages_per_req"] =
            static_cast<double>(result_pages) / n;
        const std::pair<const char *, EnergyComponent> comps[] = {
            {"read", EnergyComponent::NandRead},
            {"program", EnergyComponent::NandProgram},
            {"erase", EnergyComponent::NandErase},
            {"mws", EnergyComponent::NandMws}};
        for (const auto &[name, comp] : comps) {
            const auto k = static_cast<std::size_t>(comp);
            l[std::string("nand.energy_uj_per_req.") + name] =
                (a.energy[k] - b.energy[k]) / n * 1e6;
        }
        l["bench.late_arrival_frac"] = static_cast<double>(late_) / n;

        if (capture_) {
            const double events = static_cast<double>(a.events - b.events);
            l["sim.events"] = events;
            l["sim.events_per_req"] = events / n;
            l["sim.waves_per_req"] =
                static_cast<double>(a.waves - b.waves) / n;
            l["sim.heap_bypass_frac"] =
                static_cast<double>(a.bypass - b.bypass) /
                std::max(events, 1.0);
            fcos::obs::Registry &m = fcos::obs::metrics();
            l["sim.wave_size_p50"] = static_cast<double>(
                m.histogram("sim.queue.wave_size").quantile(0.5));
            l["engine.inflight_peak"] =
                m.gauge("engine.admission.inflight_peak").max();
            const double lanes =
                drive_.engine().scheduler().workerCount();
            const double pool_wall =
                static_cast<double>(a.poolWallNs - b.poolWallNs);
            l["sim.pool_busy_frac"] =
                pool_wall > 0.0
                    ? static_cast<double>(a.poolBusyNs - b.poolBusyNs) /
                          (lanes * pool_wall)
                    : 0.0;
        }

        if (spans_.on()) {
            const SpanRecorder::Totals t = spans_.totals();
            auto self = [&t](SpanKind k) {
                return static_cast<double>(
                    t.selfNs[static_cast<std::size_t>(k)]);
            };
            auto calls = [&t](SpanKind k) {
                return static_cast<double>(std::max<std::uint64_t>(
                    t.count[static_cast<std::size_t>(k)], 1));
            };
            const double submits =
                calls(SpanKind::SubmitRead) + calls(SpanKind::SubmitWrite) +
                calls(SpanKind::SubmitCompute);
            l["core.submit_ns_per_req"] =
                (self(SpanKind::SubmitRead) + self(SpanKind::SubmitWrite) +
                 self(SpanKind::SubmitCompute)) /
                submits;
            l["core.submit_ns.read"] =
                self(SpanKind::SubmitRead) / calls(SpanKind::SubmitRead);
            l["core.submit_ns.write"] =
                self(SpanKind::SubmitWrite) / calls(SpanKind::SubmitWrite);
            l["core.submit_ns.compute"] = self(SpanKind::SubmitCompute) /
                                          calls(SpanKind::SubmitCompute);
            l["core.trim_ns_per_call"] =
                self(SpanKind::Trim) / calls(SpanKind::Trim);
            l["core.plan_ns_per_expr"] =
                self(SpanKind::Plan) / calls(SpanKind::Plan);
            l["sim.run_ns_per_req"] = self(SpanKind::SimRun) / n;
            l["bench.callback_ns_per_req"] = self(SpanKind::Callback) / n;
            l["bench.sink_ns_per_req"] = self(SpanKind::Sink) / n;
            l["bench.gen_ns_per_req"] =
                static_cast<double>(wall_ns - t.topLevelNs) / n;
            if (capture_)
                l["sim.ns_per_event"] =
                    self(SpanKind::SimRun) / std::max(l["sim.events"], 1.0);
            // Self-time shares of the timed section: spans + the
            // generator's own remainder account for all of it.
            for (std::size_t k = 0; k < t.selfNs.size(); ++k)
                l[std::string("share.") +
                  spanKindName(static_cast<SpanKind>(k))] =
                    static_cast<double>(t.selfNs[k]) /
                    static_cast<double>(wall_ns);
            l["share.bench.gen"] =
                static_cast<double>(wall_ns - t.topLevelNs) /
                static_cast<double>(wall_ns);
        }
    }

    const RepParams &params_;
    std::unique_ptr<fcos::obs::ScopedCapture> capture_;
    Drive drive_;
    Oracle oracle_;
    SpanRecorder spans_{false};
    std::uint64_t page_bytes_;
    std::uint32_t channels_;
    std::uint32_t columns_;
    std::uint64_t write_seq_ = 0;
    std::deque<Record> records_;
    std::deque<RecordSink> sinks_;
    std::vector<VecState> vecs_;
    Drive::ReadStats stats_;
    Counters before_;
    std::int64_t timed_start_ns_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t late_ = 0;
    std::uint64_t free_min_ = 0;
};

// ---------------------------------------------------------------------
// bulk_mws: the paper's operation at Table-1 scale
// ---------------------------------------------------------------------

constexpr std::uint32_t kBulkIterations = 8;
constexpr std::uint64_t kBulkPages = 256;
constexpr std::uint64_t kBulkRequestsPerIteration = 6;

Rep
runBulk(const RepParams &p)
{
    Drive::Config cfg;
    cfg.channels = 8;
    cfg.dies = 8;
    cfg.geometry = fcos::nand::Geometry::table1();
    cfg.workers = p.workers;

    Rep rep;
    const std::int64_t t0 = hostNowNs();
    Client c(cfg, p);
    c.beginTimed(t0, rep);
    if (p.setupOnly)
        return rep;
    Rng rng(Rng::mix(p.seed, 0xb0c5));
    for (std::uint32_t k = 0; k < kBulkIterations; ++k) {
        // 256-page operands (2 per plane column) at a seeded home
        // column, one request at a time: ESP-write a, b and the third
        // operand `inv` (stored inverted), stream AND(a, b, inv) and
        // OR(NOT a, inv) — one MWS each, the OR by De Morgan over the
        // inverted operand — and read `inv` back.
        Drive::WriteOptions wo;
        wo.group = k + 1;
        wo.homeColumn =
            static_cast<std::uint32_t>(rng.nextBounded(c.columns()));
        const VectorId a = c.write(kBulkPages, wo);
        c.waitAll();
        const VectorId b = c.write(kBulkPages, wo);
        c.waitAll();
        wo.storeInverted = true;
        const VectorId inv = c.write(kBulkPages, wo);
        c.waitAll();
        c.readExpr(
            Expr::And({Expr::leaf(a), Expr::leaf(b), Expr::leaf(inv)}));
        c.waitAll();
        c.readExpr(Expr::Or({~Expr::leaf(a), Expr::leaf(inv)}));
        c.waitAll();
        c.read(inv);
        c.waitAll();
        c.trim(a);
        c.trim(b);
        c.trim(inv);
    }
    c.endTimed(rep);
    c.check(rep);
    return rep;
}

// ---------------------------------------------------------------------
// serve_gc: closed-loop serving with live-page relocation
// ---------------------------------------------------------------------

constexpr std::uint64_t kServeOps = 40000;
constexpr std::uint32_t kServeChains = 8;

Rep
runServe(const RepParams &p)
{
    Drive::Config cfg;
    cfg.channels = 2;
    cfg.dies = 2;
    cfg.workers = p.workers;

    Rep rep;
    const std::int64_t t0 = hostNowNs();
    Client c(cfg, p);
    const std::uint32_t cols = c.columns();
    const auto home = [cols](std::uint64_t g) {
        return static_cast<std::uint32_t>((g * 3) % cols);
    };
    const auto slotHome = [cols](std::uint64_t s) {
        return static_cast<std::uint32_t>((s * 5 + 1) % cols);
    };
    constexpr std::uint32_t kPoolGroups = 4;
    constexpr std::uint32_t kSlots = 16;
    constexpr std::uint32_t kResidents = 40;
    constexpr std::uint64_t kChurnGroupBase = 1000;
    constexpr std::uint64_t kResidentGroup = 999;

    // Working set (as the soak tier's closed loop): a stable pool of
    // compute operand pairs, single-page churn slots, and one packed
    // group of one-row resident vectors that keeps the drive about
    // two-thirds full; residents are overwritten out of phase, so GC
    // must relocate live pages.
    std::vector<VectorId> pool;
    for (std::uint32_t g = 0; g < kPoolGroups; ++g) {
        for (int v = 0; v < 2; ++v) {
            Drive::WriteOptions wo;
            wo.group = g + 1;
            wo.homeColumn = home(g);
            pool.push_back(c.write(1, wo));
        }
    }
    std::vector<VectorId> slot(kSlots);
    for (std::uint32_t s = 0; s < kSlots; ++s) {
        Drive::WriteOptions wo;
        wo.group = kChurnGroupBase + s;
        wo.homeColumn = slotHome(s);
        slot[s] = c.write(1, wo);
    }
    std::vector<VectorId> resident(kResidents);
    for (std::uint32_t r = 0; r < kResidents; ++r) {
        Drive::WriteOptions wo;
        wo.group = kResidentGroup;
        wo.homeColumn = 2 % cols;
        resident[r] = c.write(cols, wo);
    }
    c.waitAll();
    c.beginTimed(t0, rep);
    if (p.setupOnly)
        return rep;

    struct Chain
    {
        std::uint64_t next = 0;
        VectorId computed = Drive::kNoVector;
    };
    std::vector<Chain> chains;
    for (std::uint32_t ch = 0; ch < kServeChains; ++ch)
        chains.push_back(Chain{ch});
    std::uint64_t sweep = 0;

    // First slot from @p s on that no in-flight request reads.
    const auto freeSlot = [&](std::uint32_t s) -> std::int64_t {
        for (std::uint32_t i = 0; i < kSlots; ++i) {
            const std::uint32_t t = (s + i) % kSlots;
            if (c.readers(slot[t]) == 0)
                return t;
        }
        return -1;
    };

    // Chain ch serves ops ch, ch + chains, ...: a 6:3:1 mix of reads,
    // overwrites/trims and computes in the soak tier's fixed rotation
    // (op n has class slot n % 10 and touches churn slot (7n + ch) %
    // 16), so at most about one resident overwrite is in flight and
    // every slot dies at a steady pace. (A seeded random mix runs the
    // tiny drive out of space: FTL relocation never merges partly dead
    // sub-blocks.) The schedule is therefore the same for every seed;
    // the seed sets the data every write stores. A compute reads its
    // result back (a further read request) before the chain moves on.
    std::function<void(std::uint32_t)> step = [&](std::uint32_t ch) {
        Chain &k = chains[ch];
        if (k.next >= kServeOps)
            return;
        const std::uint64_t n = k.next;
        k.next += kServeChains;
        const Client::Then then = [&step, ch] { step(ch); };
        const std::uint64_t sel = n % 10;
        const auto s = static_cast<std::uint32_t>((n * 7 + ch) % kSlots);
        const std::int64_t free_slot =
            (sel == 3 || sel == 5) ? freeSlot(s) : 0;
        if (sel == 8) {
            c.read(pool[(n / 10 + ch) % pool.size()], 0, then);
        } else if ((sel == 3 || sel == 5) && free_slot >= 0) {
            const auto t = static_cast<std::uint32_t>(free_slot);
            Drive::WriteOptions wo;
            wo.group = kChurnGroupBase + t;
            wo.homeColumn = slotHome(t);
            if (sel == 5)
                c.trim(slot[t]); // explicit trim, then append
            else
                wo.replaces = slot[t]; // overwrite in one call
            slot[t] = c.write(1, wo, 0, then);
        } else if (sel == 9) {
            const auto r = static_cast<std::uint32_t>(sweep++ % kResidents);
            Drive::WriteOptions wo;
            wo.group = kResidentGroup;
            wo.homeColumn = 2 % cols;
            wo.replaces = resident[r];
            resident[r] = c.write(cols, wo, 0, then);
        } else if (sel == 7) {
            const std::uint64_t g = (n + ch) % kPoolGroups;
            Drive::WriteOptions wo;
            wo.homeColumn = home(g);
            k.computed = c.compute(
                Expr::leaf(pool[2 * g]) & Expr::leaf(pool[2 * g + 1]), wo, 0,
                [&c, &chains, then, ch] {
                    c.read(chains[ch].computed, 0, [&c, &chains, then, ch] {
                        c.trim(chains[ch].computed);
                        chains[ch].computed = Drive::kNoVector;
                        then();
                    });
                });
        } else {
            c.read(slot[s], 0, then);
        }
    };
    for (std::uint32_t ch = 0; ch < kServeChains; ++ch)
        step(ch);
    c.waitAll();
    c.endTimed(rep);
    // Residents are never read under load (a reader pins its blocks
    // against GC, and the tiny drive has no room for that), so every
    // live vector is read back once after the timed section instead:
    // the bytes GC relocated are checked too.
    std::vector<VectorId> live = pool;
    live.insert(live.end(), slot.begin(), slot.end());
    live.insert(live.end(), resident.begin(), resident.end());
    c.audit(live, rep);
    c.check(rep);
    return rep;
}

// ---------------------------------------------------------------------
// open_mixed: open-loop arrivals under weighted-fair admission
// ---------------------------------------------------------------------

constexpr std::uint64_t kOpenArrivals = 60000;
constexpr double kOpenGapUs = 400.0;

Rep
runOpen(const RepParams &p)
{
    Drive::Config cfg;
    cfg.channels = 2;
    cfg.dies = 2;
    cfg.workers = p.workers;
    cfg.qosReadWeight = 4;
    cfg.qosWriteWeight = 2;
    cfg.qosComputeWeight = 1;

    Rep rep;
    const std::int64_t t0 = hostNowNs();
    Client c(cfg, p);
    const std::uint32_t cols = c.columns();
    constexpr std::uint32_t kSlots = 16;
    constexpr std::uint32_t kGroups = 4;
    constexpr std::uint64_t kOperandPages = 4;
    constexpr std::uint64_t kChurnGroupBase = 1000;
    const auto slotHome = [cols](std::uint64_t s) {
        return static_cast<std::uint32_t>((s * 5 + 1) % cols);
    };

    // Churn slots (single pages, overwritten whole) and stable operand
    // groups of three 4-page vectors, the third stored inverted.
    std::vector<VectorId> slot(kSlots);
    for (std::uint32_t s = 0; s < kSlots; ++s) {
        Drive::WriteOptions wo;
        wo.group = kChurnGroupBase + s;
        wo.homeColumn = slotHome(s);
        slot[s] = c.write(1, wo);
    }
    std::vector<std::array<VectorId, 3>> operand(kGroups);
    for (std::uint32_t g = 0; g < kGroups; ++g) {
        Drive::WriteOptions wo;
        wo.group = g + 1;
        wo.homeColumn = (g * 3) % cols;
        for (int v = 0; v < 3; ++v) {
            wo.storeInverted = v == 2;
            operand[g][v] = c.write(kOperandPages, wo);
        }
    }
    c.waitAll();
    c.beginTimed(t0, rep);
    if (p.setupOnly)
        return rep;

    // Poisson arrivals (mean gap kOpenGapUs), a 5:3:2 mix of reads,
    // slot overwrites and streamed AND3 compute reads. Arrivals are
    // submitted ahead of the clock in batches of 16 (staged on the
    // engine clock), then the clock advances to the batch's last one.
    Rng rng(Rng::mix(p.seed, 0x0be1));
    Time due = c.drive().now();
    for (std::uint64_t i = 0; i < kOpenArrivals; ++i) {
        const double u = rng.nextDouble();
        due += fcos::usToTime(-std::log1p(-u) * kOpenGapUs) + 1;
        const std::uint64_t sel = rng.nextBounded(10);
        const auto s = static_cast<std::uint32_t>(rng.nextBounded(kSlots));
        const auto g = static_cast<std::uint32_t>(rng.nextBounded(kGroups));
        std::int64_t t = -1;
        if (sel >= 5 && sel < 8) {
            for (std::uint32_t j = 0; j < kSlots && t < 0; ++j)
                if (c.readers(slot[(s + j) % kSlots]) == 0)
                    t = (s + j) % kSlots;
        }
        if (sel < 3 || (sel >= 5 && sel < 8 && t < 0)) {
            c.read(slot[s], due);
        } else if (sel < 5) {
            c.read(operand[g][sel - 3], due);
        } else if (sel < 8) {
            const auto ts = static_cast<std::uint32_t>(t);
            Drive::WriteOptions wo;
            wo.group = kChurnGroupBase + ts;
            wo.homeColumn = slotHome(ts);
            wo.replaces = slot[ts];
            slot[ts] = c.write(1, wo, due);
        } else {
            c.readExpr(Expr::And({Expr::leaf(operand[g][0]),
                                  Expr::leaf(operand[g][1]),
                                  Expr::leaf(operand[g][2])}),
                       due);
        }
        if ((i & 15) == 15)
            c.advanceTo(due);
    }
    c.waitAll();
    c.endTimed(rep);
    std::vector<VectorId> live = slot;
    for (const auto &ops : operand)
        live.insert(live.end(), ops.begin(), ops.end());
    c.audit(live, rep);
    c.check(rep);
    return rep;
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"bulk_mws", kBulkIterations * kBulkRequestsPerIteration, runBulk, 2},
        {"serve_gc", kServeOps + kServeOps / 10, runServe, 0},
        {"open_mixed", kOpenArrivals, runOpen, 0},
    };
    return all;
}

} // namespace fcbench
