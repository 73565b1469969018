/**
 * @file
 * The serve-mix workload: an in-process StudyService with default
 * options, driven open loop on a seeded schedule.
 *
 * Traffic (rates are offered load, below saturation):
 *  - hits: the hot set (two requests of each study kind, computed
 *    during set-up) at kHitRate, with a small share of invalid lines
 *    (malformed JSON, an unknown key, a wrong schema_version);
 *  - cold: unique-seed small requests at kColdRate, cycling through
 *    stack-thermal, sensitivity, 1-kernel memory and low-depth logic;
 *  - bursts: kBurstSize identical cold requests due at one instant,
 *    which the service coalesces.
 *
 * One sender thread carries hits and invalid lines; kColdSenders
 * threads carry cold requests and bursts, so a hit never waits
 * behind a cold request inside the generator. Every latency is
 * timed from the request's due time.
 */

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <ctime>
#include <exception>
#include <iterator>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>

#include "core/study_json.hh"
#include "serve/request.hh"
#include "serve/result_cache.hh"
#include "serve/service.hh"
#include "workloads.hh"

namespace perfbench {

using namespace stack3d;

namespace {

constexpr double kHitRate = 200.0;       ///< hits + invalid, per second
constexpr unsigned kInvalidEvery = 100;  ///< one invalid line per 100
constexpr double kColdRate = 4.0;        ///< unique cold requests/s
constexpr double kBurstRate = 0.1;       ///< bursts per second
constexpr unsigned kBurstSize = 3;
constexpr unsigned kColdSenders = 3;
/** Senders spin for the last stretch before a due time. */
constexpr double kSpinWindow = 0.002;
/** Cold requests the traced run recomputes directly. */
constexpr std::size_t kTracedColdSample = 16;
/** Repetitions of each microsecond-scale call in the traced run. */
constexpr unsigned kMicroReps = 200;

std::string
requestLine(const std::string &study, const std::string &id,
            const std::string &options, const std::string &spec)
{
    return "{\"schema_version\": 2, \"study\": \"" + study +
           "\", \"id\": \"" + id + "\", \"options\": " + options +
           ", \"spec\": " + spec + "}";
}

std::string
seedOptions(std::uint64_t seed, const std::string &extra = "")
{
    return "{\"seed\": " + std::to_string(seed) + extra + "}";
}

// Cold request shapes, sized so each kind costs ~100-200 ms of one
// worker: a cold median that falls between two kinds' costs would
// jump from run to run.
const char *const kMemoryExtra = ", \"depth\": 0.02, \"scale\": 0.5";
const char *const kLogicExtra = ", \"depth\": 0.005";
const char *const kLogicSpec = "{\"die_nx\": 8, \"die_ny\": 6}";
const char *const kStackSpec = "{\"die_nx\": 20, \"die_ny\": 18}";
const char *const kSensSpec =
    "{\"conductivities\": [60, 12], \"die_nx\": 16, \"die_ny\": 14}";
/** 1-kernel memory requests cycle through these mid-cost kernels. */
const char *const kColdKernels[] = {"conj", "sMVM", "svm"};

/** The hot set: two fixed requests per study kind. */
std::vector<std::string>
hotSet()
{
    return {
        requestLine("memory", "hot-mem-smvm", seedOptions(101, kMemoryExtra),
                    "{\"benchmarks\": [\"sMVM\"]}"),
        requestLine("memory", "hot-mem-svm", seedOptions(102, kMemoryExtra),
                    "{\"benchmarks\": [\"svm\"]}"),
        requestLine("logic", "hot-logic-101", seedOptions(101, kLogicExtra),
                    kLogicSpec),
        requestLine("logic", "hot-logic-102", seedOptions(102, kLogicExtra),
                    "{\"die_nx\": 12, \"die_ny\": 10}"),
        requestLine("stack-thermal", "hot-stack-20", seedOptions(101),
                    kStackSpec),
        requestLine("stack-thermal", "hot-stack-14", seedOptions(102),
                    "{\"die_nx\": 14, \"die_ny\": 12}"),
        requestLine("sensitivity", "hot-sens-60", seedOptions(101),
                    kSensSpec),
        requestLine("sensitivity", "hot-sens-40", seedOptions(102),
                    "{\"conductivities\": [40, 6], \"die_nx\": 12, "
                    "\"die_ny\": 10}"),
    };
}
/** Hot-set indices whose payload a seed-free cold kind reproduces. */
constexpr std::size_t kHotStackTwin = 4;
constexpr std::size_t kHotSensTwin = 6;

/** Invalid lines of ordinary size; each must come back "error". */
const std::vector<std::string> kInvalidLines = {
    "{\"schema_version\": 2, \"study\": \"stack-thermal\", \"spec\": "
    "{\"die_nx\": 14,",
    "{\"schema_version\": 2, \"study\": \"stack-thermal\", \"spec\": "
    "{\"die_nx\": 14, \"die_ny\": 12}, \"colour\": \"blue\"}",
    "{\"schema_version\": 1, \"study\": \"stack-thermal\", \"spec\": "
    "{\"die_nx\": 14, \"die_ny\": 12}}",
};

enum class Kind { Hit, Invalid, Cold };

/** One scheduled request. */
struct Planned
{
    double due = 0.0;     ///< seconds after the phase start
    Kind kind = Kind::Hit;
    std::string line;
    /** Hot-set twin (hits; seed-free cold kinds), or -1. */
    int twin = -1;
    /** Burst number (cold bursts), or -1. */
    int burst = -1;
};

/** What one request got back, and when. */
struct Outcome
{
    double due = 0.0;     ///< absolute monotonic seconds
    double sent = 0.0;
    double done = 0.0;
    serve::ServeResult result;
};

/** Jittered-uniform arrival times: n requests over the horizon. */
std::vector<double>
arrivals(std::mt19937_64 &rng, double rate, double horizon)
{
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::vector<double> t;
    std::size_t n = std::size_t(rate * horizon);
    for (std::size_t i = 0; i < n; ++i)
        t.push_back((double(i) + u(rng)) / rate);
    return t;
}

struct Schedule
{
    std::vector<Planned> hits;   ///< hits + invalid lines, by due
    std::vector<Planned> cold;   ///< cold + bursts, by due
};

Schedule
makeSchedule(std::uint64_t seed, double horizon,
             const std::vector<std::string> &hot)
{
    std::mt19937_64 rng(0x5e17e5eedull ^ seed);
    Schedule s;

    std::uniform_int_distribution<std::size_t> pick_hot(0, hot.size() - 1);
    std::uniform_int_distribution<unsigned> invalid_offset(
        0, kInvalidEvery - 1);
    const unsigned offset = invalid_offset(rng);
    std::size_t invalid_n = 0;
    std::vector<double> hit_t = arrivals(rng, kHitRate, horizon);
    for (std::size_t i = 0; i < hit_t.size(); ++i) {
        Planned p;
        p.due = hit_t[i];
        if (i % kInvalidEvery == offset) {
            p.kind = Kind::Invalid;
            p.line = kInvalidLines[invalid_n++ % kInvalidLines.size()];
        } else {
            p.kind = Kind::Hit;
            p.twin = int(pick_hot(rng));
            p.line = hot[std::size_t(p.twin)];
        }
        s.hits.push_back(std::move(p));
    }

    // Cold seeds are unique within the run, and disjoint from the
    // hot set's.
    std::uint64_t next_seed = 1000000 + (seed % 1000000) * 1000;
    std::vector<double> cold_t = arrivals(rng, kColdRate, horizon);
    for (std::size_t i = 0; i < cold_t.size(); ++i) {
        Planned p;
        p.due = cold_t[i];
        p.kind = Kind::Cold;
        std::uint64_t cs = next_seed++;
        std::string id = "cold-" + std::to_string(i);
        switch (i % 4) {
          case 0:
            p.line = requestLine("stack-thermal", id, seedOptions(cs),
                                 kStackSpec);
            p.twin = int(kHotStackTwin);
            break;
          case 1:
            p.line = requestLine("sensitivity", id, seedOptions(cs),
                                 kSensSpec);
            p.twin = int(kHotSensTwin);
            break;
          case 2:
            p.line = requestLine(
                "memory", id, seedOptions(cs, kMemoryExtra),
                std::string("{\"benchmarks\": [\"") +
                    kColdKernels[(i / 4) % std::size(kColdKernels)] +
                    "\"]}");
            break;
          default:
            p.line = requestLine("logic", id,
                                 seedOptions(cs, kLogicExtra),
                                 kLogicSpec);
            break;
        }
        s.cold.push_back(std::move(p));
    }
    std::vector<double> burst_t = arrivals(rng, kBurstRate, horizon);
    for (std::size_t b = 0; b < burst_t.size(); ++b) {
        std::uint64_t cs = next_seed++;
        std::string id = "burst-" + std::to_string(b);
        std::string line =
            b % 2 == 0
                ? requestLine("logic", id, seedOptions(cs, kLogicExtra),
                              kLogicSpec)
                : requestLine("memory", id, seedOptions(cs, kMemoryExtra),
                              "{\"benchmarks\": [\"sMVM\"]}");
        for (unsigned k = 0; k < kBurstSize; ++k) {
            Planned p;
            p.due = burst_t[b];
            p.kind = Kind::Cold;
            p.line = line;
            p.burst = int(b);
            s.cold.push_back(p);
        }
    }
    std::stable_sort(s.cold.begin(), s.cold.end(),
                     [](const Planned &a, const Planned &b) {
                         return a.due < b.due;
                     });
    return s;
}

/** CPU time of the calling thread, seconds. */
double
threadCpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/**
 * Wait until monotonic time @p t: sleep until kSpinWindow before it,
 * then spin. A sleeping vCPU can take milliseconds to wake on a
 * shared host, which would show up as generator lateness.
 * @return CPU seconds the spin used (generator overhead). Timed on
 *         the thread's CPU clock, so a spin that is preempted is
 *         charged only for the CPU it really burned.
 */
double
waitUntil(double t)
{
    const double wake = t - kSpinWindow;
    if (monotonicNow() < wake) {
        timespec ts{};
        ts.tv_sec = time_t(wake);
        ts.tv_nsec = long((wake - double(ts.tv_sec)) * 1e9);
        while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts,
                               nullptr) == EINTR) {
        }
    }
    const double cpu_start = threadCpuNow();
    while (monotonicNow() < t) {
    }
    return threadCpuNow() - cpu_start;
}

Outcome
send(serve::StudyService &svc, const Planned &p, double start,
     double &spin_s)
{
    Outcome o;
    o.due = start + p.due;
    spin_s += waitUntil(o.due);
    o.sent = monotonicNow();
    o.result = svc.handle(p.line);
    o.done = monotonicNow();
    return o;
}

/** The "payload" member of a serialized report (its last key). */
std::string
payloadOf(const std::string &report_json)
{
    const std::string key = "\"payload\":";
    std::size_t at = report_json.rfind(key);
    if (at == std::string::npos || report_json.empty())
        return std::string();
    return report_json.substr(at + key.size(),
                              report_json.size() - 1 - at - key.size());
}

/**
 * Runs the schedule open loop; fills outcomes in schedule order.
 * @return the senders' total spin CPU time.
 */
double
drive(serve::StudyService &svc, const Schedule &s,
      std::vector<Outcome> &hits, std::vector<Outcome> &cold)
{
    hits.resize(s.hits.size());
    cold.resize(s.cold.size());
    const double start = monotonicNow() + 0.05;
    std::atomic<std::size_t> next_cold{0};
    std::mutex error_mutex;
    std::exception_ptr error;   // first sender failure, rethrown below
    double spin_total = 0.0;    // guarded by error_mutex
    // Each sender sleeps with 1 ns timer slack so wake-ups land on the
    // spin window instead of the default 50 us later.
    auto sender = [&](auto &&loop) {
        return [&, loop] {
            prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
            double spin_s = 0.0;
            try {
                loop(spin_s);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(error_mutex);
            spin_total += spin_s;
        };
    };
    std::vector<std::jthread> senders;
    senders.emplace_back(sender([&](double &spin_s) {
        for (std::size_t i = 0; i < s.hits.size(); ++i)
            hits[i] = send(svc, s.hits[i], start, spin_s);
    }));
    for (unsigned t = 0; t < kColdSenders; ++t) {
        senders.emplace_back(sender([&](double &spin_s) {
            for (;;) {
                std::size_t i =
                    next_cold.fetch_add(1, std::memory_order_relaxed);
                if (i >= s.cold.size())
                    break;
                cold[i] = send(svc, s.cold[i], start, spin_s);
            }
        }));
    }
    for (std::jthread &t : senders)
        t.join();
    if (error)
        std::rethrow_exception(error);
    return spin_total;
}

struct Checked
{
    bool ok = false;
    std::string why;
};

/** Checks one outcome against its plan and the hot-set reports. */
Checked
checkOutcome(const Planned &p, const Outcome &o,
             const std::vector<std::string> &hot_reports)
{
    using Status = serve::ServeResult::Status;
    const serve::ServeResult &r = o.result;
    if (p.kind == Kind::Invalid) {
        if (r.status != Status::Error)
            return {false, "invalid line not answered with error"};
        return {true, ""};
    }
    if (r.status != Status::Ok)
        return {false, "request failed: " + r.error};
    if (p.kind == Kind::Hit) {
        const std::string &twin = hot_reports[std::size_t(p.twin)];
        bool same = r.cached ? r.report_json == twin
                             : payloadOf(r.report_json) == payloadOf(twin);
        if (!same)
            return {false, "hit differs from its cold twin"};
        return {true, ""};
    }
    if (payloadOf(r.report_json).empty())
        return {false, "cold response has no payload"};
    if (p.twin >= 0 && payloadOf(r.report_json) !=
                           payloadOf(hot_reports[std::size_t(p.twin)]))
        return {false, "seed-free cold payload differs from its twin"};
    return {true, ""};
}

/** The serve-side cost of recomputing one request directly. */
struct DirectCost
{
    double study_s = 0.0;
    double serialize_s = 0.0;
    std::string payload;
};

template <typename Report, typename WritePayload>
DirectCost
serializeLike(const char *study, const Report &report, double study_s,
              WritePayload &&write_payload)
{
    // The same envelope StudyService::execute writes.
    DirectCost c;
    c.study_s = study_s;
    double t0 = monotonicNow();
    std::ostringstream os;
    JsonWriter w(os, /*compact=*/true);
    w.beginObject();
    w.key("study").value(study);
    w.key("meta").beginObject();
    core::writeMetaJson(w, report.meta);
    w.endObject();
    w.key("payload");
    write_payload(w, report.payload);
    w.endObject();
    std::string json = os.str();
    c.serialize_s = monotonicNow() - t0;
    c.payload = payloadOf(json);
    return c;
}

/** Run a parsed request's study directly, as the service would. */
DirectCost
directStudy(const serve::Request &req, const serve::ServiceOptions &so)
{
    core::RunOptions opts = req.options;
    if (so.max_study_threads != 0 &&
        (opts.threads == 0 || opts.threads > so.max_study_threads))
        opts.threads = so.max_study_threads;
    opts.verbosity = core::Verbosity::Silent;
    double t0 = monotonicNow();
    switch (req.kind) {
      case serve::StudyKind::Memory: {
        auto r = core::runMemoryStudy(opts, req.memory);
        return serializeLike("memory", r, monotonicNow() - t0,
                             core::writeMemoryStudyResultJson);
      }
      case serve::StudyKind::Logic: {
        auto r = core::runLogicStudy(opts, req.logic);
        return serializeLike("logic", r, monotonicNow() - t0,
                             core::writeLogicStudyResultJson);
      }
      case serve::StudyKind::StackThermal: {
        auto r = core::runStackThermalStudy(opts, req.stack_thermal);
        return serializeLike("stack-thermal", r, monotonicNow() - t0,
                             core::writeStackThermalResultJson);
      }
      case serve::StudyKind::Sensitivity:
        break;
    }
    auto r = core::runConductivitySensitivity(opts, req.sensitivity);
    return serializeLike("sensitivity", r, monotonicNow() - t0,
                         core::writeSensitivityResultJson);
}

/** Mean seconds of one call of fn, over kMicroReps calls per input. */
template <typename F>
double
perCall(LayerClock &clock, const std::string &metric, std::size_t inputs,
        F &&fn)
{
    for (unsigned rep = 0; rep < kMicroReps; ++rep) {
        for (std::size_t i = 0; i < inputs; ++i)
            clock.time("serve", metric, [&] { fn(i); });
    }
    return clock.metric(metric) / double(kMicroReps * inputs);
}

/**
 * The traced composition: per-stage costs of the request path from
 * direct calls (parse, digest, cache lookup, study, serialize), and a
 * direct recomputation of sampled cold requests that must reproduce
 * the service's payloads.
 */
LayerMetrics
tracedServe(const std::vector<std::string> &hot,
            const std::vector<std::string> &hot_reports,
            const Schedule &s, const std::vector<Outcome> &cold,
            const serve::ServiceOptions &so, DriverResult &out)
{
    LayerClock clock;
    LayerMetrics m;
    const double t0 = monotonicNow();

    std::vector<serve::Request> parsed(hot.size());
    std::string error;
    m["serve.parse_us"] =
        1e6 * perCall(clock, "serve.parse", hot.size(), [&](std::size_t i) {
            (void)serve::parseRequest(hot[i], parsed[i], error);
        });
    m["serve.parse_invalid_us"] =
        1e6 * perCall(clock, "serve.parse_invalid", kInvalidLines.size(),
                      [&](std::size_t i) {
                          serve::Request r;
                          out.check(!serve::parseRequest(kInvalidLines[i],
                                                         r, error),
                                    "invalid line parsed as valid");
                      });
    std::vector<std::uint64_t> digests(hot.size());
    m["serve.digest_us"] =
        1e6 * perCall(clock, "serve.digest", hot.size(),
                      [&](std::size_t i) { digests[i] = parsed[i].digest(); });
    serve::ResultCache cache(so.cache_entries);
    for (std::size_t i = 0; i < hot.size(); ++i)
        cache.put(digests[i], hot_reports[i]);
    std::string got;
    m["serve.cache_get_us"] =
        1e6 * perCall(clock, "serve.cache_get", hot.size(),
                      [&](std::size_t i) {
                          out.check(cache.tryGet(digests[i], got) &&
                                        got == hot_reports[i],
                                    "result cache lost a hot entry");
                      });

    // Sampled cold requests (not bursts), recomputed directly.
    std::vector<double> overhead_s, serialize_s;
    double direct_total = 0.0, service_total = 0.0;
    std::size_t sampled = 0;
    for (std::size_t i = 0; i < s.cold.size() && sampled < kTracedColdSample;
         ++i) {
        if (s.cold[i].burst >= 0)
            continue;
        ++sampled;
        serve::Request req;
        bool ok = clock.time("serve", "serve.parse", [&] {
            return serve::parseRequest(s.cold[i].line, req, error);
        });
        out.check(ok, "cold request does not parse");
        if (!ok)
            continue;
        DirectCost c = directStudy(req, so);
        clock.charge("core", "core.direct_study_s", c.study_s);
        clock.charge("serve", "serve.serialize", c.serialize_s);
        out.check(c.payload == payloadOf(cold[i].result.report_json),
                  "direct recomputation of " + s.cold[i].line.substr(0, 60) +
                      " differs from the service's payload");
        const double service_s = cold[i].done - cold[i].sent;
        overhead_s.push_back(service_s - c.study_s);
        serialize_s.push_back(c.serialize_s);
        direct_total += c.study_s + c.serialize_s;
        service_total += service_s;
    }
    const double wall = monotonicNow() - t0;

    m["serve.serialize_ms"] = 1e3 * median(serialize_s);
    m["serve.cold_overhead_ms"] = 1e3 * median(overhead_s);
    m["bench.traced_coverage"] = clock.totalSelf() / wall;
    m["bench.trace_overhead_frac"] =
        service_total > 0.0 ? direct_total / service_total - 1.0 : 0.0;
    m["core.serial_s"] = clock.metric("core.direct_study_s");
    return m;
}

} // anonymous namespace

void
runServeMix(const Args &args, const ReadyFn &ready, DriverResult &out)
{
    const serve::ServiceOptions so;
    serve::StudyService svc(so);
    const std::vector<std::string> hot = hotSet();
    // Pre-warm from two client threads, one per worker, so the two
    // memory requests (the largest of the mix) overlap here: the
    // process's peak RSS is then set during set-up, not by where two
    // memory requests happen to meet in the traffic.
    std::vector<serve::ServeResult> warm(hot.size());
    {
        std::jthread second([&] {
            for (std::size_t i = 1; i < hot.size(); i += 2)
                warm[i] = svc.handle(hot[i]);
        });
        for (std::size_t i = 0; i < hot.size(); i += 2)
            warm[i] = svc.handle(hot[i]);
        second.join();
    }
    std::vector<std::string> hot_reports;
    for (std::size_t i = 0; i < hot.size(); ++i) {
        out.check(warm[i].status == serve::ServeResult::Status::Ok,
                  "hot-set request failed: " + warm[i].error);
        hot_reports.push_back(warm[i].report_json);
        out.digests["hot/" + std::to_string(i)] =
            digestHex(fnv1a(payloadOf(warm[i].report_json)));
    }
    ready();
    if (args.setup_only)
        return;

    const Schedule sched =
        makeSchedule(args.seed, std::max(args.seconds, 1.0), hot);
    std::vector<Outcome> hits, cold;
    PhaseTimer timer;
    const double spin_s = drive(svc, sched, hits, cold);
    PhaseCost cost = timer.stop();
    // The generator's spin-waits are load-generator overhead, not
    // service work: leave their CPU time out of the phase's.
    cost.user_s -= spin_s;

    // The phase runs from the first due time to the last response.
    double first_due = 1e300, last_done = 0.0;
    for (const auto *list : {&hits, &cold}) {
        for (const Outcome &o : *list) {
            first_due = std::min(first_due, o.due);
            last_done = std::max(last_done, o.done);
        }
    }
    cost.wall_s = last_done - first_due;
    out.iterations.push_back(cost);

    auto record = [&](const Planned &p, const Outcome &o) {
        Checked c = checkOutcome(p, o, hot_reports);
        out.check(c.ok, c.why);
        const char *cls = p.kind == Kind::Hit       ? "hit"
                          : p.kind == Kind::Invalid ? "invalid"
                                                    : "cold";
        out.ops[cls].push_back({o.done - o.due, c.ok});
        out.latencies["late"].push_back(o.sent - o.due);
    };
    for (std::size_t i = 0; i < hits.size(); ++i)
        record(sched.hits[i], hits[i]);
    for (std::size_t i = 0; i < cold.size(); ++i)
        record(sched.cold[i], cold[i]);

    // Every member of a burst carries the same bytes.
    std::map<int, std::string> burst_reports;
    for (std::size_t i = 0; i < cold.size(); ++i) {
        if (sched.cold[i].burst < 0)
            continue;
        auto [it, first] = burst_reports.emplace(sched.cold[i].burst,
                                                 cold[i].result.report_json);
        if (!first)
            out.check(it->second == cold[i].result.report_json,
                      "burst members got different reports");
    }

    if (args.trace) {
        out.layers = tracedServe(hot, hot_reports, sched, cold, so, out);
        obs::CounterSet c = svc.counters();
        double hits_n = c.value("serve.cache.hits");
        double misses_n = c.value("serve.cache.misses");
        out.layers["serve.hit_ratio"] =
            hits_n + misses_n > 0.0 ? hits_n / (hits_n + misses_n) : 0.0;
        out.layers["serve.coalesced"] = c.value("serve.coalesced");
        out.layers["serve.rejected"] = c.value("serve.rejected");
        out.layers["serve.errors"] = c.value("serve.errors");
        addProcessMetrics(cost, out.layers);
    }
}

} // namespace perfbench
