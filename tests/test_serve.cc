/**
 * @file
 * Tests for the stack3d-serve stack: the spec JSON wire forms
 * (round-trip exact, digest-stable), the shared digest
 * implementation (pinned known values), the result cache (LRU,
 * byte-identical hits, disk tier), and the study service end to end
 * (cache hit on duplicate, schema rejection, strict parsing).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/digest.hh"
#include "common/fault.hh"
#include "common/json.hh"
#include "common/json_parse.hh"
#include "core/study_json.hh"
#include "serve/request.hh"
#include "serve/result_cache.hh"
#include "serve/server.hh"
#include "serve/service.hh"

using namespace stack3d;
using namespace stack3d::core;

namespace {

JsonValue
parsed(const std::string &text)
{
    JsonValue v;
    std::string error;
    EXPECT_TRUE(parseJson(text, v, error)) << error;
    return v;
}

} // anonymous namespace

// ---------------------------------------------------------------------
// shared digest implementation
// ---------------------------------------------------------------------

TEST(Digest, PinnedFnv1aVectors)
{
    // Standard 64-bit FNV-1a test vectors. If these move, every
    // cached result and provenance digest in existence is invalidated
    // — bump obs::kSchemaVersion if you change the scheme.
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ull);
}

TEST(Digest, FieldBoundariesMatter)
{
    Fnv1aDigest ab_c;
    ab_c.mix(std::string("ab"));
    ab_c.mix(std::string("c"));
    Fnv1aDigest a_bc;
    a_bc.mix(std::string("a"));
    a_bc.mix(std::string("bc"));
    EXPECT_NE(ab_c.value(), a_bc.value());
}

TEST(Digest, HexFormIsStable)
{
    EXPECT_EQ(digestHex(0x1234abcdull), "0x000000001234abcd");
}

// ---------------------------------------------------------------------
// spec JSON round-trips
// ---------------------------------------------------------------------

TEST(SpecJson, RunOptionsRoundTripExact)
{
    RunOptions a;
    a.threads = 6;
    a.seed = 18446744073709551557ull;   // > 2^53: needs exact u64
    a.depth = 0.1;                      // not representable exactly
    a.scale = 1.0 / 3.0;
    a.verbosity = Verbosity::Verbose;

    std::ostringstream os;
    JsonWriter w(os, true);
    writeRunOptionsJson(w, a);

    RunOptions b;
    std::string error;
    ASSERT_TRUE(parseRunOptions(parsed(os.str()), b, error)) << error;
    EXPECT_EQ(b.threads, a.threads);
    EXPECT_EQ(b.seed, a.seed);
    EXPECT_EQ(b.depth, a.depth);
    EXPECT_EQ(b.scale, a.scale);
    EXPECT_EQ(b.verbosity, a.verbosity);
}

TEST(SpecJson, MemorySpecRoundTripAndDigestStable)
{
    MemoryStudySpec a;
    a.benchmarks = {"gauss", "svd"};

    MemoryStudySpec b;
    std::string error;
    ASSERT_TRUE(
        parseMemoryStudySpec(parsed(canonicalSpecJson(a)), b, error))
        << error;
    EXPECT_EQ(b.benchmarks, a.benchmarks);
    EXPECT_EQ(canonicalSpecJson(b), canonicalSpecJson(a));
}

TEST(SpecJson, LogicSpecRoundTripAndDigestStable)
{
    LogicStudySpec a;
    a.suite.full_suite = true;
    a.suite.uops_per_trace = 123456789012345ull;
    a.die_nx = 33;
    a.die_ny = 31;
    a.use_measured_gain = false;

    LogicStudySpec b;
    std::string error;
    ASSERT_TRUE(
        parseLogicStudySpec(parsed(canonicalSpecJson(a)), b, error))
        << error;
    EXPECT_EQ(b.suite.full_suite, a.suite.full_suite);
    EXPECT_EQ(b.suite.uops_per_trace, a.suite.uops_per_trace);
    EXPECT_EQ(b.die_nx, a.die_nx);
    EXPECT_EQ(b.die_ny, a.die_ny);
    EXPECT_EQ(b.use_measured_gain, a.use_measured_gain);
    EXPECT_EQ(canonicalSpecJson(b), canonicalSpecJson(a));
}

TEST(SpecJson, ThermalSpecsRoundTripAndDigestStable)
{
    StackThermalSpec a;
    a.die_nx = 20;
    a.die_ny = 18;
    StackThermalSpec b;
    std::string error;
    ASSERT_TRUE(
        parseStackThermalSpec(parsed(canonicalSpecJson(a)), b, error))
        << error;
    EXPECT_EQ(b.die_nx, a.die_nx);
    EXPECT_EQ(b.die_ny, a.die_ny);
    EXPECT_EQ(canonicalSpecJson(b), canonicalSpecJson(a));

    SensitivitySpec c;
    c.conductivities = {60, 12.5, 3.0625};
    c.die_nx = 16;
    c.die_ny = 14;
    SensitivitySpec d;
    ASSERT_TRUE(
        parseSensitivitySpec(parsed(canonicalSpecJson(c)), d, error))
        << error;
    EXPECT_EQ(d.conductivities, c.conductivities);
    EXPECT_EQ(d.die_nx, c.die_nx);
    EXPECT_EQ(d.die_ny, c.die_ny);
    EXPECT_EQ(canonicalSpecJson(d), canonicalSpecJson(c));
}

TEST(SpecJson, SensitivityConductivitiesBounded)
{
    SensitivitySpec spec;
    std::string error;
    EXPECT_TRUE(parseSensitivitySpec(
        parsed("{\"conductivities\": [2000, 10000]}"), spec, error))
        << error;
    for (const char *bad : {"{\"conductivities\": [0]}",
                            "{\"conductivities\": [10001]}",
                            "{\"conductivities\": [60, 1e30]}"}) {
        error.clear();
        EXPECT_FALSE(parseSensitivitySpec(parsed(bad), spec, error))
            << bad;
        EXPECT_NE(error.find("conductivities"), std::string::npos)
            << error;
    }
}

TEST(SpecJson, MissingKeysKeepDefaults)
{
    MemoryStudySpec spec;
    std::string error;
    ASSERT_TRUE(parseMemoryStudySpec(
        parsed("{\"benchmarks\": [\"gauss\"]}"), spec, error))
        << error;
    EXPECT_EQ(spec.benchmarks,
              std::vector<std::string>{std::string("gauss")});

    LogicStudySpec logic;
    ASSERT_TRUE(parseLogicStudySpec(parsed("{\"die_nx\": 8}"), logic,
                                    error))
        << error;
    EXPECT_EQ(logic.die_nx, 8u);
    EXPECT_EQ(logic.die_ny, LogicStudySpec{}.die_ny);   // default
}

TEST(SpecJson, UnknownKeysRejected)
{
    StackThermalSpec spec;
    std::string error;
    EXPECT_FALSE(parseStackThermalSpec(
        parsed("{\"die_nx\": 20, \"die_nz\": 4}"), spec, error));
    EXPECT_NE(error.find("die_nz"), std::string::npos) << error;
}

TEST(SpecJson, TypeMismatchRejected)
{
    RunOptions opts;
    std::string error;
    EXPECT_FALSE(
        parseRunOptions(parsed("{\"threads\": \"four\"}"), opts,
                        error));
    EXPECT_NE(error.find("threads"), std::string::npos) << error;
}

// ---------------------------------------------------------------------
// request parsing + digests
// ---------------------------------------------------------------------

namespace {

const char *kThermalRequest =
    "{\"schema_version\": 2, \"study\": \"stack-thermal\", "
    "\"id\": \"r1\", \"options\": {\"seed\": 3}, "
    "\"spec\": {\"die_nx\": 14, \"die_ny\": 12}}";

} // anonymous namespace

TEST(Request, ParsesAndDigestIsReproducible)
{
    serve::Request a, b;
    std::string error;
    ASSERT_TRUE(serve::parseRequest(kThermalRequest, a, error))
        << error;
    ASSERT_TRUE(serve::parseRequest(kThermalRequest, b, error));
    EXPECT_EQ(a.kind, serve::StudyKind::StackThermal);
    EXPECT_EQ(a.id, "r1");
    EXPECT_EQ(a.options.seed, 3u);
    EXPECT_EQ(a.stack_thermal.die_nx, 14u);
    EXPECT_EQ(a.digest(), b.digest());
}

TEST(Request, DigestIgnoresThreadsVerbosityAndId)
{
    serve::Request base;
    std::string error;
    ASSERT_TRUE(serve::parseRequest(kThermalRequest, base, error));

    serve::Request variant;
    ASSERT_TRUE(serve::parseRequest(
        "{\"schema_version\": 2, \"study\": \"stack-thermal\", "
        "\"id\": \"other\", \"options\": {\"seed\": 3, \"threads\": 8,"
        " \"verbosity\": \"verbose\"}, "
        "\"spec\": {\"die_nx\": 14, \"die_ny\": 12}}",
        variant, error))
        << error;
    // The determinism guarantee makes results independent of threads
    // and verbosity, so they must not split the cache.
    EXPECT_EQ(variant.digest(), base.digest());

    serve::Request different;
    ASSERT_TRUE(serve::parseRequest(
        "{\"schema_version\": 2, \"study\": \"stack-thermal\", "
        "\"options\": {\"seed\": 4}, "
        "\"spec\": {\"die_nx\": 14, \"die_ny\": 12}}",
        different, error));
    EXPECT_NE(different.digest(), base.digest());
}

TEST(Request, SchemaVersionMismatchRejected)
{
    serve::Request req;
    std::string error;
    EXPECT_FALSE(serve::parseRequest(
        "{\"schema_version\": 1, \"study\": \"memory\"}", req,
        error));
    EXPECT_NE(error.find("schema_version"), std::string::npos)
        << error;

    EXPECT_FALSE(serve::parseRequest("{\"study\": \"memory\"}", req,
                                     error));
    EXPECT_NE(error.find("schema_version"), std::string::npos);
}

TEST(Request, MalformedAndUnknownRejected)
{
    serve::Request req;
    std::string error;
    EXPECT_FALSE(serve::parseRequest("{not json", req, error));
    EXPECT_FALSE(serve::parseRequest(
        "{\"schema_version\": 2, \"study\": \"quantum\"}", req,
        error));
    EXPECT_NE(error.find("quantum"), std::string::npos);
    EXPECT_FALSE(serve::parseRequest(
        "{\"schema_version\": 2, \"study\": \"memory\", "
        "\"extra\": 1}",
        req, error));
    EXPECT_NE(error.find("extra"), std::string::npos);
    // precond is not a run option: rejected like any unknown key.
    EXPECT_FALSE(serve::parseRequest(
        "{\"schema_version\": 2, \"study\": \"stack-thermal\", "
        "\"options\": {\"precond\": \"jacobi\"}}",
        req, error));
    EXPECT_NE(error.find("precond"), std::string::npos);
    // The issue engine and the power/V-f laws are fixed by the
    // paper's machine, not request values.
    EXPECT_FALSE(serve::parseRequest(
        "{\"schema_version\": 2, \"study\": \"memory\", "
        "\"spec\": {\"engine\": {\"window\": 64}}}",
        req, error));
    EXPECT_NE(error.find("'engine'"), std::string::npos) << error;
    EXPECT_FALSE(serve::parseRequest(
        "{\"schema_version\": 2, \"study\": \"logic\", "
        "\"spec\": {\"vf_model\": {\"perf_per_freq\": 0.8}}}",
        req, error));
    EXPECT_NE(error.find("'vf_model'"), std::string::npos) << error;
}

// ---------------------------------------------------------------------
// result cache
// ---------------------------------------------------------------------

TEST(ResultCache, HitReturnsByteIdenticalValue)
{
    serve::ResultCache cache(4);
    const std::string stored = "{\"x\":1.0000000000000002}";
    cache.put(7, stored);
    std::string out;
    ASSERT_TRUE(cache.tryGet(7, out));
    EXPECT_EQ(out, stored);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ResultCache, LruEvictsLeastRecentlyUsed)
{
    serve::ResultCache cache(2);
    cache.put(1, "one");
    cache.put(2, "two");
    std::string out;
    ASSERT_TRUE(cache.tryGet(1, out));   // 1 is now most recent
    cache.put(3, "three");               // evicts 2
    EXPECT_FALSE(cache.tryGet(2, out));
    EXPECT_TRUE(cache.tryGet(1, out));
    EXPECT_TRUE(cache.tryGet(3, out));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCache, CapacityZeroDisables)
{
    serve::ResultCache cache(0);
    cache.put(1, "one");
    std::string out;
    EXPECT_FALSE(cache.tryGet(1, out));
    EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCache, DiskTierSurvivesRestart)
{
    std::string dir =
        ::testing::TempDir() + "stack3d_serve_cache_test";
    {
        serve::ResultCache cache(4, dir);
        cache.put(42, "{\"answer\":42}");
        EXPECT_EQ(cache.stats().disk_writes, 1u);
    }
    serve::ResultCache fresh(4, dir);
    std::string out;
    ASSERT_TRUE(fresh.tryGet(42, out));
    EXPECT_EQ(out, "{\"answer\":42}");
    EXPECT_EQ(fresh.stats().disk_hits, 1u);
    std::remove((dir + "/" + digestHex(42).substr(2) + ".json")
                    .c_str());
}

// ---------------------------------------------------------------------
// study service end to end
// ---------------------------------------------------------------------

namespace {

serve::ServiceOptions
tinyServiceOptions()
{
    serve::ServiceOptions options;
    options.workers = 0;   // inline execution: deterministic tests
    options.cache_entries = 8;
    options.max_study_threads = 1;
    return options;
}

} // anonymous namespace

TEST(StudyService, DuplicateRequestHitsCacheByteIdentically)
{
    serve::StudyService service(tinyServiceOptions());
    serve::ServeResult cold = service.handle(kThermalRequest);
    ASSERT_EQ(cold.status, serve::ServeResult::Status::Ok)
        << cold.error;
    EXPECT_FALSE(cold.cached);
    ASSERT_FALSE(cold.report_json.empty());

    serve::ServeResult hit = service.handle(kThermalRequest);
    ASSERT_EQ(hit.status, serve::ServeResult::Status::Ok);
    EXPECT_TRUE(hit.cached);
    // The serve cache contract: a hit returns the byte-identical
    // report the cold run produced.
    EXPECT_EQ(hit.report_json, cold.report_json);
    EXPECT_EQ(hit.digest_hex, cold.digest_hex);

    obs::CounterSet counters = service.counters();
    EXPECT_EQ(counters.value("serve.requests"), 2.0);
    EXPECT_EQ(counters.value("serve.cache.hits"), 1.0);
    EXPECT_EQ(counters.value("serve.cache.misses"), 1.0);
}

TEST(StudyService, ReportIsValidJsonWithStudyMetaPayload)
{
    serve::StudyService service(tinyServiceOptions());
    serve::ServeResult result = service.handle(kThermalRequest);
    ASSERT_EQ(result.status, serve::ServeResult::Status::Ok);

    JsonValue report = parsed(result.report_json);
    const JsonValue *study = report.find("study");
    ASSERT_NE(study, nullptr);
    EXPECT_EQ(study->string, "stack-thermal");
    EXPECT_NE(report.find("meta"), nullptr);
    ASSERT_NE(report.find("payload"), nullptr);
    const JsonValue *opts = report.find("payload")->find("options");
    ASSERT_NE(opts, nullptr);
    EXPECT_EQ(opts->array.size(), 4u);

    // And the full response line is itself one valid JSON document.
    JsonValue line = parsed(result.line);
    EXPECT_NE(line.find("report"), nullptr);
}

TEST(StudyService, BadRequestsAreErrorsNotCrashes)
{
    serve::StudyService service(tinyServiceOptions());
    serve::ServeResult bad = service.handle("{\"schema_version\":1}");
    EXPECT_EQ(bad.status, serve::ServeResult::Status::Error);
    EXPECT_NE(bad.line.find("\"status\":\"error\""),
              std::string::npos);

    // A user-level failure inside the study (unknown benchmark)
    // surfaces as an error response, and the service keeps serving.
    serve::ServeResult fail = service.handle(
        "{\"schema_version\": 2, \"study\": \"memory\", "
        "\"spec\": {\"benchmarks\": [\"bogus\"]}}");
    EXPECT_EQ(fail.status, serve::ServeResult::Status::Error);

    // Each of these lines once reached a library assertion and
    // aborted the daemon.
    const char *aborting[] = {
        "{\"schema_version\": 2, \"study\": \"memory\", "
        "\"options\": {\"depth\": 0.01, \"scale\": 0.1}, "
        "\"spec\": {\"benchmarks\": [\"gauss\"], "
        "\"engine\": {\"window\": 0}}}",
        "{\"schema_version\": 2, \"study\": \"memory\", "
        "\"options\": {\"depth\": 0.01, \"scale\": 0.1}, "
        "\"spec\": {\"benchmarks\": [\"gauss\"], "
        "\"engine\": {\"warmup_fraction\": 1.0}}}",
        "{\"schema_version\": 2, \"study\": \"logic\", "
        "\"options\": {\"depth\": 0.01}, "
        "\"spec\": {\"die_nx\": 8, \"die_ny\": 6, "
        "\"suite\": {\"uops_per_trace\": 1000}, "
        "\"vf_model\": {\"freq_per_vcc\": 0}}}",
        "{\"schema_version\": 2, \"study\": \"sensitivity\", "
        "\"spec\": {\"conductivities\": [1e30], \"die_nx\": 4, "
        "\"die_ny\": 4}}",
    };
    for (const char *line : aborting) {
        serve::ServeResult r = service.handle(line);
        EXPECT_EQ(r.status, serve::ServeResult::Status::Error) << line;
    }

    serve::ServeResult ok = service.handle(kThermalRequest);
    EXPECT_EQ(ok.status, serve::ServeResult::Status::Ok) << ok.error;
}

// ---------------------------------------------------------------------
// disk-tier failure modes: every corruption degrades to a cold
// compute (a miss), never a crash or a wrong-bytes response
// ---------------------------------------------------------------------

namespace {

std::string
cacheEntryPath(const std::string &dir, std::uint64_t digest)
{
    return dir + "/" + digestHex(digest).substr(2) + ".json";
}

/** Fresh temp cache dir holding one valid entry for digest 42. */
std::string
seededCacheDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + name;
    {
        serve::ResultCache seeder(4, dir);
        seeder.put(42, "{\"answer\":42}");
    }
    return dir;
}

void
removeCacheDir(const std::string &dir)
{
    // Best effort; entries are the only files the tests create.
    std::remove(cacheEntryPath(dir, 42).c_str());
    std::remove((cacheEntryPath(dir, 42) + ".corrupt").c_str());
    ::rmdir(dir.c_str());
}

} // anonymous namespace

TEST(ResultCacheFailures, TruncatedEntryQuarantinedNotServed)
{
    std::string dir = seededCacheDir("s3d_cache_trunc");
    serve::ResultCache cache(4, dir);   // scrub sees a valid entry
    EXPECT_EQ(cache.stats().corrupt, 0u);

    // Crash mid-write aftermath: the entry loses its tail (payload
    // and part of the digest trailer).
    {
        std::ofstream os(cacheEntryPath(dir, 42),
                         std::ios::binary | std::ios::trunc);
        os << "{\"answer\":4";
    }
    std::string out;
    EXPECT_FALSE(cache.tryGet(42, out));
    EXPECT_EQ(cache.stats().corrupt, 1u);
    // The bad bytes were moved aside, not deleted silently.
    std::ifstream quarantined(cacheEntryPath(dir, 42) + ".corrupt");
    EXPECT_TRUE(quarantined.good());
    // The next lookup is a plain miss: nothing re-serves the file.
    EXPECT_FALSE(cache.tryGet(42, out));
    removeCacheDir(dir);
}

TEST(ResultCacheFailures, FlippedByteQuarantinedNotServed)
{
    std::string dir = seededCacheDir("s3d_cache_flip");
    serve::ResultCache cache(4, dir);

    std::string path = cacheEntryPath(dir, 42);
    std::string raw;
    {
        std::ifstream in(path, std::ios::binary);
        raw.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(raw.empty());
    raw[raw.size() / 3] ^= 0x01;   // single bit flip in the payload
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << raw;
    }
    std::string out;
    EXPECT_FALSE(cache.tryGet(42, out));
    EXPECT_EQ(cache.stats().corrupt, 1u);
    removeCacheDir(dir);
}

TEST(ResultCacheFailures, StartupScrubQuarantinesBadEntries)
{
    std::string dir = seededCacheDir("s3d_cache_scrub");
    {
        std::ofstream os(cacheEntryPath(dir, 42),
                         std::ios::binary | std::ios::trunc);
        os << "garbage with no trailer";
    }
    // Leftover tmp file from a crash mid-put: must be swept too.
    std::string tmp = cacheEntryPath(dir, 7) + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary);
        os << "half-";
    }
    serve::ResultCache cache(4, dir);
    EXPECT_EQ(cache.stats().scrubbed, 2u);
    EXPECT_EQ(cache.stats().corrupt, 1u);
    std::ifstream gone(tmp);
    EXPECT_FALSE(gone.good());
    std::string out;
    EXPECT_FALSE(cache.tryGet(42, out));
    removeCacheDir(dir);
}

TEST(ResultCacheFailures, UnwritableCacheDirDegradesToMemory)
{
    // The disk tier can never be created; puts must still succeed
    // in memory and lookups must not crash.
    serve::ResultCache cache(4, "/nonexistent-s3d/cache");
    cache.put(1, "{\"v\":1}");
    EXPECT_EQ(cache.stats().disk_writes, 0u);
    std::string out;
    EXPECT_TRUE(cache.tryGet(1, out));
    EXPECT_EQ(out, "{\"v\":1}");
    EXPECT_FALSE(cache.tryGet(2, out));
}

TEST(ResultCacheFailures, FaultInjectedWriteFailureDegradesToCold)
{
    std::string dir = ::testing::TempDir() + "s3d_cache_faultw";
    std::string error;
    ASSERT_TRUE(
        FaultRegistry::configure("serve.disk.write:1.0", 1, error))
        << error;
    {
        serve::ResultCache cache(4, dir);
        cache.put(42, "{\"answer\":42}");
        EXPECT_EQ(cache.stats().disk_writes, 0u);
        // The memory tier still serves within this process life.
        std::string out;
        EXPECT_TRUE(cache.tryGet(42, out));
    }
    FaultRegistry::reset();
    // After a restart nothing persisted: the lookup degrades to a
    // miss (a cold compute at the service layer), not a crash.
    serve::ResultCache fresh(4, dir);
    std::string out;
    EXPECT_FALSE(fresh.tryGet(42, out));
    removeCacheDir(dir);
}

// ---------------------------------------------------------------------
// deadlines, cancellation, fault-injected study failures
// ---------------------------------------------------------------------

TEST(Request, DeadlineParsesAndIsExcludedFromDigest)
{
    serve::Request plain, deadlined;
    std::string error;
    ASSERT_TRUE(serve::parseRequest(kThermalRequest, plain, error))
        << error;
    std::string with_deadline =
        "{\"schema_version\": 2, \"study\": \"stack-thermal\", "
        "\"id\": \"r1\", \"deadline_ms\": 250, "
        "\"options\": {\"seed\": 3}, "
        "\"spec\": {\"die_nx\": 14, \"die_ny\": 12}}";
    ASSERT_TRUE(
        serve::parseRequest(with_deadline, deadlined, error))
        << error;
    EXPECT_EQ(deadlined.deadline_ms, 250u);
    // QoS, not identity: the deadline must not split the cache.
    EXPECT_EQ(plain.digest(), deadlined.digest());
}

TEST(StudyService, DeadlineExpiryIsTimeoutAndFreesTheSlot)
{
    serve::StudyService service(tinyServiceOptions());
    // 1 ms cannot cover a cold stack-thermal run: the execution
    // observes its token at a checkpoint and stops.
    serve::ServeResult late = service.handle(
        "{\"schema_version\": 2, \"study\": \"stack-thermal\", "
        "\"deadline_ms\": 1, \"options\": {\"seed\": 3}, "
        "\"spec\": {\"die_nx\": 14, \"die_ny\": 12}}");
    EXPECT_EQ(late.status, serve::ServeResult::Status::Timeout);
    EXPECT_NE(late.line.find("\"status\":\"timeout\""),
              std::string::npos);

    obs::CounterSet counters = service.counters();
    EXPECT_EQ(counters.value("serve.timeouts"), 1.0);

    // The admission slot came back: the same service still serves.
    serve::ServeResult ok = service.handle(kThermalRequest);
    EXPECT_EQ(ok.status, serve::ServeResult::Status::Ok) << ok.error;
}

TEST(StudyService, GenerousDeadlineStillCompletes)
{
    serve::StudyService service(tinyServiceOptions());
    serve::ServeResult ok = service.handle(
        "{\"schema_version\": 2, \"study\": \"stack-thermal\", "
        "\"deadline_ms\": 600000, \"options\": {\"seed\": 3}, "
        "\"spec\": {\"die_nx\": 14, \"die_ny\": 12}}");
    EXPECT_EQ(ok.status, serve::ServeResult::Status::Ok) << ok.error;
}

TEST(StudyService, FaultInjectedCellFailureIsErrorNotCrash)
{
    std::string error;
    ASSERT_TRUE(
        FaultRegistry::configure("study.cell.fail:1.0", 1, error))
        << error;
    serve::StudyService service(tinyServiceOptions());
    serve::ServeResult fail = service.handle(kThermalRequest);
    FaultRegistry::reset();
    EXPECT_EQ(fail.status, serve::ServeResult::Status::Error);
    EXPECT_NE(fail.error.find("fault injected"), std::string::npos);

    // With the fault disarmed the service recovers on the spot.
    serve::ServeResult ok = service.handle(kThermalRequest);
    EXPECT_EQ(ok.status, serve::ServeResult::Status::Ok) << ok.error;
}

TEST(StudyService, RejectionCarriesRetryAfterHint)
{
    serve::ServiceOptions options = tinyServiceOptions();
    serve::StudyService service(options);
    // Inline mode never queues, so provoke the rejection through
    // drain: a draining service sheds everything new.
    service.drain();
    serve::ServeResult shed = service.handle(kThermalRequest);
    EXPECT_EQ(shed.status, serve::ServeResult::Status::Rejected);
    EXPECT_GT(shed.retry_after_ms, 0u);
    EXPECT_NE(shed.line.find("\"retry_after_ms\":"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// pipe transport: line caps and control-line classification
// ---------------------------------------------------------------------

TEST(PipeServer, OversizedLineGetsCleanErrorResponse)
{
    serve::ServiceOptions options = tinyServiceOptions();
    options.max_line_bytes = 256;
    serve::StudyService service(options);
    std::string big(options.max_line_bytes * 4, 'x');
    std::istringstream in(big + "\n" + std::string(kThermalRequest) +
                          "\n");
    std::ostringstream out;
    std::uint64_t handled = serve::runPipeServer(service, in, out);
    EXPECT_EQ(handled, 2u);
    // First response: the cap error. Second: the study still ran.
    std::string text = out.str();
    EXPECT_NE(text.find("exceeds the 256 byte cap"),
              std::string::npos);
    EXPECT_NE(text.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_EQ(service.counters().value("serve.line_overflows"), 1.0);
}

TEST(PipeServer, DeeplyNestedLineGetsErrorAndServingContinues)
{
    // 400 000 nested brackets fit under the default line cap but
    // would exhaust the stack of a parser that recursed on them.
    serve::ServiceOptions options = tinyServiceOptions();
    std::string deep(400000, '[');
    ASSERT_LT(deep.size(), options.max_line_bytes);
    serve::StudyService service(options);
    std::istringstream in(deep + "\n" + std::string(kThermalRequest) +
                          "\n");
    std::ostringstream out;
    std::uint64_t handled = serve::runPipeServer(service, in, out);
    EXPECT_EQ(handled, 2u);
    std::istringstream lines(out.str());
    std::string first, second;
    ASSERT_TRUE(std::getline(lines, first));
    ASSERT_TRUE(std::getline(lines, second));
    EXPECT_EQ(parsed(first).find("status")->string, "error");
    EXPECT_NE(first.find("nesting"), std::string::npos);
    EXPECT_EQ(parsed(second).find("status")->string, "ok");
}

// ---------------------------------------------------------------------
// telemetry: trace IDs, stats/health/flight ops, both transports
// ---------------------------------------------------------------------

TEST(StudyService, TraceIdIsEchoedAndExcludedFromDigest)
{
    serve::StudyService service(tinyServiceOptions());
    serve::ServeResult cold = service.handle(kThermalRequest);
    ASSERT_EQ(cold.status, serve::ServeResult::Status::Ok)
        << cold.error;
    EXPECT_FALSE(cold.trace_id.empty());   // generated when absent

    // Same spec plus a client trace_id: pure observability, so the
    // digest is unchanged and the result cache must hit.
    serve::ServeResult hit = service.handle(
        "{\"schema_version\": 2, \"study\": \"stack-thermal\", "
        "\"id\": \"r1\", \"trace_id\": \"t-client-7\", "
        "\"options\": {\"seed\": 3}, "
        "\"spec\": {\"die_nx\": 14, \"die_ny\": 12}}");
    EXPECT_EQ(hit.status, serve::ServeResult::Status::Ok) << hit.error;
    EXPECT_TRUE(hit.cached);
    EXPECT_EQ(hit.trace_id, "t-client-7");
    EXPECT_NE(hit.line.find("\"trace_id\":\"t-client-7\""),
              std::string::npos);
    EXPECT_EQ(service.counters().value("serve.cache.hits"), 1.0);
}

TEST(StudyService, StatsHealthFlightJsonShapes)
{
    serve::StudyService service(tinyServiceOptions());
    (void)service.handle(kThermalRequest);
    (void)service.handle(kThermalRequest);   // cache hit

    JsonValue stats = parsed(service.statsJson());
    EXPECT_EQ(stats.find("schema_version")->number, 2.0);
    EXPECT_EQ(stats.findPath("counters.serve.requests")->number, 2.0);
    EXPECT_EQ(stats.findPath("counters.serve.cache.hits")->number,
              1.0);
    // One cold sample and one hit sample landed in the instruments.
    const JsonValue *hist = stats.find("histograms");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(
        hist->findPath("serve.latency.cold_s.count")->number, 1.0);
    EXPECT_EQ(
        hist->findPath("serve.latency.hit_s.count")->number, 1.0);

    JsonValue health = parsed(service.healthJson());
    EXPECT_TRUE(health.findPath("health.ok")->boolean);
    EXPECT_FALSE(health.findPath("health.draining")->boolean);
    EXPECT_EQ(health.findPath("health.requests")->number, 2.0);

    JsonValue flight = parsed(service.flightJson());
    EXPECT_EQ(flight.findPath("flight.noted")->number, 2.0);
    const JsonValue *entries = flight.findPath("flight.entries");
    ASSERT_NE(entries, nullptr);
    ASSERT_EQ(entries->array.size(), 2u);
    EXPECT_FALSE(entries->array[0].find("cached")->boolean);
    EXPECT_TRUE(entries->array[1].find("cached")->boolean);
}

TEST(PipeServer, StatsHealthFlightOpsRoundTrip)
{
    serve::StudyService service(tinyServiceOptions());
    std::istringstream in(std::string(kThermalRequest) + "\n" +
                          "{\"op\": \"stats\"}\n"
                          "{\"op\": \"health\"}\n"
                          "{\"op\": \"flight\"}\n"
                          "{\"op\": \"stop\"}\n");
    std::ostringstream out;
    std::uint64_t handled = serve::runPipeServer(service, in, out);
    EXPECT_EQ(handled, 5u);

    // One response per line, each a complete JSON document.
    std::istringstream lines(out.str());
    std::string line;
    std::vector<JsonValue> responses;
    while (std::getline(lines, line))
        responses.push_back(parsed(line));
    ASSERT_EQ(responses.size(), 5u);
    EXPECT_EQ(responses[1].findPath("counters.serve.ok")->number, 1.0);
    EXPECT_NE(responses[1].find("histograms"), nullptr);
    EXPECT_TRUE(responses[2].findPath("health.ok")->boolean);
    EXPECT_EQ(responses[3].findPath("flight.noted")->number, 1.0);
    EXPECT_TRUE(responses[4].find("stopping")->boolean);
    // Op lines are control traffic, not requests.
    EXPECT_EQ(service.counters().value("serve.requests"), 1.0);
}

TEST(TcpServer, StatsAndHealthOverASocket)
{
    serve::StudyService service(tinyServiceOptions());
    std::atomic<unsigned> bound_port{0};
    std::thread server([&] {
        serve::runTcpServer(service, 0, 1, &bound_port);
    });
    // seq_cst: pairs with the server's publishing store.
    while (bound_port.load(std::memory_order_seq_cst) == 0)
        std::this_thread::yield();

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(std::uint16_t(
        bound_port.load(std::memory_order_seq_cst)));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    const std::string script = std::string(kThermalRequest) + "\n" +
                               "{\"op\": \"stats\"}\n"
                               "{\"op\": \"health\"}\n"
                               "{\"op\": \"stop\"}\n";
    ASSERT_EQ(::write(fd, script.data(), script.size()),
              ssize_t(script.size()));

    std::string reply;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0)
        reply.append(buf, std::size_t(n));
    ::close(fd);
    server.join();

    std::istringstream lines(reply);
    std::string line;
    std::vector<JsonValue> responses;
    while (std::getline(lines, line))
        responses.push_back(parsed(line));
    ASSERT_EQ(responses.size(), 4u);
    EXPECT_EQ(responses[0].find("status")->string, "ok");
    EXPECT_EQ(responses[1].findPath("counters.serve.requests")->number,
              1.0);
    EXPECT_TRUE(responses[2].findPath("health.ok")->boolean);
    EXPECT_TRUE(responses[3].find("stopping")->boolean);
}

TEST(PipeServer, TraceOpCapturesSpansToAFile)
{
    serve::StudyService service(tinyServiceOptions());
    const std::string path = "serve_trace_op_test.json";
    std::istringstream in("{\"op\": \"trace\", \"action\": \"start\"}\n" +
                          std::string(kThermalRequest) + "\n" +
                          "{\"op\": \"trace\", \"action\": \"stop\", "
                          "\"path\": \"" +
                          path + "\"}\n");
    std::ostringstream out;
    std::uint64_t handled = serve::runPipeServer(service, in, out);
    EXPECT_EQ(handled, 3u);
    EXPECT_NE(out.str().find("\"tracing\":true"), std::string::npos);
    EXPECT_NE(out.str().find("\"tracing\":false"), std::string::npos);

    std::ifstream trace(path);
    ASSERT_TRUE(trace.good());
    std::stringstream content;
    content << trace.rdbuf();
    // A Chrome trace with at least the request's serve span in it,
    // labeled with the request's trace id.
    JsonValue v = parsed(content.str());
    ASSERT_NE(v.find("traceEvents"), nullptr);
    EXPECT_NE(content.str().find("serve/stack-thermal"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(PipeServer, ControlLinesClassifiedOnTopLevelOpOnly)
{
    serve::StudyService service(tinyServiceOptions());
    // The id merely *contains* "op" (with embedded quotes, the old
    // substring pre-filter's worst case); it must route to the
    // service as a request, not be swallowed as a control line.
    std::istringstream in(
        "{\"schema_version\": 2, \"study\": \"stack-thermal\", "
        "\"id\": \"has \\\"op\\\" inside\", "
        "\"options\": {\"seed\": 3}, "
        "\"spec\": {\"die_nx\": 14, \"die_ny\": 12}}\n"
        "{ \"op\" : \"counters\" }\n"
        "{\"op\": \"flush\"}\n"
        "{\"op\": \"stop\"}\n");
    std::ostringstream out;
    std::uint64_t handled = serve::runPipeServer(service, in, out);
    EXPECT_EQ(handled, 4u);
    std::string text = out.str();
    EXPECT_NE(text.find("has \\\"op\\\" inside"), std::string::npos);
    EXPECT_NE(text.find("serve.requests"), std::string::npos);
    EXPECT_NE(text.find("unknown op 'flush'"), std::string::npos);
    EXPECT_NE(text.find("\"stopping\":true"), std::string::npos);
    EXPECT_EQ(service.counters().value("serve.ok"), 1.0);
}
