#include "cli.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace stack3d {
namespace core {

namespace {

/** Fetch the value of a `--flag VALUE` pair, fatal()ing when absent. */
const char *
flagValue(int argc, char **argv, int &i, const char *flag)
{
    if (i + 1 >= argc)
        stack3d_fatal(flag, " requires a value");
    return argv[++i];
}

double
parseDoubleArg(const char *text, const char *flag)
{
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text, &end);
    if (errno != 0 || end == text || *end != '\0')
        stack3d_fatal(flag, " expects a number, got '", text, "'");
    return v;
}

std::uint64_t
parseSeedArg(const char *text, const char *flag)
{
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        stack3d_fatal(flag, " expects a non-negative integer, got '",
                      text, "'");
    return std::uint64_t(v);
}

const char *
verbosityName(Verbosity v)
{
    switch (v) {
      case Verbosity::Silent:
        return "silent";
      case Verbosity::Verbose:
        return "verbose";
      case Verbosity::Normal:
        break;
    }
    return "normal";
}

} // anonymous namespace

BenchCli::BenchCli(std::string tool) : _tool(std::move(tool)) {}

bool
BenchCli::consume(int argc, char **argv, int &i)
{
    const char *arg = argv[i];
    if (std::strcmp(arg, "--threads") == 0) {
        options.threads = parseThreadArg(
            flagValue(argc, argv, i, "--threads"), "--threads");
        return true;
    }
    if (std::strcmp(arg, "--seed") == 0) {
        options.seed =
            parseSeedArg(flagValue(argc, argv, i, "--seed"), "--seed");
        return true;
    }
    if (std::strcmp(arg, "--depth") == 0) {
        options.depth = parseDoubleArg(
            flagValue(argc, argv, i, "--depth"), "--depth");
        if (options.depth <= 0.0)
            stack3d_fatal("--depth must be positive");
        return true;
    }
    if (std::strcmp(arg, "--quiet") == 0) {
        options.verbosity = Verbosity::Silent;
        return true;
    }
    if (std::strcmp(arg, "--verbose") == 0) {
        options.verbosity = Verbosity::Verbose;
        return true;
    }
    if (std::strcmp(arg, "--trace-out") == 0) {
        _trace_out = flagValue(argc, argv, i, "--trace-out");
        return true;
    }
    if (std::strcmp(arg, "--stats-json") == 0) {
        _stats_json = flagValue(argc, argv, i, "--stats-json");
        return true;
    }
    return false;
}

void
BenchCli::printUsage(std::ostream &os)
{
    os << "  --threads N        worker threads (0 = all cores)\n"
       << "  --seed N           master RNG seed\n"
       << "  --depth F          workload-length multiplier\n"
       << "  --quiet            suppress progress and warnings\n"
       << "  --verbose          per-cell progress lines\n"
       << "  --trace-out FILE   write a Chrome trace-event JSON file\n"
       << "  --stats-json FILE  write manifest + counters + study "
          "metadata\n";
}

void
BenchCli::begin()
{
    if (_began)
        return;
    _began = true;
    if (quiet())
        detail::setQuiet(true);
    if (!_trace_out.empty())
        _collector.install();
}

ProgressSink *
BenchCli::progress()
{
    return verbose() ? &_console : nullptr;
}

void
BenchCli::recordMeta(const StudyMeta &meta)
{
    // Study counters carry distinct dotted prefixes, so an empty
    // merge prefix folds them into the run-wide set verbatim.
    _counters.mergePrefixed(meta.counters, "");
    _metas.push_back(meta);
}

void
BenchCli::addConfig(const std::string &key, const std::string &value)
{
    _config.emplace_back(key, value);
}

void
BenchCli::addConfig(const std::string &key, double value)
{
    obs::RunManifest tmp;
    tmp.addConfig(key, value);
    _config.emplace_back(tmp.config.back());
}

obs::RunManifest
BenchCli::manifest() const
{
    obs::RunManifest m = obs::makeManifest(_tool);
    m.seed = options.seed;
    m.threads = options.resolvedThreads();
    m.depth = options.depth;
    m.scale = options.scale;
    m.verbosity = verbosityName(options.verbosity);
    for (const auto &kv : _config)
        m.addConfig(kv.first, kv.second);
    return m;
}

void
BenchCli::writeJsonHeader(JsonWriter &w) const
{
    w.key("manifest");
    obs::writeManifestJson(w, manifest());
    w.key("counters");
    obs::writeCountersJson(w, _counters);
}

int
BenchCli::finish()
{
    if (_finished)
        return 0;
    _finished = true;

    if (_collector.installed())
        _collector.uninstall();

    int status = 0;
    if (!_trace_out.empty()) {
        std::ofstream os(_trace_out);
        if (!os) {
            warn("cannot open trace output '", _trace_out, "'");
            status = 1;
        } else {
            _collector.writeChromeJson(os);
            if (!quiet()) {
                inform("wrote ", _collector.eventCount(),
                       " trace events to ", _trace_out);
            }
        }
    }

    if (!_stats_json.empty()) {
        std::ofstream os(_stats_json);
        if (!os) {
            warn("cannot open stats output '", _stats_json, "'");
            status = 1;
        } else {
            JsonWriter w(os);
            w.beginObject();
            writeJsonHeader(w);
            w.key("studies").beginArray();
            for (const StudyMeta &meta : _metas) {
                w.beginObject();
                writeMetaJson(w, meta);
                w.endObject();
            }
            w.endArray();
            w.endObject();
            os << "\n";
        }
    }
    return status;
}

} // namespace core
} // namespace stack3d
