#include "run_options.hh"

#include <cstdio>
#include <cstdlib>

#include "common/digest.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "exec/pool.hh"

namespace stack3d {
namespace core {

// ---------------------------------------------------------------------
// RunOptions
// ---------------------------------------------------------------------

unsigned
RunOptions::resolvedThreads() const
{
    return threads == 0 ? exec::ThreadPool::hardwareThreads() : threads;
}

unsigned
RunOptions::poolThreads() const
{
    const unsigned workers = resolvedThreads();
    return workers > 1 ? workers : 0;
}

// ---------------------------------------------------------------------
// seeds
// ---------------------------------------------------------------------

std::uint64_t
deriveCellSeed(std::uint64_t seed, std::uint64_t cell_key)
{
    // splitmix64 over the combined state: equal (seed, key) pairs give
    // equal streams regardless of evaluation order or thread count.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (cell_key + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
cellKey(const std::string &name)
{
    return fnv1a(name);
}

unsigned
parseThreadArg(const char *text, const char *flag)
{
    char *end = nullptr;
    unsigned long value = std::strtoul(text, &end, 10);
    if (end == text || *end != '\0' || value > 4096)
        stack3d_fatal(flag,
                      " expects a thread count (0 = one per core), "
                      "got '", text, "'");
    return unsigned(value);
}

// ---------------------------------------------------------------------
// ConsoleProgressSink
// ---------------------------------------------------------------------

void
ConsoleProgressSink::studyStarted(const std::string &study,
                                  std::size_t num_cells)
{
    _study = study;
    _os << "[" << study << "] " << num_cells << " cells\n";
}

void
ConsoleProgressSink::cellFinished(const CellInfo &cell, double seconds,
                                  double fraction_done)
{
    char line[160];
    std::snprintf(line, sizeof(line),
                  "[%s %zu/%zu] %-24s %6.2fs  (%3.0f%%)\n",
                  _study.c_str(), cell.index + 1, cell.total,
                  cell.label.c_str(), seconds, fraction_done * 100.0);
    _os << line;
}

void
ConsoleProgressSink::studyFinished(const std::string &study,
                                   double wall_seconds)
{
    char line[120];
    std::snprintf(line, sizeof(line), "[%s] done in %.2fs\n",
                  study.c_str(), wall_seconds);
    _os << line;
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

void
writeMetaJson(JsonWriter &w, const StudyMeta &meta)
{
    // Degenerate timings (a zero-length run, a clock hiccup) must
    // never surface as inf/nan: JsonWriter would emit null, which
    // downstream tooling then has to special-case. Clamp instead.
    auto finite = [](double v) { return std::isfinite(v) ? v : 0.0; };

    w.key("study").value(meta.study);
    w.key("threads").value(meta.threads_used);
    w.key("wall_seconds").value(finite(meta.wall_seconds));
    w.key("serial_seconds").value(finite(meta.serial_seconds));
    w.key("speedup").value(meta.speedup());
    w.key("cells").beginArray();
    for (const CellTiming &cell : meta.cells) {
        w.beginObject();
        w.key("index").value(std::uint64_t(cell.index));
        w.key("label").value(cell.label);
        w.key("seconds").value(finite(cell.seconds));
        w.endObject();
    }
    w.endArray();
    w.key("warnings").beginArray();
    for (const std::string &warning : meta.warnings)
        w.value(warning);
    w.endArray();
}

// ---------------------------------------------------------------------
// StudyTracker
// ---------------------------------------------------------------------

StudyTracker::StudyTracker(std::string study, std::size_t num_cells,
                           const RunOptions &options)
    : _study(std::move(study)), _options(options), _cells(num_cells)
{
    _previous_hook = detail::setWarnHook([this](const std::string &m) {
        // setWarnHook serializes hook invocations; _warnings needs no
        // extra lock as long as the tracker itself doesn't touch it
        // until finish() (after the hook is uninstalled).
        _warnings.push_back(m);
    });
    if (_options.progress)
        _options.progress->studyStarted(_study, num_cells);
}

StudyTracker::~StudyTracker()
{
    if (!_finish_called)
        detail::setWarnHook(std::move(_previous_hook));
}

void
StudyTracker::cellStarted(std::size_t index, const std::string &label)
{
    if (!_options.progress &&
        _options.verbosity != Verbosity::Verbose) {
        return;
    }
    std::lock_guard<std::mutex> lock(_mutex);
    if (_options.verbosity == Verbosity::Verbose)
        inform(_study, ": cell ", label, " started");
    if (_options.progress) {
        CellInfo info{index, _cells.size(), label};
        _options.progress->cellStarted(info);
    }
}

void
StudyTracker::cellFinished(std::size_t index, const std::string &label,
                           double seconds)
{
    std::lock_guard<std::mutex> lock(_mutex);
    // Counted under the lock so sinks observe monotonic fractions.
    std::size_t done =
        _finished.fetch_add(1, std::memory_order_relaxed) + 1;
    stack3d_assert(index < _cells.size(),
                   "cell index out of range in ", _study);
    _cells[index] = CellTiming{index, label, seconds};
    if (_options.progress) {
        CellInfo info{index, _cells.size(), label};
        _options.progress->cellFinished(
            info, seconds, double(done) / double(_cells.size()));
    }
}

StudyMeta
StudyTracker::finish()
{
    stack3d_assert(!_finish_called, "StudyTracker::finish called twice");
    _finish_called = true;
    detail::setWarnHook(std::move(_previous_hook));

    StudyMeta meta;
    meta.study = _study;
    meta.threads_used = _options.resolvedThreads();
    meta.wall_seconds = _wall.seconds();
    meta.cells = std::move(_cells);
    meta.warnings = std::move(_warnings);
    for (const CellTiming &cell : meta.cells)
        meta.serial_seconds += cell.seconds;
    if (_options.progress)
        _options.progress->studyFinished(_study, meta.wall_seconds);
    return meta;
}

} // namespace core
} // namespace stack3d
