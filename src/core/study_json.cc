#include "core/study_json.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/digest.hh"
#include "common/json.hh"
#include "obs/provenance.hh"

namespace stack3d {
namespace core {

// ---------------------------------------------------------------------
// JsonObjectReader
// ---------------------------------------------------------------------

JsonObjectReader::JsonObjectReader(const JsonValue &value,
                                   std::string context)
    : _context(std::move(context))
{
    if (value.isObject())
        _object = &value;
    else
        fail("expected an object");
}

void
JsonObjectReader::fail(const std::string &message)
{
    if (_error.empty())
        _error = _context + ": " + message;
}

const JsonValue *
JsonObjectReader::readMember(const char *key)
{
    if (!_object)
        return nullptr;
    _consumed.push_back(key);
    return _object->find(key);
}

bool
JsonObjectReader::readDouble(const char *key, double &out)
{
    const JsonValue *v = readMember(key);
    if (!v)
        return false;
    if (!v->isNumber()) {
        fail(std::string("'") + key + "' must be a number");
        return false;
    }
    out = v->number;
    return true;
}

bool
JsonObjectReader::readUnsigned(const char *key, unsigned &out)
{
    const JsonValue *v = readMember(key);
    if (!v)
        return false;
    double whole = v->isNumber() ? std::floor(v->number) : -1.0;
    if (!v->isNumber() || v->number < 0.0 || v->number != whole ||
        v->number > 4294967295.0) {
        fail(std::string("'") + key +
             "' must be a non-negative integer");
        return false;
    }
    out = unsigned(v->number);
    return true;
}

bool
JsonObjectReader::readUint64(const char *key, std::uint64_t &out)
{
    const JsonValue *v = readMember(key);
    if (!v)
        return false;
    // Re-parse the raw token: a double only represents integers up
    // to 2^53, and seeds are full 64-bit values.
    if (!v->isNumber() || v->string.empty() ||
        v->string.find_first_not_of("0123456789") !=
            std::string::npos) {
        fail(std::string("'") + key +
             "' must be a non-negative integer");
        return false;
    }
    errno = 0;
    char *end = nullptr;
    unsigned long long parsed = std::strtoull(v->string.c_str(), &end,
                                              10);
    if (errno != 0 || !end || *end != '\0') {
        fail(std::string("'") + key + "' is out of 64-bit range");
        return false;
    }
    out = std::uint64_t(parsed);
    return true;
}

bool
JsonObjectReader::readBool(const char *key, bool &out)
{
    const JsonValue *v = readMember(key);
    if (!v)
        return false;
    if (!v->isBool()) {
        fail(std::string("'") + key + "' must be a boolean");
        return false;
    }
    out = v->boolean;
    return true;
}

bool
JsonObjectReader::readString(const char *key, std::string &out)
{
    const JsonValue *v = readMember(key);
    if (!v)
        return false;
    if (!v->isString()) {
        fail(std::string("'") + key + "' must be a string");
        return false;
    }
    out = v->string;
    return true;
}

bool
JsonObjectReader::readDoubleArray(const char *key,
                                  std::vector<double> &out)
{
    const JsonValue *v = readMember(key);
    if (!v)
        return false;
    if (!v->isArray()) {
        fail(std::string("'") + key + "' must be an array");
        return false;
    }
    std::vector<double> values;
    for (const JsonValue &item : v->array) {
        if (!item.isNumber()) {
            fail(std::string("'") + key +
                 "' must contain only numbers");
            return false;
        }
        values.push_back(item.number);
    }
    out = std::move(values);
    return true;
}

bool
JsonObjectReader::readStringArray(const char *key,
                                  std::vector<std::string> &out)
{
    const JsonValue *v = readMember(key);
    if (!v)
        return false;
    if (!v->isArray()) {
        fail(std::string("'") + key + "' must be an array");
        return false;
    }
    std::vector<std::string> values;
    for (const JsonValue &item : v->array) {
        if (!item.isString()) {
            fail(std::string("'") + key +
                 "' must contain only strings");
            return false;
        }
        values.push_back(item.string);
    }
    out = std::move(values);
    return true;
}

bool
JsonObjectReader::finish()
{
    if (!_error.empty())
        return false;
    for (const auto &member : _object->object) {
        if (std::find(_consumed.begin(), _consumed.end(),
                      member.first) == _consumed.end()) {
            fail("unknown key '" + member.first + "'");
            return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// RunOptions
// ---------------------------------------------------------------------

namespace {

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

void
writeRunOptionsJson(JsonWriter &w, const RunOptions &options)
{
    w.beginObject();
    w.key("threads").value(options.threads);
    w.key("seed").value(std::uint64_t(options.seed));
    w.key("depth").valueExact(options.depth);
    w.key("scale").valueExact(options.scale);
    w.key("verbosity").value(verbosityName(options.verbosity));
    w.endObject();
}

bool
parseRunOptions(const JsonValue &value, RunOptions &out,
                std::string &error)
{
    JsonObjectReader r(value, "options");
    r.readUnsigned("threads", out.threads);
    r.readUint64("seed", out.seed);
    r.readDouble("depth", out.depth);
    r.readDouble("scale", out.scale);

    std::string verbosity;
    if (r.readString("verbosity", verbosity)) {
        if (verbosity == "silent")
            out.verbosity = Verbosity::Silent;
        else if (verbosity == "normal")
            out.verbosity = Verbosity::Normal;
        else if (verbosity == "verbose")
            out.verbosity = Verbosity::Verbose;
        else {
            error = "options: unknown verbosity '" + verbosity + "'";
            return false;
        }
    }
    if (!r.finish()) {
        error = r.error();
        return false;
    }
    if (out.depth <= 0.0 || out.scale <= 0.0) {
        error = "options: depth and scale must be positive";
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Memory study spec
// ---------------------------------------------------------------------

void
writeMemoryStudySpecJson(JsonWriter &w, const MemoryStudySpec &spec)
{
    w.beginObject();
    w.key("benchmarks").beginArray();
    for (const std::string &name : spec.benchmarks)
        w.value(name);
    w.endArray();
    w.endObject();
}

bool
parseMemoryStudySpec(const JsonValue &value, MemoryStudySpec &out,
                     std::string &error)
{
    JsonObjectReader r(value, "memory spec");
    r.readStringArray("benchmarks", out.benchmarks);
    if (!r.finish()) {
        error = r.error();
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Logic study spec
// ---------------------------------------------------------------------

void
writeLogicStudySpecJson(JsonWriter &w, const LogicStudySpec &spec)
{
    w.beginObject();
    w.key("suite");
    w.beginObject();
    w.key("full_suite").value(spec.suite.full_suite);
    w.key("uops_per_trace")
        .value(std::uint64_t(spec.suite.uops_per_trace));
    w.endObject();
    w.key("die_nx").value(spec.die_nx);
    w.key("die_ny").value(spec.die_ny);
    w.key("use_measured_gain").value(spec.use_measured_gain);
    w.endObject();
}

bool
parseLogicStudySpec(const JsonValue &value, LogicStudySpec &out,
                    std::string &error)
{
    JsonObjectReader r(value, "logic spec");
    if (const JsonValue *suite = r.readMember("suite")) {
        JsonObjectReader sr(*suite, "logic spec suite");
        sr.readBool("full_suite", out.suite.full_suite);
        sr.readUint64("uops_per_trace", out.suite.uops_per_trace);
        if (!sr.finish()) {
            error = sr.error();
            return false;
        }
    }
    r.readUnsigned("die_nx", out.die_nx);
    r.readUnsigned("die_ny", out.die_ny);
    r.readBool("use_measured_gain", out.use_measured_gain);
    if (!r.finish()) {
        error = r.error();
        return false;
    }
    if (out.die_nx < 2 || out.die_ny < 2) {
        error = "logic spec: die_nx and die_ny must be >= 2";
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Thermal specs
// ---------------------------------------------------------------------

void
writeStackThermalSpecJson(JsonWriter &w, const StackThermalSpec &spec)
{
    w.beginObject();
    w.key("die_nx").value(spec.die_nx);
    w.key("die_ny").value(spec.die_ny);
    w.endObject();
}

bool
parseStackThermalSpec(const JsonValue &value, StackThermalSpec &out,
                      std::string &error)
{
    JsonObjectReader r(value, "stack-thermal spec");
    r.readUnsigned("die_nx", out.die_nx);
    r.readUnsigned("die_ny", out.die_ny);
    if (!r.finish()) {
        error = r.error();
        return false;
    }
    if (out.die_nx < 2 || out.die_ny < 2) {
        error = "stack-thermal spec: die_nx and die_ny must be >= 2";
        return false;
    }
    return true;
}

namespace {

/**
 * Ceiling on a swept conductivity, W/(m K): above any bulk material
 * (diamond is about 2 000). At 1e30 the solver's operator product
 * loses positive definiteness and its assertion aborts the process.
 */
constexpr double kMaxSweptConductivity = 1e4;

} // anonymous namespace

void
writeSensitivitySpecJson(JsonWriter &w, const SensitivitySpec &spec)
{
    w.beginObject();
    w.key("conductivities").beginArray();
    for (double k : spec.conductivities)
        w.valueExact(k);
    w.endArray();
    w.key("die_nx").value(spec.die_nx);
    w.key("die_ny").value(spec.die_ny);
    w.endObject();
}

bool
parseSensitivitySpec(const JsonValue &value, SensitivitySpec &out,
                     std::string &error)
{
    JsonObjectReader r(value, "sensitivity spec");
    r.readDoubleArray("conductivities", out.conductivities);
    r.readUnsigned("die_nx", out.die_nx);
    r.readUnsigned("die_ny", out.die_ny);
    if (!r.finish()) {
        error = r.error();
        return false;
    }
    if (out.conductivities.empty()) {
        error = "sensitivity spec: conductivities must not be empty";
        return false;
    }
    for (double k : out.conductivities) {
        if (!(k > 0.0)) {
            error = "sensitivity spec: conductivities must be "
                    "positive";
            return false;
        }
        if (k > kMaxSweptConductivity) {
            error = "sensitivity spec: conductivities must be at "
                    "most 1e4 W/(m K)";
            return false;
        }
    }
    if (out.die_nx < 2 || out.die_ny < 2) {
        error = "sensitivity spec: die_nx and die_ny must be >= 2";
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Canonical form + digest
// ---------------------------------------------------------------------

namespace {

template <typename SpecT, typename WriterFn>
std::string
canonicalJson(const SpecT &spec, WriterFn write)
{
    std::ostringstream os;
    JsonWriter w(os, /*compact=*/true);
    write(w, spec);
    return os.str();
}

} // anonymous namespace

std::string
canonicalSpecJson(const MemoryStudySpec &spec)
{
    return canonicalJson(spec, writeMemoryStudySpecJson);
}

std::string
canonicalSpecJson(const LogicStudySpec &spec)
{
    return canonicalJson(spec, writeLogicStudySpecJson);
}

std::string
canonicalSpecJson(const StackThermalSpec &spec)
{
    return canonicalJson(spec, writeStackThermalSpecJson);
}

std::string
canonicalSpecJson(const SensitivitySpec &spec)
{
    return canonicalJson(spec, writeSensitivitySpecJson);
}

std::uint64_t
specDigest(const std::string &study, const RunOptions &options,
           const std::string &canonical_spec_json)
{
    Fnv1aDigest d;
    d.mix(std::string("stack3d-request"));
    d.mix(std::uint64_t(obs::kSchemaVersion));
    d.mix(study);
    d.mix(options.seed);
    d.mixDouble(options.depth);
    d.mixDouble(options.scale);
    d.mix(canonical_spec_json);
    return d.value();
}

// ---------------------------------------------------------------------
// Result payloads
// ---------------------------------------------------------------------

namespace {

void
writeThermalPointJson(JsonWriter &w, const ThermalPoint &point)
{
    w.beginObject();
    w.key("peak_c").valueExact(point.peak_c);
    w.key("die1_peak_c").valueExact(point.die1_peak_c);
    w.key("die2_peak_c").valueExact(point.die2_peak_c);
    w.key("min_c").valueExact(point.min_c);
    w.key("total_power_w").valueExact(point.total_power_w);
    w.key("iterations").value(std::uint64_t(point.solve.iterations));
    w.endObject();
}

} // anonymous namespace

void
writeMemoryStudyResultJson(JsonWriter &w,
                           const MemoryStudyResult &result)
{
    w.beginObject();
    w.key("rows").beginArray();
    for (const MemoryStudyRow &row : result.rows) {
        w.beginObject();
        w.key("benchmark").value(row.benchmark);
        w.key("records").value(std::uint64_t(row.records));
        w.key("footprint_mb").valueExact(row.footprint_mb);
        w.key("cpma").beginArray();
        for (double v : row.cpma)
            w.valueExact(v);
        w.endArray();
        w.key("bw_gbps").beginArray();
        for (double v : row.bw_gbps)
            w.valueExact(v);
        w.endArray();
        w.key("bus_power_w").beginArray();
        for (double v : row.bus_power_w)
            w.valueExact(v);
        w.endArray();
        w.key("llc_miss").beginArray();
        for (double v : row.llc_miss)
            w.valueExact(v);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    const MemoryStudySummary &s = result.summary;
    w.key("summary").beginObject();
    w.key("avg_cpma_reduction_32m")
        .valueExact(s.avg_cpma_reduction_32m);
    w.key("max_cpma_reduction_32m")
        .valueExact(s.max_cpma_reduction_32m);
    w.key("avg_bw_reduction_factor_32m")
        .valueExact(s.avg_bw_reduction_factor_32m);
    w.key("avg_bus_power_reduction_32m")
        .valueExact(s.avg_bus_power_reduction_32m);
    w.key("avg_bus_power_saving_w")
        .valueExact(s.avg_bus_power_saving_w);
    w.endObject();
    w.endObject();
}

void
writeLogicStudyResultJson(JsonWriter &w, const LogicStudyResult &result)
{
    w.beginObject();
    w.key("table4").beginObject();
    w.key("rows").beginArray();
    for (const cpu::Table4Row &row : result.table4.rows) {
        w.beginObject();
        w.key("path").value(cpu::pathName(row.path));
        w.key("stages_eliminated_pct")
            .valueExact(row.stages_eliminated_pct);
        w.key("perf_gain_pct").valueExact(row.perf_gain_pct);
        w.endObject();
    }
    w.endArray();
    w.key("total_perf_gain_pct")
        .valueExact(result.table4.total_perf_gain_pct);
    w.endObject();
    w.key("power_saving_3d").valueExact(result.power_saving_3d);
    w.key("fig11").beginObject();
    w.key("planar");
    writeThermalPointJson(w, result.fig11.planar);
    w.key("stacked");
    writeThermalPointJson(w, result.fig11.stacked);
    w.key("worst_case");
    writeThermalPointJson(w, result.fig11.worst_case);
    w.key("stacked_density_ratio")
        .valueExact(result.fig11.stacked_density_ratio);
    w.key("worst_density_ratio")
        .valueExact(result.fig11.worst_density_ratio);
    w.endObject();
    w.key("table5").beginArray();
    for (const Table5Row &row : result.table5) {
        w.beginObject();
        w.key("label").value(row.point.label);
        w.key("power_w").valueExact(row.point.power_w);
        w.key("power_rel").valueExact(row.point.power_rel);
        w.key("perf_rel").valueExact(row.point.perf_rel);
        w.key("vcc").valueExact(row.point.vcc);
        w.key("freq").valueExact(row.point.freq);
        w.key("temp_c").valueExact(row.temp_c);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
writeStackThermalResultJson(JsonWriter &w,
                            const StackThermalResult &result)
{
    static const char *kLabels[4] = {"baseline4m", "sram12m",
                                     "dram32m", "dram64m"};
    w.beginObject();
    w.key("options").beginArray();
    for (std::size_t o = 0; o < result.options.size(); ++o) {
        w.beginObject();
        w.key("label").value(kLabels[o]);
        w.key("point");
        writeThermalPointJson(w, result.options[o]);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
writeSensitivityResultJson(JsonWriter &w,
                           const std::vector<SensitivityPoint> &points)
{
    w.beginObject();
    w.key("points").beginArray();
    for (const SensitivityPoint &p : points) {
        w.beginObject();
        w.key("conductivity").valueExact(p.conductivity);
        w.key("peak_cu_swept").valueExact(p.peak_cu_swept);
        w.key("peak_bond_swept").valueExact(p.peak_bond_swept);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

// ---------------------------------------------------------------------
// Study reports
// ---------------------------------------------------------------------

namespace {

template <typename PayloadT, typename WriterFn>
void
writeReport(JsonWriter &w, const StudyReport<PayloadT> &report,
            WriterFn write_payload)
{
    w.key("meta").beginObject();
    writeMetaJson(w, report.meta);
    w.endObject();
    w.key("payload");
    write_payload(w, report.payload);
}

} // anonymous namespace

void
writeReportJson(JsonWriter &w,
                const StudyReport<MemoryStudyResult> &report)
{
    writeReport(w, report, writeMemoryStudyResultJson);
}

void
writeReportJson(JsonWriter &w,
                const StudyReport<LogicStudyResult> &report)
{
    writeReport(w, report, writeLogicStudyResultJson);
}

void
writeReportJson(JsonWriter &w,
                const StudyReport<StackThermalResult> &report)
{
    writeReport(w, report, writeStackThermalResultJson);
}

void
writeReportJson(JsonWriter &w,
                const StudyReport<std::vector<SensitivityPoint>> &report)
{
    writeReport(w, report, writeSensitivityResultJson);
}

} // namespace core
} // namespace stack3d
