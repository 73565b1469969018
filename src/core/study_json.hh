/**
 * @file
 * The versioned JSON wire form of the Run/Report API: every study
 * Spec (and RunOptions) is a first-class request object that
 * serializes with toJson-style writers, parses back with strict
 * readers, and carries a stable content digest.
 *
 * Contracts, all pinned by tests/test_serve.cc:
 *
 *  - Round-trip exact: parse*(write*(x)) reconstructs every field
 *    bit-exactly (doubles are emitted with valueExact, 64-bit
 *    integers re-parse from the raw token).
 *  - Digest-stable: the spec digest is computed from the canonical
 *    JSON text, so a spec and its round-trip always share a digest,
 *    and the digest is the stack3d-serve result-cache key.
 *  - Strict: parsers reject unknown keys and type mismatches with a
 *    contextual error instead of guessing — the wire schema is
 *    versioned (obs::kSchemaVersion), not duck-typed.
 *
 * Missing keys keep the spec's default value, so a minimal request
 * like {"benchmarks": ["gauss"]} stays valid as specs grow fields.
 */

#ifndef STACK3D_CORE_STUDY_JSON_HH
#define STACK3D_CORE_STUDY_JSON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json_parse.hh"
#include "core/logic_study.hh"
#include "core/memory_study.hh"
#include "core/run_options.hh"
#include "core/thermal_study.hh"

namespace stack3d {

class JsonWriter;

namespace core {

/**
 * Strict field-by-field reader over one parsed JSON object. Each
 * read*() call consumes a key: absent keys return false and leave
 * the output untouched (spec default applies); present keys of the
 * wrong type record an error. finish() fails on any recorded error
 * or any key that was never consumed, so typos and unknown fields
 * are rejected instead of silently ignored.
 */
class JsonObjectReader
{
  public:
    /**
     * @param value   the JSON value expected to be an object
     * @param context name used in error messages ("options", ...)
     */
    JsonObjectReader(const JsonValue &value, std::string context);

    bool readDouble(const char *key, double &out);
    bool readUnsigned(const char *key, unsigned &out);
    bool readUint64(const char *key, std::uint64_t &out);
    bool readBool(const char *key, bool &out);
    bool readString(const char *key, std::string &out);
    bool readDoubleArray(const char *key, std::vector<double> &out);
    bool readStringArray(const char *key,
                         std::vector<std::string> &out);

    /** Consume @p key and return its value (nullptr when absent). */
    const JsonValue *readMember(const char *key);

    /**
     * Seal the read: true when no error was recorded and every key
     * of the object was consumed.
     */
    [[nodiscard]] bool finish();

    const std::string &error() const { return _error; }

  private:
    void fail(const std::string &message);

    const JsonValue *_object = nullptr;
    std::string _context;
    std::vector<std::string> _consumed;
    std::string _error;
};

// ---------------------------------------------------------------------
// RunOptions
// ---------------------------------------------------------------------

/**
 * Emit the JSON-roundtrippable subset of RunOptions as one object
 * value: threads, seed, depth, scale, verbosity. The
 * progress sink is a process-local pointer and never travels.
 *
 * Only tests call it (the service never echoes run options), but it
 * stays: lint3d's wire-digest-parity rule (`pairs = ["RunOptions"]`
 * in .lint3d.toml) reads the RunOptions wire keys from this writer,
 * so deleting it would silently disable that check.
 */
void writeRunOptionsJson(JsonWriter &w, const RunOptions &options);

/**
 * Parse RunOptions fields from @p value into @p out (fields absent
 * from the JSON keep their current values).
 * @return false with @p error set on any schema violation.
 */
[[nodiscard]] bool parseRunOptions(const JsonValue &value,
                                   RunOptions &out,
                                   std::string &error);

// ---------------------------------------------------------------------
// Study specs
// ---------------------------------------------------------------------

void writeMemoryStudySpecJson(JsonWriter &w,
                              const MemoryStudySpec &spec);
[[nodiscard]] bool parseMemoryStudySpec(const JsonValue &value,
                                        MemoryStudySpec &out,
                                        std::string &error);

void writeLogicStudySpecJson(JsonWriter &w, const LogicStudySpec &spec);
[[nodiscard]] bool parseLogicStudySpec(const JsonValue &value,
                                       LogicStudySpec &out,
                                       std::string &error);

void writeStackThermalSpecJson(JsonWriter &w,
                               const StackThermalSpec &spec);
[[nodiscard]] bool parseStackThermalSpec(const JsonValue &value,
                                         StackThermalSpec &out,
                                         std::string &error);

void writeSensitivitySpecJson(JsonWriter &w,
                              const SensitivitySpec &spec);
[[nodiscard]] bool parseSensitivitySpec(const JsonValue &value,
                                        SensitivitySpec &out,
                                        std::string &error);

/** Canonical JSON text of a spec (the digest input). */
std::string canonicalSpecJson(const MemoryStudySpec &spec);
std::string canonicalSpecJson(const LogicStudySpec &spec);
std::string canonicalSpecJson(const StackThermalSpec &spec);
std::string canonicalSpecJson(const SensitivitySpec &spec);

/**
 * Content digest of one (options, spec) pair — the stack3d-serve
 * cache key. Mixes the schema version, the study name, the
 * result-affecting RunOptions fields (seed, depth, scale —
 * NOT threads or verbosity: the determinism guarantee makes results
 * independent of those), and the spec's canonical JSON.
 */
std::uint64_t specDigest(const std::string &study,
                         const RunOptions &options,
                         const std::string &canonical_spec_json);

// ---------------------------------------------------------------------
// Study results (response payloads)
// ---------------------------------------------------------------------

void writeMemoryStudyResultJson(JsonWriter &w,
                                const MemoryStudyResult &result);
void writeLogicStudyResultJson(JsonWriter &w,
                               const LogicStudyResult &result);
void writeStackThermalResultJson(JsonWriter &w,
                                 const StackThermalResult &result);
void writeSensitivityResultJson(
    JsonWriter &w, const std::vector<SensitivityPoint> &points);

/**
 * The one JSON form of a study report: write the members
 * `"meta":{...},"payload":{...}` into the writer's open object.
 * `payload` is written last — serve clients hash the text after the
 * last `"payload":`. stack3d-serve responses and the benches'
 * `--json` files both use it, so a bench's payload equals the serve
 * payload for the same study, options and spec.
 */
void writeReportJson(JsonWriter &w,
                     const StudyReport<MemoryStudyResult> &report);
void writeReportJson(JsonWriter &w,
                     const StudyReport<LogicStudyResult> &report);
void writeReportJson(JsonWriter &w,
                     const StudyReport<StackThermalResult> &report);
void writeReportJson(
    JsonWriter &w,
    const StudyReport<std::vector<SensitivityPoint>> &report);

} // namespace core
} // namespace stack3d

#endif // STACK3D_CORE_STUDY_JSON_HH
