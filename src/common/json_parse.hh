/**
 * @file
 * A minimal recursive-descent JSON parser — the read-side counterpart
 * of JsonWriter. Used by tests (and the json_check tool) to validate
 * bench output and trace files; not a general-purpose library. Parses
 * the full JSON grammar into a JsonValue tree; object key order is
 * preserved.
 */

#ifndef STACK3D_COMMON_JSON_PARSE_HH
#define STACK3D_COMMON_JSON_PARSE_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace stack3d {

/** One parsed JSON value (a tagged tree node). */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    /** String value; for numbers, the raw token (exact u64 re-parse). */
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member by key; nullptr when absent or not an object. */
    [[nodiscard]] const JsonValue *find(const std::string &key) const;

    /** Nested lookup: find("a.b.c") walks objects by dotted path. */
    [[nodiscard]] const JsonValue *
    findPath(const std::string &dotted_path) const;
};

/** Deepest array/object nesting parseJson() accepts. */
constexpr unsigned kJsonMaxDepth = 256;

/**
 * Parse a complete JSON document. On failure returns false and sets
 * @p error to "offset N: message"; on success @p out holds the root.
 * Trailing non-whitespace and nesting deeper than kJsonMaxDepth are
 * errors.
 */
[[nodiscard]] bool parseJson(const std::string &text, JsonValue &out,
                             std::string &error);

} // namespace stack3d

#endif // STACK3D_COMMON_JSON_PARSE_HH
