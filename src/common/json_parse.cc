#include "common/json_parse.hh"

#include <cctype>
#include <cstdlib>

namespace stack3d {

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &member : object) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

namespace {

/**
 * Resolve @p path from @p start against @p node. Keys are tried
 * shortest-first (up to the next dot), falling back to progressively
 * longer dotted prefixes with backtracking: flat counter names such
 * as "thermal.k=60/cu.v_cycles" legitimately contain dots, so inside
 * "counters" the whole remainder can be a single key.
 */
const JsonValue *
findPathFrom(const JsonValue &node, const std::string &path,
             std::size_t start)
{
    std::size_t dot = path.find('.', start);
    for (;;) {
        const std::string key = path.substr(
            start, dot == std::string::npos ? std::string::npos
                                            : dot - start);
        if (const JsonValue *child = node.find(key)) {
            if (dot == std::string::npos)
                return child;
            if (const JsonValue *hit =
                    findPathFrom(*child, path, dot + 1))
                return hit;
        }
        if (dot == std::string::npos)
            return nullptr;
        dot = path.find('.', dot + 1);
    }
}

} // anonymous namespace

const JsonValue *
JsonValue::findPath(const std::string &dotted_path) const
{
    return findPathFrom(*this, dotted_path, 0);
}

namespace {

/** Single-pass parser over the input string. */
class Parser
{
  public:
    Parser(const std::string &text, std::string &error)
        : _text(text), _error(error)
    {
    }

    bool
    parseDocument(JsonValue &out)
    {
        skipWhitespace();
        if (!parseValue(out))
            return false;
        skipWhitespace();
        if (_pos != _text.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const std::string &message)
    {
        _error = "offset " + std::to_string(_pos) + ": " + message;
        return false;
    }

    void
    skipWhitespace()
    {
        while (_pos < _text.size() &&
               (_text[_pos] == ' ' || _text[_pos] == '\t' ||
                _text[_pos] == '\n' || _text[_pos] == '\r'))
            ++_pos;
    }

    bool
    expect(char c)
    {
        if (_pos >= _text.size() || _text[_pos] != c)
            return fail(std::string("expected '") + c + "'");
        ++_pos;
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (_pos >= _text.size())
            return fail("unexpected end of input");
        switch (_text[_pos]) {
          case '{':
          case '[': {
            // Containers recurse; bound the depth so hostile input
            // (a request line of nested brackets) cannot exhaust the
            // stack.
            if (_depth == kJsonMaxDepth)
                return fail("nesting deeper than " +
                            std::to_string(kJsonMaxDepth));
            ++_depth;
            bool ok = _text[_pos] == '{' ? parseObject(out)
                                         : parseArray(out);
            --_depth;
            return ok;
          }
          case '"':
            out.kind = JsonValue::Kind::String;
            return parseString(out.string);
          case 't':
            return parseLiteral("true", out, JsonValue::Kind::Bool,
                                true);
          case 'f':
            return parseLiteral("false", out, JsonValue::Kind::Bool,
                                false);
          case 'n':
            return parseLiteral("null", out, JsonValue::Kind::Null,
                                false);
          default:
            return parseNumber(out);
        }
    }

    bool
    parseLiteral(const char *word, JsonValue &out,
                 JsonValue::Kind kind, bool boolean)
    {
        for (const char *p = word; *p; ++p, ++_pos) {
            if (_pos >= _text.size() || _text[_pos] != *p)
                return fail(std::string("bad literal, expected ") +
                            word);
        }
        out.kind = kind;
        out.boolean = boolean;
        return true;
    }

    bool
    parseNumber(JsonValue &out)
    {
        std::size_t start = _pos;
        if (_pos < _text.size() && _text[_pos] == '-')
            ++_pos;
        while (_pos < _text.size() &&
               (std::isdigit(static_cast<unsigned char>(_text[_pos])) ||
                _text[_pos] == '.' || _text[_pos] == 'e' ||
                _text[_pos] == 'E' || _text[_pos] == '+' ||
                _text[_pos] == '-'))
            ++_pos;
        if (_pos == start)
            return fail("expected a value");
        std::string token = _text.substr(start, _pos - start);
        char *end = nullptr;
        double v = std::strtod(token.c_str(), &end);
        if (!end || *end != '\0')
            return fail("malformed number '" + token + "'");
        out.kind = JsonValue::Kind::Number;
        out.number = v;
        // Keep the raw token: consumers of 64-bit integer fields
        // (seeds, cache keys) re-parse it exactly, since a double
        // only holds integers up to 2^53.
        out.string = token;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!expect('"'))
            return false;
        out.clear();
        while (_pos < _text.size()) {
            char c = _text[_pos];
            if (c == '"') {
                ++_pos;
                return true;
            }
            if (c == '\\') {
                ++_pos;
                if (_pos >= _text.size())
                    return fail("unterminated escape");
                char esc = _text[_pos];
                switch (esc) {
                  case '"': out.push_back('"'); break;
                  case '\\': out.push_back('\\'); break;
                  case '/': out.push_back('/'); break;
                  case 'b': out.push_back('\b'); break;
                  case 'f': out.push_back('\f'); break;
                  case 'n': out.push_back('\n'); break;
                  case 'r': out.push_back('\r'); break;
                  case 't': out.push_back('\t'); break;
                  case 'u': {
                    if (_pos + 4 >= _text.size())
                        return fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = _text[_pos + 1 + i];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= unsigned(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= unsigned(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= unsigned(h - 'A' + 10);
                        else
                            return fail("bad \\u escape digit");
                    }
                    _pos += 4;
                    // UTF-8 encode (surrogate pairs kept as-is; the
                    // writer never emits them).
                    if (code < 0x80) {
                        out.push_back(char(code));
                    } else if (code < 0x800) {
                        out.push_back(char(0xC0 | (code >> 6)));
                        out.push_back(char(0x80 | (code & 0x3F)));
                    } else {
                        out.push_back(char(0xE0 | (code >> 12)));
                        out.push_back(
                            char(0x80 | ((code >> 6) & 0x3F)));
                        out.push_back(char(0x80 | (code & 0x3F)));
                    }
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
                ++_pos;
            } else {
                out.push_back(c);
                ++_pos;
            }
        }
        return fail("unterminated string");
    }

    bool
    parseArray(JsonValue &out)
    {
        if (!expect('['))
            return false;
        out.kind = JsonValue::Kind::Array;
        skipWhitespace();
        if (_pos < _text.size() && _text[_pos] == ']') {
            ++_pos;
            return true;
        }
        while (true) {
            JsonValue element;
            skipWhitespace();
            if (!parseValue(element))
                return false;
            out.array.push_back(std::move(element));
            skipWhitespace();
            if (_pos >= _text.size())
                return fail("unterminated array");
            if (_text[_pos] == ',') {
                ++_pos;
                continue;
            }
            if (_text[_pos] == ']') {
                ++_pos;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseObject(JsonValue &out)
    {
        if (!expect('{'))
            return false;
        out.kind = JsonValue::Kind::Object;
        skipWhitespace();
        if (_pos < _text.size() && _text[_pos] == '}') {
            ++_pos;
            return true;
        }
        while (true) {
            skipWhitespace();
            std::string key;
            if (!parseString(key))
                return false;
            skipWhitespace();
            if (!expect(':'))
                return false;
            skipWhitespace();
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.object.emplace_back(std::move(key), std::move(value));
            skipWhitespace();
            if (_pos >= _text.size())
                return fail("unterminated object");
            if (_text[_pos] == ',') {
                ++_pos;
                continue;
            }
            if (_text[_pos] == '}') {
                ++_pos;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    const std::string &_text;
    std::string &_error;
    std::size_t _pos = 0;
    /** Containers currently open around _pos. */
    unsigned _depth = 0;
};

} // namespace

bool
parseJson(const std::string &text, JsonValue &out, std::string &error)
{
    out = JsonValue();
    error.clear();
    Parser parser(text, error);
    return parser.parseDocument(out);
}

} // namespace stack3d
