#include "util/json.hh"

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace mpos::util
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += char(c);
            }
        }
    }
    return out;
}

std::string
jsonString(const std::string &s)
{
    return "\"" + jsonEscape(s) + "\"";
}

namespace
{

/** Recursive-descent structural validator over a byte range. */
struct Validator
{
    const std::string &t;
    size_t pos = 0;
    size_t errPos = 0;
    std::string err;

    bool
    fail(size_t at, const char *what)
    {
        if (err.empty()) {
            errPos = at;
            err = what;
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos < t.size() &&
               (t[pos] == ' ' || t[pos] == '\t' || t[pos] == '\n' ||
                t[pos] == '\r'))
            ++pos;
    }

    bool
    literal(const char *word)
    {
        const size_t at = pos;
        for (const char *p = word; *p; ++p, ++pos)
            if (pos >= t.size() || t[pos] != *p)
                return fail(at, "bad literal");
        return true;
    }

    bool
    string()
    {
        if (pos >= t.size() || t[pos] != '"')
            return fail(pos, "expected string");
        ++pos;
        while (pos < t.size()) {
            const unsigned char c = (unsigned char)t[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c < 0x20)
                return fail(pos, "raw control character in string");
            if (c == '\\') {
                ++pos;
                if (pos >= t.size())
                    break;
                const char e = t[pos];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos;
                        if (pos >= t.size() ||
                            !std::isxdigit((unsigned char)t[pos]))
                            return fail(pos, "bad \\u escape");
                    }
                } else if (!std::strchr("\"\\/bfnrt", e)) {
                    return fail(pos, "bad escape character");
                }
            }
            ++pos;
        }
        return fail(pos, "unterminated string");
    }

    bool
    number()
    {
        const size_t at = pos;
        if (pos < t.size() && t[pos] == '-')
            ++pos;
        if (pos >= t.size() || !std::isdigit((unsigned char)t[pos]))
            return fail(at, "bad number");
        if (t[pos] == '0' && pos + 1 < t.size() &&
            std::isdigit((unsigned char)t[pos + 1]))
            return fail(at, "leading zero in number");
        while (pos < t.size() && std::isdigit((unsigned char)t[pos]))
            ++pos;
        if (pos < t.size() && t[pos] == '.') {
            ++pos;
            if (pos >= t.size() || !std::isdigit((unsigned char)t[pos]))
                return fail(at, "bad number fraction");
            while (pos < t.size() && std::isdigit((unsigned char)t[pos]))
                ++pos;
        }
        if (pos < t.size() && (t[pos] == 'e' || t[pos] == 'E')) {
            ++pos;
            if (pos < t.size() && (t[pos] == '+' || t[pos] == '-'))
                ++pos;
            if (pos >= t.size() || !std::isdigit((unsigned char)t[pos]))
                return fail(at, "bad number exponent");
            while (pos < t.size() && std::isdigit((unsigned char)t[pos]))
                ++pos;
        }
        return true;
    }

    bool
    value(uint32_t depth)
    {
        if (depth > 256)
            return fail(pos, "nesting too deep");
        skipWs();
        if (pos >= t.size())
            return fail(pos, "expected value");
        switch (t[pos]) {
          case '{': {
            ++pos;
            skipWs();
            if (pos < t.size() && t[pos] == '}') {
                ++pos;
                return true;
            }
            for (;;) {
                skipWs();
                if (!string())
                    return false;
                skipWs();
                if (pos >= t.size() || t[pos] != ':')
                    return fail(pos, "expected ':'");
                ++pos;
                if (!value(depth + 1))
                    return false;
                skipWs();
                if (pos < t.size() && t[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < t.size() && t[pos] == '}') {
                    ++pos;
                    return true;
                }
                return fail(pos, "expected ',' or '}'");
            }
          }
          case '[': {
            ++pos;
            skipWs();
            if (pos < t.size() && t[pos] == ']') {
                ++pos;
                return true;
            }
            for (;;) {
                if (!value(depth + 1))
                    return false;
                skipWs();
                if (pos < t.size() && t[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < t.size() && t[pos] == ']') {
                    ++pos;
                    return true;
                }
                return fail(pos, "expected ',' or ']'");
            }
          }
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }
};

} // namespace

bool
jsonValidate(const std::string &text, size_t *error_pos,
             std::string *error)
{
    Validator v{text, 0, 0, {}};
    bool ok = v.value(0);
    if (ok) {
        v.skipWs();
        if (v.pos != text.size())
            ok = v.fail(v.pos, "trailing characters after value");
    }
    if (!ok) {
        if (error_pos)
            *error_pos = v.errPos;
        if (error)
            *error = v.err;
    }
    return ok;
}

} // namespace mpos::util
