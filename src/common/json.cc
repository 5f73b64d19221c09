#include "common/json.h"

#include <sys/stat.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iterator>

#include "common/logging.h"
#include "common/output_file.h"

namespace astra {
namespace json {

namespace {

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Null: return "null";
      case Kind::Bool: return "bool";
      case Kind::Number: return "number";
      case Kind::String: return "string";
      case Kind::Array: return "array";
      case Kind::Object: return "object";
    }
    return "?";
}

} // namespace

bool
Value::asBool() const
{
    ASTRA_USER_CHECK(kind_ == Kind::Bool,
                     "json: expected bool, got %s", kindName(kind_));
    return bool_;
}

double
Value::asNumber() const
{
    ASTRA_USER_CHECK(kind_ == Kind::Number,
                     "json: expected number, got %s", kindName(kind_));
    return num_;
}

void
badInt(const std::string &path, const Value &v, int64_t lo, int64_t hi)
{
    fatal("%s: expected an integer in [%lld, %lld], got %s", path.c_str(),
          static_cast<long long>(lo), static_cast<long long>(hi),
          v.dump().c_str());
}

int64_t
Value::asInt() const
{
    return static_cast<int64_t>(std::llround(asNumber()));
}

const std::string &
Value::asString() const
{
    ASTRA_USER_CHECK(kind_ == Kind::String,
                     "json: expected string, got %s", kindName(kind_));
    return str_;
}

const Array &
Value::asArray() const
{
    ASTRA_USER_CHECK(kind_ == Kind::Array,
                     "json: expected array, got %s", kindName(kind_));
    return *arr_;
}

const Object &
Value::asObject() const
{
    ASTRA_USER_CHECK(kind_ == Kind::Object,
                     "json: expected object, got %s", kindName(kind_));
    return *obj_;
}

Array &
Value::mutableArray()
{
    if (kind_ != Kind::Array) {
        kind_ = Kind::Array;
        arr_ = std::make_shared<Array>();
    }
    return *arr_;
}

Object &
Value::mutableObject()
{
    if (kind_ != Kind::Object) {
        kind_ = Kind::Object;
        obj_ = std::make_shared<Object>();
    }
    return *obj_;
}

const Value &
Value::at(const std::string &key) const
{
    const Object &obj = asObject();
    auto it = obj.find(key);
    ASTRA_USER_CHECK(it != obj.end(), "json: missing key '%s'", key.c_str());
    return it->second;
}

bool
Value::has(const std::string &key) const
{
    return kind_ == Kind::Object && obj_->count(key) > 0;
}

double
Value::getNumber(const std::string &key, double dflt) const
{
    return has(key) ? at(key).asNumber() : dflt;
}

int64_t
Value::getInt(const std::string &key, int64_t dflt) const
{
    return has(key) ? at(key).asInt() : dflt;
}

bool
Value::getBool(const std::string &key, bool dflt) const
{
    return has(key) ? at(key).asBool() : dflt;
}

std::string
Value::getString(const std::string &key, const std::string &dflt) const
{
    return has(key) ? at(key).asString() : dflt;
}

namespace {

/** `s` as a quoted JSON string. Escaped a slice at a time through a
 *  stack buffer, so `out` grows by what is written and no more: an
 *  over-grown string here changed which heap pages later runs reuse,
 *  and with it pipeline_traced's setup time. */
void
appendString(std::string &out, std::string_view s)
{
    constexpr size_t kSlice = 64;
    char buf[kSlice * kMaxEscapedPerByte];
    out += '"';
    for (size_t i = 0; i < s.size(); i += kSlice)
        out.append(buf, appendEscaped(buf, s.substr(i, kSlice)));
    out += '"';
}

/** Integral values below 1e15 as integers, everything else as
 *  printf("%.17g") (which to_chars' general format is defined as). */
void
appendNumber(std::string &out, double n)
{
    char buf[32];
    char *end = n == std::floor(n) && std::abs(n) < 1e15
                    ? appendInt(buf, static_cast<long long>(n))
                    : std::to_chars(buf, std::end(buf), n,
                                    std::chars_format::general, 17)
                          .ptr;
    out.append(buf, end);
}

} // namespace

void
Value::dumpTo(std::string &out, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent >= 0) {
            out += '\n';
            out.append(static_cast<size_t>(indent * d), ' ');
        }
    };

    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::Number:
        appendNumber(out, num_);
        break;
      case Kind::String:
        appendString(out, str_);
        break;
      case Kind::Array: {
        if (arr_->empty()) {
            out += "[]";
            break;
        }
        out += '[';
        bool first = true;
        for (const Value &v : *arr_) {
            if (!first)
                out += ',';
            first = false;
            newline(depth + 1);
            v.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        break;
      }
      case Kind::Object: {
        if (obj_->empty()) {
            out += "{}";
            break;
        }
        out += '{';
        bool first = true;
        for (const auto &[key, v] : *obj_) {
            if (!first)
                out += ",";
            first = false;
            newline(depth + 1);
            appendString(out, key);
            out += indent >= 0 ? ": " : ":";
            v.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        break;
      }
    }
}

std::string
Value::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

Value
Value::clone() const
{
    switch (kind_) {
      case Kind::Array: {
        Array copy;
        copy.reserve(arr_->size());
        for (const Value &v : *arr_)
            copy.push_back(v.clone());
        return Value(std::move(copy));
      }
      case Kind::Object: {
        Object copy;
        for (const auto &[key, v] : *obj_)
            copy.emplace(key, v.clone());
        return Value(std::move(copy));
      }
      default:
        // Scalars hold no shared state; plain copy is already deep.
        return *this;
    }
}

namespace {

/** Recursive-descent JSON parser with line/column error reporting. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value
    parseDocument()
    {
        skipWs();
        Value v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            error("trailing characters after JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    error(const std::string &msg)
    {
        size_t line = 1, col = 1;
        for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        fatal("json parse error at line %zu col %zu: %s", line, col,
              msg.c_str());
    }

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    char
    get()
    {
        if (pos_ >= text_.size())
            error("unexpected end of input");
        return text_[pos_++];
    }

    void
    expect(char c)
    {
        if (get() != c)
            error(std::string("expected '") + c + "'");
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool
    consumeLiteral(const char *lit)
    {
        size_t len = std::char_traits<char>::length(lit);
        if (text_.compare(pos_, len, lit) == 0) {
            pos_ += len;
            return true;
        }
        return false;
    }

    Value
    parseValue()
    {
        skipWs();
        switch (peek()) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return Value(parseString());
          case 't':
            if (consumeLiteral("true"))
                return Value(true);
            error("invalid literal");
          case 'f':
            if (consumeLiteral("false"))
                return Value(false);
            error("invalid literal");
          case 'n':
            if (consumeLiteral("null"))
                return Value(nullptr);
            error("invalid literal");
          default:
            return parseNumber();
        }
    }

    Value
    parseObject()
    {
        expect('{');
        Object obj;
        skipWs();
        if (peek() == '}') {
            get();
            return Value(std::move(obj));
        }
        while (true) {
            skipWs();
            if (peek() != '"')
                error("expected object key string");
            std::string key = parseString();
            skipWs();
            expect(':');
            obj[key] = parseValue();
            skipWs();
            char c = get();
            if (c == '}')
                break;
            if (c != ',')
                error("expected ',' or '}' in object");
        }
        return Value(std::move(obj));
    }

    Value
    parseArray()
    {
        expect('[');
        Array arr;
        skipWs();
        if (peek() == ']') {
            get();
            return Value(std::move(arr));
        }
        while (true) {
            arr.push_back(parseValue());
            skipWs();
            char c = get();
            if (c == ']')
                break;
            if (c != ',')
                error("expected ',' or ']' in array");
        }
        return Value(std::move(arr));
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            char c = get();
            if (c == '"')
                break;
            if (c == '\\') {
                char e = get();
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u': {
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = get();
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code += unsigned(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code += unsigned(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code += unsigned(h - 'A' + 10);
                        else
                            error("invalid \\u escape");
                    }
                    // Encode as UTF-8 (basic multilingual plane only;
                    // surrogate pairs are not needed for ET files).
                    if (code < 0x80) {
                        out += char(code);
                    } else if (code < 0x800) {
                        out += char(0xC0 | (code >> 6));
                        out += char(0x80 | (code & 0x3F));
                    } else {
                        out += char(0xE0 | (code >> 12));
                        out += char(0x80 | ((code >> 6) & 0x3F));
                        out += char(0x80 | (code & 0x3F));
                    }
                    break;
                  }
                  default:
                    error("invalid escape character");
                }
            } else {
                out += c;
            }
        }
        return out;
    }

    Value
    parseNumber()
    {
        size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        if (peek() == '.') {
            ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (pos_ == start)
            error("invalid number");
        std::string tok = text_.substr(start, pos_ - start);
        try {
            size_t used = 0;
            double v = std::stod(tok, &used);
            if (used != tok.size())
                error("invalid number '" + tok + "'");
            return Value(v);
        } catch (const std::exception &) {
            error("invalid number '" + tok + "'");
        }
    }

    const std::string &text_;
    size_t pos_ = 0;
};

} // namespace

Value
parse(const std::string &text)
{
    Parser p(text);
    return p.parseDocument();
}

Value
parseFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASTRA_USER_CHECK(f != nullptr, "json: cannot open '%s'", path.c_str());
    // The text is held once, sized from the file; reading to EOF
    // keeps pipes working.
    std::string text;
    struct stat st;
    if (fstat(fileno(f), &st) == 0)
        text.reserve(size_t(st.st_size));
    char buf[1 << 16];
    while (size_t n = std::fread(buf, 1, sizeof(buf), f))
        text.append(buf, n);
    const bool failed = std::ferror(f) != 0;
    std::fclose(f);
    ASTRA_USER_CHECK(!failed, "json: cannot read '%s'", path.c_str());
    return parse(text);
}

void
checkKeys(const Value &doc, const std::string &path,
          std::initializer_list<const char *> allowed)
{
    ASTRA_USER_CHECK(doc.isObject(), "%s: expected an object",
                     path.c_str());
    auto expected = [&allowed] {
        std::string out;
        for (const char *a : allowed)
            out += (out.empty() ? "" : " | ") + std::string(a);
        return out;
    };
    for (const auto &kv : doc.asObject())
        ASTRA_USER_CHECK(
            std::find(allowed.begin(), allowed.end(), kv.first) !=
                allowed.end(),
            "%s: unknown key '%s' (%s.%s; expected %s)", path.c_str(),
            kv.first.c_str(), path.c_str(), kv.first.c_str(),
            expected().c_str());
}

} // namespace json
} // namespace astra
