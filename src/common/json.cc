#include "common/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
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

const Value &
Fields::at(size_t k) const
{
    if (!isObject_)
        whole_.asObject();
    ASTRA_USER_CHECK(has(k), "json: missing key '%.*s'",
                     int(keys_[k].size()), keys_[k].data());
    return slots_[k].value;
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

Reader
Reader::open(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASTRA_USER_CHECK(f != nullptr, "json: cannot open '%s'", path.c_str());
    Reader r{std::string_view()};
    r.path_ = path;
    r.file_.reset(f);
    r.storage_ = std::make_unique<char[]>(kBufferBytes);
    r.buf_ = r.storage_.get();
    return r;
}

void
Reader::countLines(size_t n)
{
    if (auto *nl = static_cast<const char *>(memrchr(buf_, '\n', n))) {
        lines_ += size_t(std::count(buf_, nl + 1, '\n'));
        lineStart_ = dropped_ + size_t(nl - buf_) + 1;
    }
}

bool
Reader::fill()
{
    if (!file_)
        return false;
    countLines(end_);
    dropped_ += end_;
    pos_ = 0;
    end_ = std::fread(storage_.get(), 1, kBufferBytes, file_.get());
    ASTRA_USER_CHECK(!std::ferror(file_.get()), "json: cannot read '%s'",
                     path_.c_str());
    return end_ > 0;
}

void
Reader::error(const std::string &msg)
{
    countLines(pos_);
    fatal("%s%sjson parse error at line %zu col %zu: %s", path_.c_str(),
          path_.empty() ? "" : ": ", lines_ + 1,
          dropped_ + pos_ - lineStart_ + 1, msg.c_str());
}

char
Reader::get()
{
    if (pos_ == end_ && !fill())
        error("unexpected end of input");
    return buf_[pos_++];
}

char
Reader::next()
{
    char c = peek();
    while (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
        c = peek();
    }
    return c;
}

Value
Reader::value()
{
    switch (next()) {
      case '{': {
        Object obj;
        object([&](std::string k) { obj[std::move(k)] = value(); });
        return Value(std::move(obj));
      }
      case '[': {
        Array arr;
        array([&] { arr.push_back(value()); });
        return Value(std::move(arr));
      }
      case '"':
        return Value(string());
      case 't':
        return literal("true", true);
      case 'f':
        return literal("false", false);
      case 'n':
        return literal("null", nullptr);
      default:
        return number();
    }
}

Value
Reader::literal(std::string_view lit, Value v)
{
    for (char c : lit)
        if (get() != c)
            error("invalid literal");
    return v;
}

bool
Reader::begin(char open, char close)
{
    next();
    if (get() != open)
        error(std::string("expected '") + open + "'");
    if (next() != close) {
        if (++depth_ > kMaxDepth)
            error("nesting deeper than " + std::to_string(kMaxDepth) +
                  " levels");
        return true;
    }
    ++pos_;
    return false;
}

std::string
Reader::key()
{
    if (next() != '"')
        error("expected object key string");
    std::string k = string();
    next();
    if (get() != ':')
        error("expected ':'");
    return k;
}

bool
Reader::more(char close)
{
    next();
    char c = get();
    if (c != ',' && c != close)
        error(close == '}' ? "expected ',' or '}' in object"
                           : "expected ',' or ']' in array");
    if (c == ',')
        return true;
    --depth_;
    return false;
}

void
Reader::end()
{
    if (next() != '\0' || pos_ < end_)
        error("trailing characters after JSON document");
}

std::string
Reader::string()
{
    // Escape letters, each followed by the byte it stands for.
    constexpr std::string_view kEscapes = "\"\"\\\\//b\bf\fn\nr\rt\t";
    ++pos_; // the opening quote, seen by the caller.
    std::string out;
    while (true) {
        // Copy the run up to the next quote or backslash at once.
        size_t run = pos_;
        while (run < end_ && buf_[run] != '"' && buf_[run] != '\\')
            ++run;
        out.append(buf_ + pos_, run - pos_);
        pos_ = run;
        char c = get();
        if (c == '"')
            return out;
        if (c != '\\') {
            out += c;
            continue;
        }
        char e = get();
        if (e != 'u') {
            size_t k = 0;
            while (k < kEscapes.size() && kEscapes[k] != e)
                k += 2;
            if (k == kEscapes.size())
                error("invalid escape character");
            out += kEscapes[k + 1];
            continue;
        }
        const char hex[4] = {get(), get(), get(), get()};
        unsigned code = 0;
        if (std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4)
            error("invalid \\u escape");
        // Encode as UTF-8 (basic multilingual plane only; surrogate
        // pairs are not needed for ET files).
        if (code < 0x80) {
            out += char(code);
            continue;
        }
        if (code >= 0x800)
            out += char(0xE0 | (code >> 12));
        out += char((code < 0x800 ? 0xC0 : 0x80) | ((code >> 6) & 0x3F));
        out += char(0x80 | (code & 0x3F));
    }
}

Value
Reader::number()
{
    std::string tok;
    for (char c = peek(); c && std::strchr("+-.0123456789Ee", c); c = peek())
        tok += buf_[pos_++];
    if (tok.empty() || tok[0] == '+')
        error("invalid number");
    // Out of range, subnormals included, is invalid, as it was for
    // std::stod.
    double v = 0;
    const char *end = tok.data() + tok.size();
    auto [stop, ec] = std::from_chars(tok.data(), end, v);
    if (ec != std::errc() || stop != end ||
        std::fpclassify(v) == FP_SUBNORMAL)
        error("invalid number '" + tok + "'");
    return Value(v);
}

Value
parse(std::string_view text)
{
    Reader r(text);
    Value v = r.value();
    r.end();
    return v;
}

Value
parseFile(const std::string &path)
{
    Reader r = Reader::open(path);
    Value v = r.value();
    r.end();
    return v;
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
