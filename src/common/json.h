/**
 * @file
 * Minimal self-contained JSON value type, parser, and formatter
 * (files are written through OutputFile, common/output_file.h).
 *
 * Used for execution-trace (ET) files and simulator configuration.
 * Supports the full JSON grammar (objects, arrays, strings with
 * escapes, numbers, booleans, null). No external dependencies.
 */
#ifndef ASTRA_COMMON_JSON_H_
#define ASTRA_COMMON_JSON_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace astra {
namespace json {

class Value;

using Array = std::vector<Value>;
/** std::map keeps keys ordered, giving deterministic serialization. */
using Object = std::map<std::string, Value>;

/** Discriminated union over the JSON value kinds. */
enum class Kind { Null, Bool, Number, String, Array, Object };

/**
 * A JSON value with value semantics.
 *
 * Accessors come in two flavours: checked (asX(), fatal() on kind
 * mismatch — user error, since these come from user-supplied files)
 * and lookup helpers with defaults (getX()).
 */
class Value
{
  public:
    Value() : kind_(Kind::Null) {}
    Value(std::nullptr_t) : kind_(Kind::Null) {}
    Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    Value(double n) : kind_(Kind::Number), num_(n) {}
    Value(int n) : kind_(Kind::Number), num_(n) {}
    Value(int64_t n) : kind_(Kind::Number), num_(double(n)) {}
    Value(uint64_t n) : kind_(Kind::Number), num_(double(n)) {}
    Value(const char *s) : kind_(Kind::String), str_(s) {}
    Value(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
    Value(Array a)
        : kind_(Kind::Array), arr_(std::make_shared<Array>(std::move(a))) {}
    Value(Object o)
        : kind_(Kind::Object), obj_(std::make_shared<Object>(std::move(o))) {}

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Checked accessors; fatal() on kind mismatch. */
    bool asBool() const;
    double asNumber() const;
    int64_t asInt() const;
    const std::string &asString() const;
    const Array &asArray() const;
    const Object &asObject() const;

    /** Mutable access (copy-on-write is not needed; shared for cheap copy,
     *  callers building documents own the unique reference). */
    Array &mutableArray();
    Object &mutableObject();

    /** Object member lookup; fatal() if not an object or key missing. */
    const Value &at(const std::string &key) const;
    /** True if this is an object containing key. */
    bool has(const std::string &key) const;

    /** Lookup with defaults (no error if missing). */
    double getNumber(const std::string &key, double dflt) const;
    int64_t getInt(const std::string &key, int64_t dflt) const;
    bool getBool(const std::string &key, bool dflt) const;
    std::string getString(const std::string &key,
                          const std::string &dflt) const;

    /**
     * Deep copy. Copy construction shares arrays/objects (cheap value
     * semantics for readers); clone() is for callers that mutate a
     * document built from another, e.g. the sweep engine overlaying
     * axis values onto a shared base config.
     */
    Value clone() const;

    /** Serialize; indent < 0 means compact single-line output. */
    std::string dump(int indent = -1) const;

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Kind kind_;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::shared_ptr<Array> arr_;
    std::shared_ptr<Object> obj_;
};

/** Parse a JSON document; fatal() with line/column info on syntax error. */
Value parse(const std::string &text);

/** Parse the JSON document stored in a file; fatal() if unreadable. */
Value parseFile(const std::string &path);

/** fatal() with "<path>: expected an integer in [lo, hi], got <v>". */
[[noreturn]] void badInt(const std::string &path, const Value &v,
                         int64_t lo, int64_t hi);

/**
 * `v` as an integer in [lo, hi], for fields that are narrowed or used
 * as keys: fatal() (badInt) if it is not a number, not integral, or
 * out of range. `path()` names the field and runs only on failure.
 * `lo` and `hi` must be exact doubles (|x| <= 2^53).
 */
template <typename PathFn>
int64_t
checkedInt(const Value &v, int64_t lo, int64_t hi, PathFn &&path)
{
    if (v.isNumber()) {
        double d = v.asNumber();
        if (d >= double(lo) && d <= double(hi) && d == double(int64_t(d)))
            return int64_t(d);
    }
    badInt(path(), v, lo, hi);
}

/** Keys and tags round-trip through JSON numbers (doubles), so they
 *  must stay below 2^53. */
constexpr int64_t kMaxExactInt = (int64_t(1) << 53) - 1;

/** fatal() unless `doc` is an object whose keys are all `allowed`. The
 *  message reads "<path>: unknown key '<k>'", then the key's full path
 *  and the allowed keys, so a typo names its own fix. */
void checkKeys(const Value &doc, const std::string &path,
               std::initializer_list<const char *> allowed);

} // namespace json
} // namespace astra

#endif // ASTRA_COMMON_JSON_H_
