/**
 * @file
 * Minimal self-contained JSON value type, reader, and formatter
 * (files are written through OutputFile, common/output_file.h).
 *
 * Used for execution-trace (ET) files and simulator configuration.
 * Supports the full JSON grammar (objects, arrays, strings with
 * escapes, numbers, booleans, null). No external dependencies.
 */
#ifndef ASTRA_COMMON_JSON_H_
#define ASTRA_COMMON_JSON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
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

    bool isNull() const { return kind_ == Kind::Null; }
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
    /** Append dump(indent) to `out` as if nested `depth` levels into
     *  an indented document. */
    void dumpTo(std::string &out, int indent, int depth) const;

  private:
    Kind kind_;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::shared_ptr<Array> arr_;
    std::shared_ptr<Object> obj_;
};

/**
 * The one JSON tokenizer: a pull reader over a string, or over a file
 * read through a fixed buffer. value() parses the next value; object()
 * and array() walk a container a member at a time, so a loader holds
 * one record of a large file at a time. Syntax errors are fatal() with
 * the line and column, after the path when reading a file.
 */
class Reader
{
  public:
    /** Bytes read from a file at a time. */
    static constexpr size_t kBufferBytes = size_t(1) << 16;
    /** Deepest container nesting read; deeper is a syntax error, not
     *  a stack overflow in value(). */
    static constexpr size_t kMaxDepth = 1000;

    /** Read `text`, which must outlive the reader. */
    explicit Reader(std::string_view text) : buf_(text.data()),
                                             end_(text.size()) {}
    /** Read the file `path`; fatal() if it cannot be opened. */
    static Reader open(const std::string &path);

    /** The first character of the next value ('\0' at the end). */
    char next();
    /** Parse the next value. */
    Value value();
    /** Walk the object at the cursor: member(key) runs once per member
     *  and must consume its value. */
    template <typename F>
    void object(F &&member)
    {
        if (begin('{', '}'))
            do member(key()); while (more('}'));
    }
    /** Walk the array at the cursor: element() runs once per element
     *  and must consume it. */
    template <typename F>
    void array(F &&element)
    {
        if (begin('[', ']'))
            do element(); while (more(']'));
    }
    /** fatal() unless only whitespace is left. */
    void end();

  private:
    bool begin(char open, char close);
    std::string key();
    bool more(char close);
    std::string string();
    Value number();
    Value literal(std::string_view lit, Value v);
    char peek() { return pos_ < end_ || fill() ? buf_[pos_] : '\0'; }
    char get();
    bool fill(); //!< refill a used-up buffer; false at the end.
    void countLines(size_t n); //!< of buf_[0, n), into lines_.
    [[noreturn]] void error(const std::string &msg);

    std::string path_;
    std::unique_ptr<std::FILE, decltype(&std::fclose)> file_{nullptr,
                                                             std::fclose};
    std::unique_ptr<char[]> storage_;
    const char *buf_;
    size_t pos_ = 0, end_;
    size_t depth_ = 0; //!< containers opened and not yet closed.
    /** Bytes before buf_, their newlines, and where the line began. */
    size_t dropped_ = 0, lines_ = 0, lineStart_ = 0;
};

/**
 * One record read field by field, for loaders of files with a record
 * per node or event: the record type names its keys once, in a key
 * table, and read() keeps the member with key keys[k] in slot k, so no
 * Value tree is built per record. As in a parsed Value, the last of a
 * duplicated key wins, other keys are read and dropped, and a record
 * that is not an object is kept whole (has() is false, at() fails as
 * on that Value). The accessors are Value's, messages included. A
 * loader reuses one Fields for every record of a type.
 */
class Fields
{
  public:
    /** `keys` is the key table and must outlive the Fields. */
    template <size_t N>
    explicit Fields(const std::string_view (&keys)[N])
        : keys_(keys), slots_(N)
    {
    }

    /** Read the next value. `take(k)` runs first for each member with
     *  key keys[k], while has(k) tells whether an earlier member had
     *  it; if it returns true it has consumed the value itself (say, an
     *  array read an element at a time) and taken(k) is true, else the
     *  value goes into slot k. */
    template <typename F>
    void
    read(Reader &r, F &&take)
    {
        if (r.next() == '{')
            return readObject(r, take);
        for (Slot &s : slots_)
            s.present = false;
        isObject_ = false;
        whole_ = r.value();
    }
    void read(Reader &r) { read(r, [](size_t) { return false; }); }
    /** read() for a value that must be an object: anything else is a
     *  syntax error, as in Reader::object. */
    template <typename F>
    void
    readObject(Reader &r, F &&take)
    {
        for (Slot &s : slots_)
            s.present = false;
        isObject_ = true;
        r.object([&](const std::string &key) {
            size_t k = std::find(keys_, keys_ + slots_.size(), key) - keys_;
            if (k == slots_.size())
                return void(r.value()); // not a key of the record.
            Slot &s = slots_[k];
            s.taken = take(k);
            if (!s.taken)
                s.value = r.value();
            s.present = true;
        });
    }

    bool has(size_t k) const { return slots_[k].present; }
    bool taken(size_t k) const { return slots_[k].taken; }
    /** Slot k's value; fatal() if this is not an object or the key is
     *  missing. Not for a taken slot. */
    const Value &at(size_t k) const;

    double getNumber(size_t k, double d) const
    {
        return has(k) ? at(k).asNumber() : d;
    }
    int64_t getInt(size_t k, int64_t d) const
    {
        return has(k) ? at(k).asInt() : d;
    }
    bool getBool(size_t k, bool d) const { return has(k) ? at(k).asBool() : d; }
    std::string_view getString(size_t k, std::string_view d) const
    {
        return has(k) ? std::string_view(at(k).asString()) : d;
    }

  private:
    struct Slot
    {
        bool present = false, taken = false;
        Value value;
    };

    const std::string_view *keys_;
    std::vector<Slot> slots_;
    bool isObject_ = true;
    Value whole_; //!< the record when it is not an object.
};

/** Parse a JSON document; fatal() with line/column info on syntax error. */
Value parse(std::string_view text);

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
