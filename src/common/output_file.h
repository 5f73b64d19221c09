/**
 * @file
 * The one writer for every file the simulator produces: JSON
 * documents (results, reports, manifests, execution traces, samples),
 * CSV tables, heartbeat streams and the Chrome trace exports. Text is
 * buffered 1 MiB at a time; hot exporters format records straight
 * into the buffer through the append* helpers below. Every write and
 * the close are checked, so a full disk is a user error naming the
 * file instead of a silently truncated output.
 */
#ifndef ASTRA_COMMON_OUTPUT_FILE_H_
#define ASTRA_COMMON_OUTPUT_FILE_H_

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

namespace astra {

/** Longest printf("%.*f") of a double at precision <= 16: sign, 309
 *  integer digits, point and fraction. */
constexpr size_t kMaxFixedChars = 1 + 309 + 1 + 16;
/** Longest printf("%lld"). */
constexpr size_t kMaxIntChars = 20;
/** Most bytes appendEscaped() writes per input byte ("\u00XX"). */
constexpr size_t kMaxEscapedPerByte = 6;

/** Write `v` as printf("%.*f", precision, v) does in the C locale,
 *  byte for byte, into [out, out + kMaxFixedChars); returns the end. */
char *appendFixed(char *out, double v, int precision);

inline char *
appendInt(char *out, long long v)
{
    return std::to_chars(out, out + kMaxIntChars, v).ptr;
}

inline char *
append(char *out, std::string_view s)
{
    return std::copy(s.begin(), s.end(), out);
}

/** `s` as the body of a JSON string, into at most
 *  kMaxEscapedPerByte * s.size() bytes: `"`, `\`, `\n` and `\t` get a
 *  backslash, other bytes below 0x20 become `\u00XX`, everything else
 *  (UTF-8 included) is copied. */
char *appendEscaped(char *out, std::string_view s);

/** appendEscaped() into a string. */
std::string jsonEscape(std::string_view s);

/** See file comment. */
class OutputFile
{
  public:
    /** Open `path` for writing; fatal() naming `what` (e.g. "trace
     *  file") and the path if it cannot be opened. */
    OutputFile(std::string path, const char *what);
    /** Write the whole of `text` to `path` and close it. */
    static void write(std::string path, const char *what,
                      std::string_view text);
    /** Closes without checking: only reached unchecked when an
     *  error is already propagating. */
    ~OutputFile();
    OutputFile(const OutputFile &) = delete;
    OutputFile &operator=(const OutputFile &) = delete;

    /** Room for `n` bytes at the returned pointer; write at most that
     *  many, then hand the end to commit(). */
    char *reserve(size_t n)
    {
        if (size_t(end_ - cur_) < n)
            makeRoom(n);
        return cur_;
    }
    void commit(char *end) { cur_ = end; }
    /** Append `s`; one longer than the buffer is written directly. */
    void put(std::string_view s);
    /** Write out the buffer now (live streams: once per record). */
    void flush();

    /** Write out the buffer and close; fatal() with strerror on any
     *  write error. */
    void close();

  private:
    /** Write out the buffer, growing it if `n` bytes still don't fit
     *  (a record with a name longer than the buffer). */
    void makeRoom(size_t n);
    [[noreturn]] void fail() const;

    std::string path_;
    const char *what_;
    std::FILE *file_;
    std::unique_ptr<char[]> buf_;
    size_t capacity_ = size_t(1) << 20;
    char *cur_;
    char *end_;
};

} // namespace astra

#endif // ASTRA_COMMON_OUTPUT_FILE_H_
