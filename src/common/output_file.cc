#include "common/output_file.h"

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <utility>

#include "common/logging.h"

namespace astra {

char *
appendFixed(char *out, double v, int precision)
{
    // printf prints the exact binary value rounded half to even. While
    // |v| * 10^precision < 2^52 that rounding is done in doubles at
    // half the cost of to_chars: the product p and its error e (by
    // fma) are exact, and e only matters when p is halfway between
    // integers. to_chars takes everything else (large values, inf,
    // nan).
    static constexpr double kPow10[] = {1e0, 1e1, 1e2, 1e3, 1e4,
                                        1e5, 1e6, 1e7, 1e8, 1e9};
    const double a = std::fabs(v);
    const double scale =
        unsigned(precision) < std::size(kPow10) ? kPow10[precision] : 0.0;
    const double p = a * scale;
    if (scale == 0.0 || !(p < 0x1p52))
        return std::to_chars(out, out + kMaxFixedChars, v,
                             std::chars_format::fixed, precision)
            .ptr;
    const double e = std::fma(a, scale, -p);
    double r = std::nearbyint(p); // ties to even.
    if (p - r == 0.5 && e > 0.0)
        r += 1.0;
    else if (p - r == -0.5 && e < 0.0)
        r -= 1.0;
    const uint64_t q = uint64_t(r);
    const uint64_t s = uint64_t(scale);
    if (std::signbit(v))
        *out++ = '-';
    out = appendInt(out, (long long)(q / s));
    if (precision == 0)
        return out;
    // s + fraction prints as "1" and the zero-padded digits; the point
    // then takes the 1's place.
    char *point = out;
    out = appendInt(out, (long long)(s + q % s));
    *point = '.';
    return out;
}

char *
appendEscaped(char *out, std::string_view s)
{
    static const char kHex[] = "0123456789abcdef";
    for (char c : s) {
        const unsigned char u = static_cast<unsigned char>(c);
        if (u >= 0x20 && c != '"' && c != '\\') {
            *out++ = c;
            continue;
        }
        *out++ = '\\';
        switch (c) {
          case '"':
          case '\\': *out++ = c; break;
          case '\n': *out++ = 'n'; break;
          case '\t': *out++ = 't'; break;
          default:
            out = append(out, "u00");
            *out++ = kHex[u >> 4];
            *out++ = kHex[u & 15];
        }
    }
    return out;
}

std::string
jsonEscape(std::string_view s)
{
    std::string out(kMaxEscapedPerByte * s.size(), '\0');
    out.resize(size_t(appendEscaped(out.data(), s) - out.data()));
    return out;
}

OutputFile::OutputFile(std::string path, const char *what)
    : path_(std::move(path)), what_(what),
      file_(std::fopen(path_.c_str(), "w"))
{
    if (file_ == nullptr)
        fail();
    // This class is the buffer; stdio's own would only copy twice.
    std::setvbuf(file_, nullptr, _IONBF, 0);
    buf_.reset(new char[capacity_]);
    cur_ = buf_.get();
    end_ = cur_ + capacity_;
}

void
OutputFile::write(std::string path, const char *what, std::string_view text)
{
    OutputFile out(std::move(path), what);
    out.put(text);
    out.close();
}

OutputFile::~OutputFile()
{
    if (file_ != nullptr)
        std::fclose(file_);
}

void
OutputFile::fail() const
{
    fatal("cannot write %s %s: %s", what_, path_.c_str(),
          std::strerror(errno));
}

void
OutputFile::flush()
{
    size_t n = size_t(cur_ - buf_.get());
    if (n > 0 && std::fwrite(buf_.get(), 1, n, file_) != n)
        fail();
    cur_ = buf_.get();
}

void
OutputFile::makeRoom(size_t n)
{
    flush();
    if (n > capacity_) {
        capacity_ = n;
        buf_.reset(new char[capacity_]);
        cur_ = buf_.get();
        end_ = cur_ + capacity_;
    }
}

void
OutputFile::put(std::string_view s)
{
    if (s.size() <= capacity_) {
        commit(append(reserve(s.size()), s));
        return;
    }
    flush();
    if (std::fwrite(s.data(), 1, s.size(), file_) != s.size())
        fail();
}

void
OutputFile::close()
{
    // Every fwrite was checked as it went; the stream is unbuffered,
    // so fclose only has the close itself left to fail.
    flush();
    std::FILE *f = file_;
    file_ = nullptr;
    if (std::fclose(f) != 0)
        fail();
}

} // namespace astra
