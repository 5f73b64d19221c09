#include "common/logging.h"

#include <cstdarg>
#include <cstdlib>
#include <iostream>

namespace astra {

namespace {

LogLevel g_level = LogLevel::Info;

} // namespace

namespace detail {

std::string
formatV(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (len < 0) {
        va_end(args_copy);
        return std::string(fmt);
    }
    std::string out(static_cast<size_t>(len), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
    va_end(args_copy);
    return out;
}

} // namespace detail

void
setLogLevel(LogLevel level)
{
    g_level = level;
}

LogLevel
logLevel()
{
    return g_level;
}

bool
logEnabled(LogLevel level)
{
    return static_cast<int>(level) <= static_cast<int>(g_level);
}

const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Error: return "error";
      case LogLevel::Warn:  return "warn";
      case LogLevel::Info:  return "info";
      case LogLevel::Debug: return "debug";
    }
    return "?";
}

LogLevel
logLevelFromString(const std::string &name)
{
    if (name == "error")
        return LogLevel::Error;
    if (name == "warn")
        return LogLevel::Warn;
    if (name == "info")
        return LogLevel::Info;
    if (name == "debug")
        return LogLevel::Debug;
    fatal("unknown log level \"%s\" (expected error|warn|info|debug)",
          name.c_str());
}

void
logStr(LogLevel level, const char *tag, const std::string &msg)
{
    if (!logEnabled(level))
        return;
    std::ostream &out =
        static_cast<int>(level) <= static_cast<int>(LogLevel::Warn)
            ? std::cerr
            : std::cout;
    out << logLevelName(level) << ": ";
    if (tag)
        out << '[' << tag << "] ";
    out << msg << "\n";
}

void
informStr(const std::string &msg)
{
    logStr(LogLevel::Info, nullptr, msg);
}

void
warnStr(const std::string &msg)
{
    logStr(LogLevel::Warn, nullptr, msg);
}

void
fatalStr(const std::string &msg)
{
    throw FatalError(msg);
}

void
panicStr(const std::string &msg)
{
    std::cerr << "panic: " << msg << std::endl;
    std::abort();
}

} // namespace astra
