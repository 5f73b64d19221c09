/**
 * @file
 * gem5-style status/error reporting helpers.
 *
 * Severity model (following the gem5 coding style guide):
 *  - inform(): normal operating message, no connotation of misbehaviour.
 *  - warn():   something may be modelled imperfectly; simulation continues.
 *  - fatal():  the simulation cannot continue due to a *user* error
 *              (bad configuration, invalid arguments). Throws
 *              FatalError so tests can assert on misconfiguration.
 *  - panic():  an internal simulator bug; should never happen regardless
 *              of user input. Aborts the process.
 */
#ifndef ASTRA_COMMON_LOGGING_H_
#define ASTRA_COMMON_LOGGING_H_

#include <cstdio>
#include <stdexcept>
#include <string>

namespace astra {

/** Error thrown by fatal(): a user-level misconfiguration. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

namespace detail {

std::string formatV(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace detail

/**
 * Leveled logging. Messages carry a severity and an optional
 * subsystem tag; anything above the global threshold is dropped at
 * the call site. Error/Warn go to stderr, Info/Debug to stdout.
 * fatal()/panic() are not levels — they are control flow (throw /
 * abort) and always fire.
 */
enum class LogLevel {
    Error = 0, //!< always printed (reserved for non-fatal errors).
    Warn  = 1, //!< something may be modelled imperfectly.
    Info  = 2, //!< normal operating messages (default threshold).
    Debug = 3, //!< high-volume diagnostics, off by default.
};

/** Global threshold: messages with level > threshold are dropped. */
void setLogLevel(LogLevel level);
LogLevel logLevel();
/** True when `level` messages currently print (guard expensive
 *  message construction with this). */
bool logEnabled(LogLevel level);

const char *logLevelName(LogLevel level);
/** Parse "error"|"warn"|"info"|"debug" (CLI --log-level); fatal()
 *  on anything else. */
LogLevel logLevelFromString(const std::string &name);

/** Core sink: print `msg` at `level` with an optional subsystem tag
 *  (nullptr = untagged), honoring the global threshold. */
void logStr(LogLevel level, const char *tag, const std::string &msg);

/** Formatted, tagged message at an explicit level. */
template <typename... Args>
void
logmsg(LogLevel level, const char *tag, const char *fmt, Args... args)
{
    if (!logEnabled(level))
        return;
    if constexpr (sizeof...(Args) == 0)
        logStr(level, tag, fmt);
    else
        logStr(level, tag, detail::formatV(fmt, args...));
}

/** Print a normal status message to stdout (when >= Info). */
void informStr(const std::string &msg);
/** Print a warning to stderr. */
void warnStr(const std::string &msg);
/** Abort the simulation with a user-error message (throws FatalError). */
[[noreturn]] void fatalStr(const std::string &msg);
/** Abort the process on an internal invariant violation. */
[[noreturn]] void panicStr(const std::string &msg);

template <typename... Args>
void
inform(const char *fmt, Args... args)
{
    if constexpr (sizeof...(Args) == 0)
        informStr(fmt);
    else
        informStr(detail::formatV(fmt, args...));
}

template <typename... Args>
void
warn(const char *fmt, Args... args)
{
    if constexpr (sizeof...(Args) == 0)
        warnStr(fmt);
    else
        warnStr(detail::formatV(fmt, args...));
}

/** Debug-level diagnostic (dropped unless the threshold is Debug). */
template <typename... Args>
void
debug(const char *fmt, Args... args)
{
    logmsg(LogLevel::Debug, nullptr, fmt, args...);
}

/** Tagged variants: `tag` names the subsystem ("flow", "cluster",
 *  "fault", "trace", ...) and prints as `info: [flow] ...`. */
template <typename... Args>
void
informT(const char *tag, const char *fmt, Args... args)
{
    logmsg(LogLevel::Info, tag, fmt, args...);
}

template <typename... Args>
void
warnT(const char *tag, const char *fmt, Args... args)
{
    logmsg(LogLevel::Warn, tag, fmt, args...);
}

template <typename... Args>
void
debugT(const char *tag, const char *fmt, Args... args)
{
    logmsg(LogLevel::Debug, tag, fmt, args...);
}

template <typename... Args>
[[noreturn]] void
fatal(const char *fmt, Args... args)
{
    if constexpr (sizeof...(Args) == 0)
        fatalStr(fmt);
    else
        fatalStr(detail::formatV(fmt, args...));
}

template <typename... Args>
[[noreturn]] void
panic(const char *fmt, Args... args)
{
    if constexpr (sizeof...(Args) == 0)
        panicStr(fmt);
    else
        panicStr(detail::formatV(fmt, args...));
}

/** fatal() unless the user-facing condition holds. */
#define ASTRA_USER_CHECK(cond, ...)                                        \
    do {                                                                   \
        if (!(cond))                                                       \
            ::astra::fatal(__VA_ARGS__);                                   \
    } while (0)

/** panic() unless the internal invariant holds. */
#define ASTRA_ASSERT(cond, ...)                                            \
    do {                                                                   \
        if (!(cond))                                                       \
            ::astra::panic(__VA_ARGS__);                                   \
    } while (0)

} // namespace astra

#endif // ASTRA_COMMON_LOGGING_H_
