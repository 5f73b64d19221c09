/**
 * @file
 * The command-line front end shared by every example and bench binary.
 *
 * A binary declares each flag once, with its kind and a one-line help
 * string; the shared groups (trace, telemetry, log) are declared beside
 * the code that reads them and registered whole. runCli() parses argv,
 * applies the log group, answers `--help`, and turns a user error
 * (FatalError) into one `error: <message>` line on stderr and exit
 * code 2. panic() still aborts: it signals an internal bug.
 */
#ifndef ASTRA_COMMON_CLI_H_
#define ASTRA_COMMON_CLI_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"

namespace astra {

/** Whether a flag takes a value. */
enum class FlagKind {
    Switch,   //!< `--x` or `--x=true|false`; never takes the next token.
    Value,    //!< `--x V` or `--x=V`.
    Number,   //!< a Value that writeKeys() writes as a number.
    Optional, //!< `--x [V]`: takes the next token unless it is a flag.
};

/** One declared flag: name (without `--`), kind, one-line help, and
 *  the config-block key it sets, if any (CommandLine::writeKeys). */
struct Flag
{
    const char *name;
    FlagKind kind;
    const char *help;
    const char *key = nullptr;
};

using FlagGroup = std::vector<Flag>;

/** `--log-level L` and `--verbose`; runCli() applies them (default
 *  Warn, `--verbose` = Info, `--log-level` wins over both). */
FlagGroup logFlags();

/** Parse a whole token as an integer; fatal() naming `what` if any of
 *  it is left over. */
int64_t parseInt(const std::string &text, const std::string &what);

/** Parsed command line with typed lookups and defaults. */
class CommandLine
{
  public:
    /** Parse argv against the declared `flags`. An undeclared flag, a
     *  value flag without its value, or a switch set to anything but
     *  true/false/1/0/yes/no is fatal(). */
    CommandLine(int argc, const char *const *argv,
                const std::vector<Flag> &flags);

    bool has(const std::string &name) const;
    std::string getString(const std::string &name,
                          const std::string &dflt) const;
    /** Numeric lookups fatal() unless the value is one whole number. */
    double getDouble(const std::string &name, double dflt) const;
    int64_t getInt(const std::string &name, int64_t dflt) const;
    bool getBool(const std::string &name, bool dflt = false) const;

    /** Positional (non-flag) arguments, in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** Write each keyed flag of `flags` given here over `block[key]`
     *  (a null `block` becomes an object), so that the block's one
     *  JSON parser reads flags and files alike: a switch as a bool, a
     *  Number (which must use the whole token) as a number, any other
     *  value as a string. */
    void writeKeys(const FlagGroup &flags, json::Value &block) const;

  private:
    std::map<std::string, std::string> flags_;
    std::vector<std::string> positional_;
};

/** What a binary accepts; `--help` prints it. */
struct CliSpec
{
    /** One line per mode, e.g. "sweep_runner <spec.json> [flags]";
     *  empty means "<program> [flags]". */
    std::vector<std::string> usage = {};
    /** The binary's own flags first, then the shared groups. */
    std::vector<FlagGroup> groups = {};
    /** Positional arguments accepted; more is a user error. */
    size_t maxPositional = 0;
    /** Writes an example input to a path; when set, runCli() declares
     *  `--sample FILE` and answers it by writing FILE and exiting. */
    std::function<void(const std::string &)> sample = {};
};

/** Entry wrapper every binary's main() returns through (see the file
 *  comment): `body`'s exit code, 0 after `--help`, 2 on a user error. */
int runCli(int argc, const char *const *argv, const CliSpec &spec,
           const std::function<int(const CommandLine &)> &body);

} // namespace astra

#endif // ASTRA_COMMON_CLI_H_
