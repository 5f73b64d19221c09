#include "common/cli.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"

namespace astra {

FlagGroup
logFlags()
{
    return {{"log-level", FlagKind::Value, "error | warn | info | debug"},
            {"verbose", FlagKind::Switch, "same as --log-level info"}};
}

int64_t
parseInt(const std::string &text, const std::string &what)
{
    char *end = nullptr;
    errno = 0;
    long long v = std::strtoll(text.c_str(), &end, 10);
    ASTRA_USER_CHECK(!text.empty() && *end == '\0' && errno == 0,
                     "%s expects an integer, got '%s'", what.c_str(),
                     text.c_str());
    return v;
}

CommandLine::CommandLine(int argc, const char *const *argv,
                         const std::vector<Flag> &flags)
{
    for (int i = 1; i < argc; ++i) {
        std::string name = argv[i];
        if (name.rfind("--", 0) != 0) {
            positional_.push_back(name);
            continue;
        }
        name.erase(0, 2);
        size_t eq = name.find('=');
        bool inline_value = eq != std::string::npos;
        std::string value = inline_value ? name.substr(eq + 1) : "";
        name = name.substr(0, eq);
        auto flag = std::find_if(flags.begin(), flags.end(),
                                 [&](const Flag &f) { return name == f.name; });
        ASTRA_USER_CHECK(flag != flags.end(), "unknown flag --%s (see --help)",
                         name.c_str());
        bool next_is_value =
            i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0;
        if (flag->kind == FlagKind::Switch) {
            if (!inline_value || value == "true" || value == "1" ||
                value == "yes")
                value = "true";
            else if (value == "false" || value == "0" || value == "no")
                value = "false";
            else
                fatal("flag --%s is a switch: expected true or false, "
                      "got '%s'", name.c_str(), value.c_str());
        } else if (!inline_value && next_is_value) {
            value = argv[++i];
        } else {
            ASTRA_USER_CHECK(inline_value || flag->kind == FlagKind::Optional,
                             "flag --%s expects a value", name.c_str());
        }
        flags_[name] = value;
    }
}

bool
CommandLine::has(const std::string &name) const
{
    return flags_.count(name) > 0;
}

std::string
CommandLine::getString(const std::string &name, const std::string &dflt) const
{
    auto it = flags_.find(name);
    return it == flags_.end() ? dflt : it->second;
}

double
CommandLine::getDouble(const std::string &name, double dflt) const
{
    if (!has(name))
        return dflt;
    const std::string &text = flags_.at(name);
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(text.c_str(), &end);
    ASTRA_USER_CHECK(!text.empty() && *end == '\0' && errno == 0,
                     "flag --%s expects a number, got '%s'", name.c_str(),
                     text.c_str());
    return v;
}

int64_t
CommandLine::getInt(const std::string &name, int64_t dflt) const
{
    return has(name) ? parseInt(flags_.at(name), "flag --" + name) : dflt;
}

bool
CommandLine::getBool(const std::string &name, bool dflt) const
{
    return has(name) ? flags_.at(name) == "true" : dflt;
}

void
CommandLine::writeKeys(const FlagGroup &flags, json::Value &block) const
{
    json::Object &out = block.mutableObject();
    for (const Flag &f : flags) {
        if (f.key == nullptr || !has(f.name))
            continue;
        if (f.kind == FlagKind::Switch)
            out[f.key] = json::Value(getBool(f.name));
        else if (f.kind == FlagKind::Number)
            out[f.key] = json::Value(getDouble(f.name, 0.0));
        else
            out[f.key] = json::Value(getString(f.name, ""));
    }
}

int
runCli(int argc, const char *const *argv, const CliSpec &spec,
       const std::function<int(const CommandLine &)> &body)
{
    std::vector<Flag> flags;
    for (const FlagGroup &group : spec.groups)
        flags.insert(flags.end(), group.begin(), group.end());
    if (spec.sample)
        flags.push_back(
            {"sample", FlagKind::Value, "write an example input and exit"});
    flags.push_back({"help", FlagKind::Switch, "print this help and exit"});
    try {
        CommandLine cl(argc, argv, flags);
        if (cl.getBool("help")) {
            std::vector<std::string> usage = spec.usage;
            if (usage.empty()) {
                std::string prog = argv[0];
                usage.push_back(prog.substr(prog.rfind('/') + 1) +
                                " [flags]");
            }
            for (size_t i = 0; i < usage.size(); ++i)
                std::printf("%s%s\n", i == 0 ? "usage: " : "       ",
                            usage[i].c_str());
            std::printf("\nflags:\n");
            for (const Flag &f : flags) {
                const char *arg = f.kind == FlagKind::Switch     ? ""
                                  : f.kind == FlagKind::Optional ? " [VALUE]"
                                                                 : " VALUE";
                std::string synopsis = std::string("--") + f.name + arg;
                std::printf("  %-30s %s\n", synopsis.c_str(), f.help);
            }
            return 0;
        }
        if (cl.has("sample")) {
            spec.sample(cl.getString("sample", ""));
            std::printf("wrote %s\n", cl.getString("sample", "").c_str());
            return 0;
        }
        ASTRA_USER_CHECK(cl.positional().size() <= spec.maxPositional,
                         "unexpected argument '%s' (see --help)",
                         cl.positional()[spec.maxPositional].c_str());
        LogLevel level =
            cl.getBool("verbose") ? LogLevel::Info : LogLevel::Warn;
        if (cl.has("log-level"))
            level = logLevelFromString(cl.getString("log-level", ""));
        setLogLevel(level);
        return body(cl);
    } catch (const FatalError &e) {
        // Messages quote user input (flags, JSON keys); keep the
        // report to one line whatever they contain.
        std::string msg = e.what();
        std::replace(msg.begin(), msg.end(), '\n', ' ');
        std::fflush(stdout);
        std::fprintf(stderr, "error: %s\n", msg.c_str());
        return 2;
    }
}

} // namespace astra
