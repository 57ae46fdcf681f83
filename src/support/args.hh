/**
 * @file
 * Minimal command-line flag parsing for the tool binaries.
 *
 * Supports "--name value" and "--name=value" pairs plus boolean
 * switches; unknown or duplicate flags are errors so typos do not
 * silently run the wrong experiment.  Usage problems throw ArgError
 * (with a did-you-mean hint for near-miss flag names) rather than
 * terminating the process, so tools can print the message, point at
 * --help, and exit with the conventional usage status 2 - a bad
 * manifest or mistyped flag is the caller's mistake, not a fatal
 * condition of ours.
 */

#ifndef M4PS_SUPPORT_ARGS_HH
#define M4PS_SUPPORT_ARGS_HH

#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace m4ps
{

/** A command line that cannot be honored (unknown flag, bad value). */
class ArgError : public std::runtime_error
{
  public:
    explicit ArgError(const std::string &what)
        : std::runtime_error(what)
    {}

    /** Conventional exit status for usage errors. */
    static constexpr int kExitCode = 2;
};

/**
 * The base-10 integer spelled by the whole of @p text (strtol syntax),
 * or nullopt if @p text is not one or lies outside int.  Command-line
 * flags and job-spec keys both read integers through it, so a value
 * such as 4294967328 is an error rather than a wrapped 32.
 */
std::optional<int> parseInt(const std::string &text);

/**
 * Catch-all main() wrapper policy: report @p e on stderr with the
 * program name and a pointer at --help, returning ArgError::kExitCode
 * for the caller to pass to exit.
 */
int reportArgError(const char *prog, const ArgError &e);

/** Parsed command line: flag/value pairs with typed accessors. */
class ArgParser
{
  public:
    /**
     * Parse argv.  @p known lists every accepted flag name (without
     * the leading dashes); anything else - or the same flag given
     * twice - throws ArgError.  Flags without a following value (or
     * followed by another flag) parse as boolean "true".
     */
    ArgParser(int argc, const char *const *argv,
              const std::set<std::string> &known);

    bool has(const std::string &name) const;

    /** String value, or @p fallback when absent. */
    std::string get(const std::string &name,
                    const std::string &fallback = "") const;

    /** Integer value with validation; ArgError on garbage. */
    int getInt(const std::string &name, int fallback) const;

    /** Integer restricted to [min_v, max_v]; ArgError outside it. */
    int getIntInRange(const std::string &name, int fallback, int min_v,
                      int max_v) const;

    /** Floating-point value with validation. */
    double getDouble(const std::string &name, double fallback) const;

    /** Boolean switch: present (without "false"/"0") means true. */
    bool getBool(const std::string &name, bool fallback = false) const;

    /** Positional (non-flag) arguments, in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

  private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

} // namespace m4ps

#endif // M4PS_SUPPORT_ARGS_HH
