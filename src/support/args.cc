#include "support/args.hh"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>

namespace m4ps
{

namespace
{

/** Levenshtein distance, for did-you-mean flag suggestions. */
size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<size_t> row(b.size() + 1);
    for (size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
        size_t diag = row[0];
        row[0] = i;
        for (size_t j = 1; j <= b.size(); ++j) {
            const size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
            const size_t next =
                std::min({row[j] + 1, row[j - 1] + 1, diag + cost});
            diag = row[j];
            row[j] = next;
        }
    }
    return row[b.size()];
}

std::string
suggestion(const std::string &flag, const std::set<std::string> &known)
{
    std::string best;
    size_t best_d = flag.size() / 2 + 1; // only near misses qualify
    for (const auto &k : known) {
        const size_t d = editDistance(flag, k);
        if (d < best_d) {
            best_d = d;
            best = k;
        }
    }
    return best.empty() ? "" : " (did you mean --" + best + "?)";
}

} // namespace

std::optional<int>
parseInt(const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const long n = std::strtol(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
        n < INT_MIN || n > INT_MAX)
        return std::nullopt;
    return static_cast<int>(n);
}

int
reportArgError(const char *prog, const ArgError &e)
{
    std::fprintf(stderr, "%s: %s\nrun '%s --help' for usage\n", prog,
                 e.what(), prog);
    return ArgError::kExitCode;
}

ArgParser::ArgParser(int argc, const char *const *argv,
                     const std::set<std::string> &known)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(std::move(arg));
            continue;
        }
        arg = arg.substr(2);
        std::string value;
        const size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
        } else if (i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
            value = argv[++i];
        } else {
            value = "true";
        }
        if (!known.count(arg))
            throw ArgError("unknown flag --" + arg +
                           suggestion(arg, known));
        if (values_.count(arg))
            throw ArgError("duplicate flag --" + arg +
                           " (given more than once; keep one)");
        values_[arg] = value;
    }
}

bool
ArgParser::has(const std::string &name) const
{
    return values_.count(name) != 0;
}

std::string
ArgParser::get(const std::string &name, const std::string &fallback) const
{
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
}

int
ArgParser::getInt(const std::string &name, int fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    const std::optional<int> v = parseInt(it->second);
    if (!v)
        throw ArgError("flag --" + name +
                       " expects a 32-bit integer, got '" + it->second +
                       "'");
    return *v;
}

int
ArgParser::getIntInRange(const std::string &name, int fallback,
                         int min_v, int max_v) const
{
    const int v = getInt(name, fallback);
    if (v < min_v || v > max_v)
        throw ArgError("flag --" + name + " must be in [" +
                       std::to_string(min_v) + ", " +
                       std::to_string(max_v) + "], got " +
                       std::to_string(v));
    return v;
}

double
ArgParser::getDouble(const std::string &name, double fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    char *end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        throw ArgError("flag --" + name + " expects a number, got '" +
                       it->second + "'");
    return v;
}

bool
ArgParser::getBool(const std::string &name, bool fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    return it->second != "false" && it->second != "0";
}

} // namespace m4ps
