/**
 * @file
 * Command-line parsing tests.
 */

#include <gtest/gtest.h>

#include <climits>

#include "support/args.hh"

namespace m4ps
{
namespace
{

const std::set<std::string> kKnown{"width", "verbose", "rate", "name"};

ArgParser
parse(std::initializer_list<const char *> argv)
{
    std::vector<const char *> v{"prog"};
    v.insert(v.end(), argv.begin(), argv.end());
    return ArgParser(static_cast<int>(v.size()), v.data(), kKnown);
}

TEST(ArgParser, SpaceSeparatedValues)
{
    const ArgParser a = parse({"--width", "720", "--name", "x"});
    EXPECT_TRUE(a.has("width"));
    EXPECT_EQ(a.getInt("width", 0), 720);
    EXPECT_EQ(a.get("name"), "x");
}

TEST(ArgParser, EqualsSeparatedValues)
{
    const ArgParser a = parse({"--width=1024", "--rate=38400.5"});
    EXPECT_EQ(a.getInt("width", 0), 1024);
    EXPECT_DOUBLE_EQ(a.getDouble("rate", 0), 38400.5);
}

TEST(ArgParser, BooleanSwitches)
{
    const ArgParser a = parse({"--verbose", "--width", "64"});
    EXPECT_TRUE(a.getBool("verbose"));
    EXPECT_FALSE(a.getBool("name"));
    const ArgParser b = parse({"--verbose=false"});
    EXPECT_FALSE(b.getBool("verbose", true));
}

TEST(ArgParser, FallbacksWhenAbsent)
{
    const ArgParser a = parse({});
    EXPECT_EQ(a.getInt("width", 42), 42);
    EXPECT_DOUBLE_EQ(a.getDouble("rate", 1.5), 1.5);
    EXPECT_EQ(a.get("name", "dflt"), "dflt");
    EXPECT_TRUE(a.getBool("verbose", true));
}

TEST(ArgParser, PositionalArgumentsPreserved)
{
    const ArgParser a = parse({"input.bin", "--width", "16", "out"});
    ASSERT_EQ(a.positional().size(), 2u);
    EXPECT_EQ(a.positional()[0], "input.bin");
    EXPECT_EQ(a.positional()[1], "out");
}

TEST(ArgParser, UnknownFlagThrowsWithSuggestion)
{
    try {
        parse({"--widht", "720"});
        FAIL() << "expected ArgError";
    } catch (const ArgError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("unknown flag --widht"), std::string::npos)
            << what;
        EXPECT_NE(what.find("did you mean --width?"), std::string::npos)
            << what;
    }
}

TEST(ArgParser, UnknownFlagWithoutNearMissHasNoSuggestion)
{
    try {
        parse({"--zzzzzzzz"});
        FAIL() << "expected ArgError";
    } catch (const ArgError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("unknown flag --zzzzzzzz"),
                  std::string::npos)
            << what;
        EXPECT_EQ(what.find("did you mean"), std::string::npos) << what;
    }
}

TEST(ArgParser, DuplicateFlagThrows)
{
    EXPECT_THROW(parse({"--width", "1", "--width", "2"}), ArgError);
    EXPECT_THROW(parse({"--width=1", "--width=1"}), ArgError);
}

TEST(ArgParser, NonNumericValuesThrow)
{
    EXPECT_THROW(parse({"--width", "abc"}).getInt("width", 0), ArgError);
    EXPECT_THROW(parse({"--rate", "fast"}).getDouble("rate", 0),
                 ArgError);
    EXPECT_THROW(parse({"--width", "512"}).getIntInRange("width", 1, 1,
                                                         256),
                 ArgError);
}

TEST(ArgParser, OutOfRangeIntegersThrow)
{
    // 4294967328 is 2^32 + 32: cast from long it would run as 32.
    EXPECT_THROW(parse({"--width", "4294967328"}).getInt("width", 0),
                 ArgError);
    EXPECT_THROW(parse({"--width=-2147483649"}).getInt("width", 0),
                 ArgError);
    EXPECT_THROW(
        parse({"--width", "99999999999999999999"}).getInt("width", 0),
        ArgError);
    EXPECT_EQ(parse({"--width", "2147483647"}).getInt("width", 0), INT_MAX);
    EXPECT_EQ(parse({"--width=-2147483648"}).getInt("width", 0), INT_MIN);
}

TEST(ArgParser, UsageErrorsUseExitCodeTwo)
{
    EXPECT_EQ(ArgError::kExitCode, 2);
}

} // namespace
} // namespace m4ps
