/**
 * @file
 * Regression tests for the bench flag layer: BenchOptions::parse must
 * never silently accept an argument. Unknown flags, flags outside the
 * binary's declared subset, and malformed values all exit(2) with a
 * diagnostic; --help exits(0). (An earlier version of the harness
 * ignored anything it did not recognize, so flag typos ran the default
 * configuration without a word.)
 */

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "harness/options.hh"
#include "sim/arena.hh"
#include "sim/error.hh"
#include "sim/spec.hh"

namespace {

using namespace dss;
using harness::BenchOptions;

/** argv helper: parse() wants mutable char* in the usual main() shape. */
struct Argv
{
    explicit Argv(std::vector<std::string> args) : strings(std::move(args))
    {
        ptrs.push_back(const_cast<char *>("bench"));
        for (std::string &s : strings)
            ptrs.push_back(s.data());
    }

    int argc() const { return static_cast<int>(ptrs.size()); }
    char **argv() { return ptrs.data(); }

    std::vector<std::string> strings;
    std::vector<char *> ptrs;
};

BenchOptions
parseArgs(std::vector<std::string> args, unsigned flags = BenchOptions::kAll)
{
    Argv a(std::move(args));
    return BenchOptions::parse(a.argc(), a.argv(), "bench", flags);
}

TEST(BenchOptionsDeath, UnknownFlagIsFatal)
{
    EXPECT_EXIT(parseArgs({"--bogus"}), testing::ExitedWithCode(2),
                "unknown option '--bogus'");
    // The retired engine knobs: a stale script must stop, not run.
    for (const char *knob : {"engine", "threads", "window"}) {
        const std::string flag = std::string("--") + knob;
        EXPECT_EXIT(parseArgs({flag, "1"}), testing::ExitedWithCode(2),
                    "unknown option '" + flag + "'");
    }
    // So must the retired trace-cache bound and page-histogram file,
    // even for a stream bench.
    const unsigned stream = BenchOptions::kAll | BenchOptions::kStream;
    EXPECT_EXIT(parseArgs({"--trace-cache", "on"}, stream),
                testing::ExitedWithCode(2),
                "unknown option '--trace-cache'");
    EXPECT_EXIT(parseArgs({"--page-profile", "h.json"}, stream),
                testing::ExitedWithCode(2),
                "unknown option '--page-profile'");
    // And the retired stream deadline, queue bound, shed policy and
    // circuit breaker.
    const std::pair<const char *, const char *> retired[] = {
        {"--deadline", "1"},
        {"--queue-cap", "1"},
        {"--shed", "newest"},
        {"--breaker", "0.5"},
    };
    for (const auto &[flag, value] : retired) {
        EXPECT_EXIT(parseArgs({flag, value}, stream),
                    testing::ExitedWithCode(2),
                    "unknown option '" + std::string(flag) + "'");
    }
}

TEST(BenchOptionsDeath, MisspelledFlagIsFatal)
{
    // The regression that motivated this file: a typo used to fall
    // through silently and the bench ran with defaults.
    EXPECT_EXIT(parseArgs({"--scael", "tiny"}), testing::ExitedWithCode(2),
                "unknown option '--scael'");
}

TEST(BenchOptionsDeath, PositionalArgumentIsFatal)
{
    EXPECT_EXIT(parseArgs({"tiny"}), testing::ExitedWithCode(2),
                "unknown option 'tiny'");
}

TEST(BenchOptionsDeath, FlagOutsideDeclaredSubsetIsFatal)
{
    EXPECT_EXIT(parseArgs({"--json", "out.json"}, BenchOptions::kScale),
                testing::ExitedWithCode(2),
                "not supported by this bench");
}

TEST(BenchOptionsDeath, MissingValueIsFatal)
{
    EXPECT_EXIT(parseArgs({"--json"}), testing::ExitedWithCode(2),
                "requires a value");
}

TEST(BenchOptionsDeath, BadScaleIsFatal)
{
    EXPECT_EXIT(parseArgs({"--scale", "huge"}), testing::ExitedWithCode(2),
                "unknown --scale 'huge'");
}

TEST(BenchOptionsDeath, MalformedEpochIsFatal)
{
    for (const char *v : {"-1", "18446744073709551616"})
        EXPECT_EXIT(parseArgs({"--epoch", v}), testing::ExitedWithCode(2),
                    "--epoch needs a positive count");
}

TEST(BenchOptionsDeath, HelpExitsZero)
{
    // (usage goes to stdout, which EXPECT_EXIT does not capture — the
    // exit code is the assertion here.)
    EXPECT_EXIT(parseArgs({"--help"}), testing::ExitedWithCode(0), "");
}

TEST(BenchOptions, DefaultsToPaperScale)
{
    BenchOptions o = parseArgs({});
    EXPECT_EQ(o.scale, "paper");
}

TEST(BenchOptions, CheckFlagParses)
{
    EXPECT_TRUE(parseArgs({"--check"}).check);
}

TEST(BenchOptions, RobustnessFlagsDefaultOff)
{
    BenchOptions o = parseArgs({});
    EXPECT_FALSE(o.check);
}

TEST(BenchOptions, PlacementFlagsParse)
{
    BenchOptions o = parseArgs({"--placement", "class-affinity:2"});
    EXPECT_EQ(o.placement.kind, sim::PlacementKind::ClassAffinity);
    EXPECT_EQ(o.placement.node, 2u);
}

TEST(BenchOptions, ClassAffinityParsesEveryNodeAMachineMayHave)
{
    // Whether this machine has the node is makePlacement's question.
    for (const char *v : {"0", "7", "8", "12", "63"}) {
        BenchOptions o =
            parseArgs({"--placement", std::string("class-affinity:") + v});
        EXPECT_EQ(o.placement.node, std::stoul(v)) << v;
        EXPECT_EQ(o.placement.str(), std::string("class-affinity:") + v);
    }
    const BenchOptions unnamed = parseArgs({"--placement", "class-affinity"});
    EXPECT_FALSE(unnamed.placement.node);
    EXPECT_EQ(unnamed.placement.str(), "class-affinity");
}

TEST(BenchOptionsDeath, MalformedClassAffinityNodeIsFatal)
{
    // The count rules: digits only, below the 64-node limit; no sign,
    // space, base prefix or overflow.
    for (const char *v : {"64", "-1", "+2", " 2", "2 ", "0x2", "1e1",
                          "18446744073709551616"}) {
        EXPECT_EXIT(parseArgs({"--placement",
                               std::string("class-affinity:") + v}),
                    testing::ExitedWithCode(2),
                    "unknown --placement 'class-affinity:")
            << v;
    }
}

TEST(BenchOptionsDeath, ClassAffinityNodeBeyondTheMachineIsFatal)
{
    const sim::MachineConfig baseline =
        sim::machinePreset("paper1997").config;
    sim::MachineConfig wide = baseline;
    wide.nprocs = 64;
    sim::AddressSpace space(64, 64 * 1024, 4 * 1024);
    const BenchOptions node3 =
        parseArgs({"--placement", "class-affinity:3"});
    const BenchOptions node6 =
        parseArgs({"--placement", "class-affinity:6"});
    const BenchOptions node12 =
        parseArgs({"--placement", "class-affinity:12"});
    EXPECT_TRUE(harness::makePlacement(node3.placement, baseline, &space));
    EXPECT_TRUE(harness::makePlacement(node12.placement, wide, &space));
    EXPECT_EXIT(harness::makePlacement(node6.placement, baseline, &space),
                testing::ExitedWithCode(2),
                "--placement class-affinity:6 names node 6, but the "
                "machine's node count is 4");
    // A bench may build a smaller machine than --machine (one-processor
    // tables, processor-count sweeps): the machine it builds decides.
    sim::MachineConfig one = baseline;
    one.nprocs = 1;
    EXPECT_EXIT(harness::makePlacement(node3.placement, one, &space),
                testing::ExitedWithCode(2),
                "--placement class-affinity:3 names node 3, but the "
                "machine's node count is 1");
    // Other policies name no node.
    EXPECT_TRUE(harness::makePlacement(
        parseArgs({"--placement", "first-touch"}).placement, one, nullptr));
}

TEST(BenchOptions, PlacementDefaultsToInterleave)
{
    BenchOptions o = parseArgs({});
    EXPECT_EQ(o.placement.kind, sim::PlacementKind::Interleave);
}

TEST(BenchOptionsDeath, UnknownPlacementPolicyIsFatal)
{
    EXPECT_EXIT(parseArgs({"--placement", "round-robin"}),
                testing::ExitedWithCode(2),
                "unknown --placement 'round-robin'");
    // profile counts the run's own traces: it takes no histogram file.
    EXPECT_EXIT(parseArgs({"--placement", "profile:h.json"}),
                testing::ExitedWithCode(2),
                "unknown --placement 'profile:h.json'");
    BenchOptions o = parseArgs({"--placement", "profile"});
    EXPECT_EQ(o.placement.kind, sim::PlacementKind::Profile);
}

TEST(BenchOptionsDeath, PlacementFlagsOutsideDeclaredSubsetAreFatal)
{
    EXPECT_EXIT(parseArgs({"--placement", "interleave"},
                          BenchOptions::kScale),
                testing::ExitedWithCode(2),
                "option '--placement' is not supported");
}

TEST(BenchOptions, MemprofFlagParses)
{
    BenchOptions off = parseArgs({});
    EXPECT_FALSE(off.memprof);
    EXPECT_EQ(off.memprofTopN, 20u);

    BenchOptions on = parseArgs({"--memprof"});
    EXPECT_TRUE(on.memprof);
    EXPECT_EQ(on.memprofTopN, 20u);

    BenchOptions topn = parseArgs({"--memprof=7"});
    EXPECT_TRUE(topn.memprof);
    EXPECT_EQ(topn.memprofTopN, 7u);
}

TEST(BenchOptionsDeath, MalformedMemprofCountIsFatal)
{
    EXPECT_EXIT(parseArgs({"--memprof=0"}), testing::ExitedWithCode(2),
                "--memprof=N needs a positive count");
    EXPECT_EXIT(parseArgs({"--memprof=lots"}), testing::ExitedWithCode(2),
                "--memprof=N needs a positive count");
    EXPECT_EXIT(parseArgs({"--memprof="}), testing::ExitedWithCode(2),
                "--memprof=N needs a positive count");
    for (const char *arg : {"--memprof=-5", "--memprof=100001",
                            "--memprof=4294967297"})
        EXPECT_EXIT(parseArgs({arg}), testing::ExitedWithCode(2),
                    "--memprof=N needs a positive count");
}

TEST(BenchOptionsDeath, MemprofOutsideDeclaredSubsetIsFatal)
{
    EXPECT_EXIT(parseArgs({"--memprof"}, BenchOptions::kScale),
                testing::ExitedWithCode(2),
                "option '--memprof' is not supported");
}

TEST(BenchOptionsDeath, RobustnessFlagsOutsideDeclaredSubsetAreFatal)
{
    EXPECT_EXIT(parseArgs({"--check"}, BenchOptions::kScale),
                testing::ExitedWithCode(2),
                "option '--check' is not supported");
}

TEST(BenchOptions, StreamFlagsParse)
{
    BenchOptions o = parseArgs(
        {"--stream", "24", "--stream-seed", "7", "--stream-policy",
         "shortest"},
        BenchOptions::kAll | BenchOptions::kStream);
    EXPECT_EQ(o.streamInstances, 24u);
    EXPECT_EQ(o.streamSeed, 7u);
    EXPECT_EQ(o.streamPolicy, "shortest");
    EXPECT_EQ(parseArgs({"--stream", "4294967295"},
                        BenchOptions::kAll | BenchOptions::kStream)
                  .streamInstances,
              4294967295u)
        << "the largest unsigned count parses exactly";
    EXPECT_EQ(parseArgs({"--stream-seed", "18446744073709551615"},
                        BenchOptions::kAll | BenchOptions::kStream)
                  .streamSeed,
              ~std::uint64_t{0})
        << "the largest seed parses exactly";
}

TEST(BenchOptions, StreamFlagsDefault)
{
    BenchOptions o = parseArgs({}, BenchOptions::kAll | BenchOptions::kStream);
    EXPECT_EQ(o.streamInstances, 0u) << "0 = the bench's own default";
    EXPECT_EQ(o.streamSeed, 42u);
    EXPECT_EQ(o.streamPolicy, "fifo");
}

TEST(BenchOptionsDeath, MalformedStreamFlagsAreFatal)
{
    const unsigned f = BenchOptions::kAll | BenchOptions::kStream;
    EXPECT_EXIT(parseArgs({"--stream", "0"}, f), testing::ExitedWithCode(2),
                "--stream");
    EXPECT_EXIT(parseArgs({"--stream-seed", "9x"}, f),
                testing::ExitedWithCode(2),
                "--stream-seed needs an integer");
    EXPECT_EXIT(parseArgs({"--stream-policy", "sjf"}, f),
                testing::ExitedWithCode(2),
                "unknown --stream-policy 'sjf'");
    // A negative count must not wrap to 2^32 - 1 instances, and one past
    // the unsigned field must not wrap to 0 (the bench's default).
    for (const char *v : {"-1", "4294967296"})
        EXPECT_EXIT(parseArgs({"--stream", v}, f),
                    testing::ExitedWithCode(2),
                    "--stream needs a positive count");
    // Counts take decimal digits only and never wrap: a sign, a space,
    // a base prefix or a value past 2^64 - 1 is an error.
    for (const char *v : {"-1", "+7", " 7", "0x10", "18446744073709551616"})
        EXPECT_EXIT(parseArgs({"--stream-seed", v}, f),
                    testing::ExitedWithCode(2),
                    "--stream-seed needs an integer");
}

TEST(BenchOptionsDeath, StreamFlagsOutsideKAllAreFatal)
{
    // kStream is deliberately NOT part of kAll: the single-shot figure
    // binaries must keep rejecting the stream flags.
    EXPECT_EXIT(parseArgs({"--stream", "8"}), testing::ExitedWithCode(2),
                "option '--stream' is not supported");
}

TEST(BenchOptions, MachineFlagParses)
{
    BenchOptions o = parseArgs({"--machine", "modern"},
                               BenchOptions::kAll | BenchOptions::kMachine);
    EXPECT_EQ(o.machine, "modern");
}

TEST(BenchOptions, MachineDefaultsToPaper1997)
{
    BenchOptions o = parseArgs({}, BenchOptions::kAll |
                                       BenchOptions::kMachine);
    EXPECT_EQ(o.machine, "paper1997");
}

TEST(BenchOptionsDeath, MachineListExitsZero)
{
    // The preset list goes to stdout (the matcher only sees stderr).
    EXPECT_EXIT(parseArgs({"--machine", "list"},
                          BenchOptions::kAll | BenchOptions::kMachine),
                testing::ExitedWithCode(0), "");
}

TEST(BenchOptionsDeath, MachineOutsideDeclaredSubsetIsFatal)
{
    // kMachine is not part of kAll: only harness::benchMain ORs it in.
    EXPECT_EXIT(parseArgs({"--machine", "modern"}),
                testing::ExitedWithCode(2),
                "option '--machine' is not supported");
}

/** The validation bugfix: geometry mistakes that used to silently mangle
 * set indices now throw a structured SimError naming the field. */
TEST(MachineValidation, RejectsNonPowerOfTwoCacheSize)
{
    sim::MachineConfig cfg = sim::MachineConfig::baseline();
    cfg.l2().sizeBytes = 100 * 1000; // not a power of two
    EXPECT_THROW(cfg.validate(), sim::SimError);
    EXPECT_THROW(sim::Machine m(cfg), sim::SimError);
}

TEST(MachineValidation, RejectsLineLargerThanCache)
{
    sim::MachineConfig cfg = sim::MachineConfig::baseline();
    cfg.l1().sizeBytes = 32;
    cfg.l1().lineBytes = 64; // line exceeds capacity
    EXPECT_THROW(cfg.validate(), sim::SimError);
}

TEST(MachineValidation, RejectsNonPowerOfTwoLine)
{
    EXPECT_THROW(sim::MachineConfig::baseline().withLineSize(96),
                 sim::SimError);
}

TEST(MachineValidation, RejectsUndersizedCacheSizes)
{
    // 16-byte L1 cannot hold even one 32 B line.
    EXPECT_THROW(sim::MachineConfig::baseline().withCacheSizes(16, 1 << 20),
                 sim::SimError);
}

TEST(MachineValidation, RejectsBadProcessorCounts)
{
    // The directory's sharer mask holds 1..64 processors.
    sim::MachineConfig cfg = sim::MachineConfig::baseline();
    for (unsigned nprocs : {0u, 65u}) {
        cfg.nprocs = nprocs;
        EXPECT_THROW(cfg.validate(), sim::SimError) << nprocs;
        EXPECT_THROW(sim::Machine m(cfg), sim::SimError) << nprocs;
    }
}

TEST(MachineValidation, RejectsNonMonotoneLatencies)
{
    sim::MachineConfig cfg = sim::MachineConfig::baseline();
    cfg.lat.localMem = 300;
    cfg.lat.remote2Hop = 249; // 2-hop below local memory
    EXPECT_THROW(cfg.validate(), sim::SimError);
}

TEST(MachineValidation, ErrorCarriesStructuredDump)
{
    sim::MachineConfig cfg = sim::MachineConfig::baseline();
    cfg.l2().sizeBytes = 3000;
    try {
        cfg.validate();
        FAIL() << "expected SimError";
    } catch (const sim::SimError &e) {
        const obs::Json &d = e.dump();
        ASSERT_NE(d.find("field"), nullptr);
        EXPECT_EQ(d.find("field")->asString(), "l2.sizeBytes");
        EXPECT_NE(std::string(e.what()).find("power of two"),
                  std::string::npos);
    }
}

TEST(BenchOptions, VerifyFlagsParse)
{
    BenchOptions o = parseArgs({"--verify-procs", "3", "--verify-lines",
                                "2", "--verify-wb", "2", "--verify-depth",
                                "5", "--verify-mutant", "all"},
                               BenchOptions::kVerify);
    EXPECT_EQ(o.verifyProcs, 3u);
    EXPECT_EQ(o.verifyLines, 2u);
    EXPECT_EQ(o.verifyWb, 2u);
    EXPECT_EQ(o.verifyDepth, 5u);
    EXPECT_EQ(o.verifyMutant, -1);
    o = parseArgs({"--verify-mutant", "2"}, BenchOptions::kVerify);
    EXPECT_EQ(o.verifyMutant, 2);
}

TEST(BenchOptions, VerifyFlagsDefault)
{
    BenchOptions o = parseArgs({}, BenchOptions::kVerify);
    EXPECT_EQ(o.verifyProcs, 2u);
    EXPECT_EQ(o.verifyLines, 2u);
    EXPECT_EQ(o.verifyWb, 1u);
    EXPECT_EQ(o.verifyDepth, 0u);
    EXPECT_EQ(o.verifyMutant, 0);
}

TEST(BenchOptionsDeath, VerifyFlagsOutsideKAllAreFatal)
{
    // kVerify is not part of kAll: only the model-checker bench opts in.
    EXPECT_EXIT(parseArgs({"--verify-procs", "2"}),
                testing::ExitedWithCode(2),
                "option '--verify-procs' is not supported");
    EXPECT_EXIT(parseArgs({"--verify-mutant", "1"}),
                testing::ExitedWithCode(2),
                "option '--verify-mutant' is not supported");
}

TEST(BenchOptionsDeath, MalformedVerifyMutantIsFatal)
{
    EXPECT_EXIT(parseArgs({"--verify-mutant", "9"}, BenchOptions::kVerify),
                testing::ExitedWithCode(2), "needs 1-4 or 'all'");
    EXPECT_EXIT(parseArgs({"--verify-mutant", "x"}, BenchOptions::kVerify),
                testing::ExitedWithCode(2), "needs 1-4 or 'all'");
    EXPECT_EXIT(parseArgs({"--verify-mutant", "-1"}, BenchOptions::kVerify),
                testing::ExitedWithCode(2), "needs 1-4 or 'all'");
    // The search sizes share the count parser: 2^32 + 2 must not wrap to
    // a 2-processor search.
    EXPECT_EXIT(parseArgs({"--verify-procs", "4294967298"},
                          BenchOptions::kVerify),
                testing::ExitedWithCode(2),
                "--verify-procs needs a positive count");
    EXPECT_EXIT(parseArgs({"--verify-lines", "-1"}, BenchOptions::kVerify),
                testing::ExitedWithCode(2),
                "--verify-lines needs a positive count");
}

} // namespace
