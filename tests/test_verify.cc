/**
 * @file
 * Explicit-state protocol checker (src/verify/): canonicalization and
 * symmetry reduction, pinned reachable-state counts for the clean small
 * configurations, checker soundness via the four protocol mutants, and
 * counterexample replayability.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/error.hh"
#include "sim/spec.hh"
#include "verify/model.hh"
#include "verify/verifier.hh"

namespace {

using namespace dss;
using verify::AbstractState;
using verify::Event;
using verify::EvKind;
using verify::Mutant;
using verify::ProtocolModel;
using verify::ProtocolVerifier;
using verify::VerifyOptions;
using verify::VerifyResult;

ProtocolModel::Options
smallOpts(unsigned procs = 2, unsigned lines = 1, unsigned wb = 1)
{
    ProtocolModel::Options o;
    o.procs = procs;
    o.lines = lines;
    o.wbEntries = wb;
    return o;
}

/** Relabel every processor-indexed field of @p s through @p perm. */
AbstractState
permuteProcs(const AbstractState &s, const std::vector<sim::ProcId> &perm)
{
    AbstractState t = s;
    for (std::size_t i = 0; i < s.lines.size(); ++i) {
        const verify::LineState &a = s.lines[i];
        verify::LineState &b = t.lines[i];
        if (a.dir == 2)
            b.owner = perm[a.owner];
        b.sharers = 0;
        for (sim::ProcId p = 0; p < perm.size(); ++p)
            if (a.sharers & (1u << p))
                b.sharers |= 1u << perm[p];
        for (sim::ProcId p = 0; p < perm.size(); ++p) {
            b.coh[perm[p]] = a.coh[p];
            b.upper[perm[p]] = a.upper[p];
        }
    }
    for (sim::ProcId p = 0; p < perm.size(); ++p) {
        t.cont[perm[p]] = s.cont[p];
        t.wb[perm[p]] = s.wb[p];
    }
    if (s.lockHeld)
        t.lockHolder = perm[s.lockHolder];
    for (std::size_t i = 0; i < s.waiters.size(); ++i)
        t.waiters[i] = perm[s.waiters[i]];
    return t;
}

/** A deliberately asymmetric 3-processor state exercising every field. */
AbstractState
sampleState(const ProtocolModel &model)
{
    AbstractState s = model.initial();
    s.lines[0].dir = 2;
    s.lines[0].owner = 1;
    s.lines[0].sharers = 1u << 1;
    s.lines[0].coh[1] = 2;
    s.lines[0].upper[1][0] = 1;
    s.lines[1].dir = 1;
    s.lines[1].sharers = (1u << 0) | (1u << 2);
    s.lines[1].coh[0] = 1;
    s.lines[1].coh[2] = 1;
    s.wb[1] = {0};
    s.cont[0] = verify::Cont::Blocked;
    s.cont[2] = verify::Cont::Holding;
    s.lockHeld = true;
    s.lockHolder = 2;
    s.waiters = {0};
    return s;
}

TEST(VerifyCanonical, EncodeDecodeRoundTrips)
{
    ProtocolModel model(sim::MachineConfig::baseline(), smallOpts(3, 2));
    const AbstractState s = sampleState(model);
    const verify::Canonical c = verify::canonicalize(s, model.geom());
    const AbstractState d = verify::decodeState(c.bytes, model.geom());
    // Decoding the canonical bytes and re-canonicalizing must be a
    // fixed point (identity relabeling wins on an already-canonical
    // state).
    const verify::Canonical c2 = verify::canonicalize(d, model.geom());
    EXPECT_EQ(c.bytes, c2.bytes);
    for (sim::ProcId p = 0; p < 3; ++p)
        EXPECT_EQ(c2.perm[p], p);
}

TEST(VerifyCanonical, ProcessorPermutationIsInvariant)
{
    ProtocolModel model(sim::MachineConfig::baseline(), smallOpts(3, 2));
    const AbstractState s = sampleState(model);
    const std::string canon = verify::canonicalize(s, model.geom()).bytes;
    std::vector<sim::ProcId> perm = {0, 1, 2};
    while (std::next_permutation(perm.begin(), perm.end())) {
        const AbstractState t = permuteProcs(s, perm);
        EXPECT_EQ(verify::canonicalize(t, model.geom()).bytes, canon);
    }
}

TEST(VerifyCanonical, DistinctStatesStayDistinct)
{
    ProtocolModel model(sim::MachineConfig::baseline(), smallOpts(3, 2));
    const AbstractState s = sampleState(model);
    AbstractState t = s;
    t.lines[0].coh[1] = 1; // owner's copy clean instead of dirty
    EXPECT_NE(verify::canonicalize(s, model.geom()).bytes,
              verify::canonicalize(t, model.geom()).bytes);
}

TEST(VerifyModel, RejectsGeometryTheModelCannotKeepConflictFree)
{
    EXPECT_THROW(ProtocolModel(sim::MachineConfig::baseline(),
                               smallOpts(2, 7)),
                 sim::SimError);
    EXPECT_THROW(ProtocolModel(sim::MachineConfig::baseline(),
                               smallOpts(7, 1)),
                 sim::SimError);
}

TEST(VerifyClean, PaperPresetSmallSpaceIsExhaustedWithNoViolations)
{
    ProtocolModel model(sim::MachineConfig::baseline(), smallOpts());
    VerifyResult res = ProtocolVerifier(model, {}).run();
    EXPECT_TRUE(res.exhausted);
    EXPECT_EQ(res.violations, 0u);
    EXPECT_TRUE(res.cex.events.empty());
    // Pinned reachable-space size: a change here means the protocol (or
    // the model's event alphabet) changed — re-derive, don't just bump.
    EXPECT_EQ(res.states, 2281u);
    EXPECT_EQ(res.transitions, 12710u);
    EXPECT_EQ(res.depth, 13u);
}

TEST(VerifyClean, ModernPresetMatchesThePinnedCount)
{
    // The three-level modern hierarchy reaches the same abstract space:
    // with one targeted subline per line the extra levels add no
    // distinguishable states, only latency (which the abstraction drops).
    sim::MachineSpec spec = sim::machinePreset("modern");
    ProtocolModel model(spec.config, smallOpts());
    VerifyResult res = ProtocolVerifier(model, {}).run();
    EXPECT_TRUE(res.exhausted);
    EXPECT_EQ(res.violations, 0u);
    EXPECT_EQ(res.states, 2281u);
}

TEST(VerifyClean, DeeperWriteBufferGrowsTheSpaceDeterministically)
{
    ProtocolModel a(sim::MachineConfig::baseline(), smallOpts(2, 1, 2));
    VerifyResult ra = ProtocolVerifier(a, {}).run();
    EXPECT_TRUE(ra.exhausted);
    EXPECT_EQ(ra.violations, 0u);
    EXPECT_EQ(ra.states, 10300u);
    // Bit-for-bit repeatable: same states, transitions and depth.
    ProtocolModel b(sim::MachineConfig::baseline(), smallOpts(2, 1, 2));
    VerifyResult rb = ProtocolVerifier(b, {}).run();
    EXPECT_EQ(rb.states, ra.states);
    EXPECT_EQ(rb.transitions, ra.transitions);
    EXPECT_EQ(rb.depth, ra.depth);
    EXPECT_EQ(rb.toJson().dump(), ra.toJson().dump());
}

TEST(VerifyClean, DepthBoundMakesTheRunNonExhaustive)
{
    ProtocolModel model(sim::MachineConfig::baseline(), smallOpts());
    VerifyOptions vo;
    vo.maxDepth = 3;
    VerifyResult res = ProtocolVerifier(model, vo).run();
    EXPECT_FALSE(res.exhausted);
    EXPECT_EQ(res.violations, 0u);
    EXPECT_LT(res.states, 2281u);
}

class VerifyMutants : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(VerifyMutants, EveryMutantIsCaughtWithAReplayableCounterexample)
{
    const auto mutant = static_cast<Mutant>(GetParam());
    ProtocolModel::Options mo = smallOpts();
    // The reorder mutation swaps the two oldest pending stores; give it
    // a second slot so the corruption is reachable.
    mo.wbEntries = mutant == Mutant::WbReorder ? 2 : 1;
    mo.mutant = mutant;
    ProtocolModel model(sim::MachineConfig::baseline(), mo);
    VerifyResult res = ProtocolVerifier(model, {}).run();
    ASSERT_GT(res.violations, 0u)
        << "mutant " << verify::mutantName(mutant) << " escaped";
    ASSERT_FALSE(res.cex.events.empty());
    // BFS counterexamples are short: each mutation is one broken step
    // plus at most one set-up access.
    EXPECT_LE(res.cex.events.size(), 3u);

    // The counterexample must replay: applying the concrete event path
    // from the cold state reproduces the violation on the final step and
    // on no earlier one.
    AbstractState cur = model.initial();
    for (std::size_t i = 0; i < res.cex.events.size(); ++i) {
        ProtocolModel::StepResult step = model.apply(cur, res.cex.events[i]);
        if (i + 1 < res.cex.events.size())
            EXPECT_EQ(step.violations, 0u) << "premature violation at " << i;
        else
            EXPECT_GT(step.violations, 0u) << "counterexample did not replay";
        cur = step.next;
    }
}

INSTANTIATE_TEST_SUITE_P(AllMutants, VerifyMutants,
                         ::testing::Values(1u, 2u, 3u, 4u),
                         [](const auto &info) {
                             std::string n(verify::mutantName(
                                 static_cast<Mutant>(info.param)));
                             std::replace(n.begin(), n.end(), '-', '_');
                             return n;
                         });

TEST(VerifyTraces, CounterexamplePathsEmitPerProcessorTraceStreams)
{
    ProtocolModel model(sim::MachineConfig::baseline(), smallOpts());
    const std::vector<Event> path = {
        {EvKind::Load, 0, 0, 0},
        {EvKind::Store, 1, 0, 0},
        {EvKind::LockAcq, 0, 1, 0}, // test&set ...
        {EvKind::LockAcq, 0, 1, 0}, // ... and grab: one trace entry
        {EvKind::LockRel, 0, 1, 0},
    };
    std::vector<sim::TraceStream> streams = model.traces(path);
    ASSERT_EQ(streams.size(), 2u);
    auto count = [&](unsigned p, sim::Op op) {
        std::size_t n = 0;
        for (const sim::TraceEntry &e : streams[p].entries())
            n += e.op == op ? 1 : 0;
        return n;
    };
    EXPECT_EQ(count(0, sim::Op::Read), 1u);
    EXPECT_EQ(count(1, sim::Op::Write), 1u);
    EXPECT_EQ(count(0, sim::Op::LockAcq), 1u);
    EXPECT_EQ(count(0, sim::Op::LockRel), 1u);
    // Busy padding gives each event its own replay slot: the streams are
    // valid Machine input (replayed end-to-end by the bench smoke test).
    EXPECT_GT(count(0, sim::Op::Busy), 0u);
}

} // namespace
