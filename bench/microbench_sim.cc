/**
 * @file
 * Component microbenchmarks for the memory-hierarchy simulator
 * (google-benchmark): cache lookup/fill throughput, directory transaction
 * throughput, write-buffer operations and whole-machine trace replay
 * speed. These measure the *simulator's* host performance, not simulated
 * time.
 */

#include <cstdint>
#include <vector>

#include <benchmark/benchmark.h>

#include "harness/guard.hh"

#include "obs/memprof.hh"
#include "sim/arena.hh"
#include "sim/cache.hh"
#include "sim/directory.hh"
#include "sim/machine.hh"
#include "sim/placement.hh"
#include "sim/spec.hh"
#include "sim/write_buffer.hh"

using namespace dss::sim;

namespace {

void
BM_CacheHit(benchmark::State &state)
{
    Cache c({128 * 1024, 64, 2});
    for (Addr a = 0; a < 64 * 1024; a += 64)
        c.fill(a);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.access(a));
        a = (a + 64) & (64 * 1024 - 1);
    }
}
BENCHMARK(BM_CacheHit);

void
BM_CacheMissFill(benchmark::State &state)
{
    Cache c({4 * 1024, 32, 1});
    Addr a = 0;
    for (auto _ : state) {
        if (!c.access(a)) {
            benchmark::DoNotOptimize(c.classifyMiss(a));
            c.fill(a);
        }
        a += 32; // stream: always misses
    }
}
BENCHMARK(BM_CacheMissFill);

void
BM_DirectoryTransaction(benchmark::State &state)
{
    Directory dir(4, 64, LatencyConfig{});
    auto policy = PlacementPolicy::interleave(
        {4, 8192, AddressSpace::kPrivateBase, AddressSpace::kPrivateStride});
    Addr a = 0x1000'0000;
    for (auto _ : state) {
        Directory::Entry &e = dir.entry(a);
        e.state = Directory::State::Shared;
        ProcId home = policy->homeOf(a);
        benchmark::DoNotOptimize(
            dir.transactionLatency(0, home, 0, false));
        a += 64;
    }
}
BENCHMARK(BM_DirectoryTransaction);

/** The placement layer's flat page->home table (the machine's hot path). */
void
BM_HomeOfTable(benchmark::State &state)
{
    auto policy = PlacementPolicy::firstTouch(
        {4, 8192, AddressSpace::kPrivateBase, AddressSpace::kPrivateStride});
    // Cover the whole touched range so every lookup hits the table: a
    // first-touch run over one reference at the range's last page grows
    // the table through it.
    TraceStream last;
    last.record(TraceEntry::read(0x1000'0000 + (64 * 1024 * 1024 - 1),
                                 DataClass::Data, 1));
    policy->beginRun({&last});
    Addr a = 0x1000'0000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(policy->homeOf(a));
        a = 0x1000'0000 + ((a + 64) & (64 * 1024 * 1024 - 1));
    }
}
BENCHMARK(BM_HomeOfTable);

void
BM_WriteBufferPush(benchmark::State &state)
{
    WriteBuffer wb(16);
    Cycles now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(wb.push(now, 16, now & ~63ull));
        now += 20; // drains keep up: no overflow path
    }
}
BENCHMARK(BM_WriteBufferPush);

/** Whole-machine replay throughput on a synthetic streaming trace. */
void
BM_MachineReplay(benchmark::State &state)
{
    TraceStream stream;
    for (Addr a = 0; a < 1 << 20; a += 8) {
        stream.record(TraceEntry::read(0x1000'0000 + a, DataClass::Data, 8));
        stream.record(TraceEntry::busy(3));
    }
    for (auto _ : state) {
        Machine m(MachineConfig::baseline());
        SimStats s = m.run({&stream});
        benchmark::DoNotOptimize(s.procs[0].reads);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_MachineReplay);

/**
 * The same streaming replay on the three-level `modern` preset: what the
 * generalized level-chain walk costs when a chain actually has an
 * intermediate level. Compare against BM_MachineReplay (two levels) to
 * see the indirection's price; the two-level case itself must stay
 * within 5% of the pre-refactor fixed-L1/L2 machine.
 */
void
BM_HierarchyReplay(benchmark::State &state)
{
    TraceStream stream;
    for (Addr a = 0; a < 1 << 20; a += 8) {
        stream.record(TraceEntry::read(0x1000'0000 + a, DataClass::Data, 8));
        stream.record(TraceEntry::busy(3));
    }
    const MachineConfig cfg = machinePreset("modern").config;
    for (auto _ : state) {
        Machine m(cfg);
        SimStats s = m.run({&stream});
        benchmark::DoNotOptimize(s.procs[0].reads);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_HierarchyReplay);

/**
 * Four processors streaming over disjoint shared-space regions: the
 * min-clock interleaving cost of a full machine with no coherence
 * traffic between the processors.
 */
void
BM_MachineReplay4(benchmark::State &state)
{
    MachineConfig cfg = MachineConfig::baseline();
    std::vector<TraceStream> streams(cfg.nprocs);
    for (unsigned p = 0; p < cfg.nprocs; ++p) {
        const Addr base = 0x1000'0000 + static_cast<Addr>(p) * (4u << 20);
        for (Addr a = 0; a < 1 << 20; a += 8) {
            streams[p].record(
                TraceEntry::read(base + a, DataClass::Data, 8));
            streams[p].record(TraceEntry::busy(3));
        }
    }
    std::vector<const TraceStream *> ptrs;
    for (const TraceStream &s : streams)
        ptrs.push_back(&s);
    std::uint64_t entries = 0;
    for (auto _ : state) {
        Machine m(cfg);
        SimStats s = m.run(ptrs);
        benchmark::DoNotOptimize(s.procs[0].reads);
        entries += streams[0].size() * cfg.nprocs;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(entries));
}
BENCHMARK(BM_MachineReplay4);

/**
 * Cost of --memprof on the machine replay path. Four processors mix
 * reads and stores over an overlapping shared region, so the profile's
 * per-line counting and the word-granular sharing tracker exercise both
 * their store-recording and their miss-classification paths. "off" is
 * the default configuration every non-profiled run uses; "on" attaches
 * a memory profile.
 */
void
BM_MemprofOverhead(benchmark::State &state, bool on)
{
    MachineConfig cfg = MachineConfig::baseline();
    std::vector<TraceStream> streams(cfg.nprocs);
    for (unsigned p = 0; p < cfg.nprocs; ++p) {
        for (Addr a = 0; a < 1 << 18; a += 8) {
            // Overlapping lines across processors: every fourth access
            // is a store, so lines ping-pong and coherence misses (the
            // tracker's slow path) actually occur.
            const Addr addr = 0x1000'0000 + a;
            if (((a >> 3) & 3) == p % 4)
                streams[p].record(
                    TraceEntry::write(addr, DataClass::Data, 8));
            else
                streams[p].record(
                    TraceEntry::read(addr, DataClass::Data, 8));
            streams[p].record(TraceEntry::busy(3));
        }
    }
    std::vector<const TraceStream *> ptrs;
    for (const TraceStream &s : streams)
        ptrs.push_back(&s);
    for (auto _ : state) {
        Machine m(cfg);
        dss::obs::MemProfile prof(cfg);
        m.setMemProfile(on ? &prof : nullptr);
        SimStats s = m.run(ptrs);
        benchmark::DoNotOptimize(s.procs[0].l2CoheTrue);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(streams[0].size() * cfg.nprocs));
}
BENCHMARK_CAPTURE(BM_MemprofOverhead, off, false);
BENCHMARK_CAPTURE(BM_MemprofOverhead, on, true);

} // namespace

int
main(int argc, char **argv)
{
    return dss::harness::guardedMain(
        "microbench_sim", argc, argv, [](int c, char **v) -> int {
            benchmark::Initialize(&c, v);
            if (benchmark::ReportUnrecognizedArguments(c, v))
                return 1;
            benchmark::RunSpecifiedBenchmarks();
            benchmark::Shutdown();
            return 0;
        });
}
