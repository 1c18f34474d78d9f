/**
 * @file
 * The simulated 4-processor CC-NUMA machine of the paper's Section 4.3.
 *
 * Per node: one processor with a direct-mapped write-through L1
 * (4 KB / 32 B lines in the baseline), a 2-way write-back L2
 * (128 KB / 64 B lines), and a 16-entry write buffer; plus a slice of the
 * interleaved main memory with its directory controller. The processor
 * stalls on read misses and on write-buffer overflow. Round-trip read-miss
 * latencies: L2 16, local memory 80, 2-hop remote 249, 3-hop remote 351
 * cycles. Contention is modeled at the home memory controllers; the network
 * is a fixed delay (paper's simplification).
 *
 * The Machine consumes one TraceStream per processor, interleaving them by
 * local virtual time. Metalock acquire/release markers are resolved
 * dynamically against the LockTable so spinning, hand-off and lock-word
 * coherence misses reflect the simulated interleaving.
 *
 * Cache, directory and classification state persists across run() calls,
 * which is how the warm-start experiments of Fig 12 chain queries;
 * call resetMemoryState() for a cold start.
 */

#ifndef DSS_SIM_MACHINE_HH
#define DSS_SIM_MACHINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/addr.hh"
#include "sim/cache.hh"
#include "sim/directory.hh"
#include "sim/hierarchy.hh"
#include "sim/placement.hh"
#include "sim/sharing.hh"
#include "sim/spinlock_model.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/write_buffer.hh"

namespace dss {
namespace obs {
class MemProfile;
class Registry;
class Sampler;
class Timeline;
enum class SpanKind : std::uint8_t;
} // namespace obs

namespace sim {

/** Full architecture configuration. */
struct MachineConfig
{
    unsigned nprocs = 4;

    /**
     * The cache-level chain, index 0 nearest the processor
     * (sim/hierarchy.hh). Defaults to the paper's L1/L2 pair; the named
     * l1()/l2() accessors keep every existing configuration site reading
     * and writing the slots it always did.
     */
    LevelChain levels = paperLevels();

    std::size_t writeBufferEntries = 16;
    std::size_t pageBytes = 8 * 1024;
    LatencyConfig lat;

    /** Sequential next-N-line prefetch of Data-class reads (Fig 13). */
    bool prefetchData = false;
    unsigned prefetchDegree = 4;

    /** Issue cost charged to Busy per memory reference. */
    Cycles issueCyclesPerRef = 1;

    /** The primary cache (level 0). */
    LevelConfig &l1() { return levels.front(); }
    const LevelConfig &l1() const { return levels.front(); }

    /** The secondary cache (level 1 — on the baseline two-level chain
     * this is also the coherent level). */
    LevelConfig &l2() { return levels[1]; }
    const LevelConfig &l2() const { return levels[1]; }

    /** The coherent (last) level: dirty data, directory granularity. */
    LevelConfig &coherent() { return levels.back(); }
    const LevelConfig &coherent() const { return levels.back(); }

    std::size_t numLevels() const { return levels.size(); }

    /** Validate geometry and latencies; throws SimError (hierarchy.hh). */
    void validate() const;

    /** The paper's baseline machine. */
    static MachineConfig baseline();

    /**
     * Same machine with @p l2_line byte coherent-level lines; the L1 line
     * is always half of it (paper Section 4.3); intermediate levels (if
     * any) adopt the coherent line. Throws SimError on invalid geometry.
     */
    MachineConfig withLineSize(std::size_t l2_line) const;

    /** Same machine with different L1/last-level capacities. Throws
     * SimError on invalid geometry. */
    MachineConfig withCacheSizes(std::size_t l1_bytes,
                                 std::size_t l2_bytes) const;
};

class InvariantChecker;

class Machine
{
  public:
    explicit Machine(const MachineConfig &cfg);

    /**
     * Simulate one trace per processor (pass fewer traces than processors
     * to leave some idle). Clocks restart at zero; caches, directory and
     * miss-classification history persist from previous runs.
     *
     * An attached @p sampler receives per-epoch counter deltas (the
     * time-series behind warm-up and contention analysis); an attached
     * @p timeline receives busy/stall/sync intervals and metalock
     * hold/spin spans for Chrome-trace export. Both may be null, and one
     * sampler/timeline may observe several consecutive runs.
     *
     * @return statistics for this run only.
     */
    SimStats run(const std::vector<const TraceStream *> &traces,
                 obs::Sampler *sampler = nullptr,
                 obs::Timeline *timeline = nullptr);

    /** Cold-start: drop caches, directory state and classification. */
    void resetMemoryState();

    /**
     * Register every counter of this machine — per-processor ProcStats
     * views ("proc0.busy", "proc0.l1.miss.cold.index"), per-node cache and
     * write-buffer counters, and the shared directory ("dir.*") and
     * metalock table ("locks.*") — into @p reg. The readers are live
     * views: they report whatever the machine's counters hold when the
     * registry is read, so the machine must outlive @p reg's use.
     */
    void registerStats(obs::Registry &reg,
                       const std::string &prefix = "") const;

    const MachineConfig &config() const { return cfg_; }

    /**
     * Attach an invariant checker (sim/check.hh, the --check flag). The
     * checker only reads machine state: attaching it never changes a
     * timing or statistic. Pass nullptr to detach.
     */
    void setChecker(InvariantChecker *checker) { checker_ = checker; }

    /**
     * Attach a page-placement policy (sim/placement.hh, the --placement
     * flag). Borrowed and mutable: run() calls its beginRun() hook so
     * first-touch claims resolve before the first step. Pass
     * nullptr to return to the machine's own default interleave policy
     * (bit-identical to the historical hardwired rule).
     */
    void setPlacement(PlacementPolicy *placement);

    /** The active placement policy (never null). */
    const PlacementPolicy &placement() const { return *placement_; }

    /**
     * Attach a line-level memory profile (obs/memprof.hh, the --memprof
     * flag); pass nullptr to detach. The access pipelines count each
     * reference, coherent-level read miss, upgrade and 3-hop transaction
     * on its line in the profile. An attached profile also brings up the
     * word-granular sharing tracker (sim/sharing.hh) that splits
     * coherence misses into true vs. false sharing
     * (ProcStats::l2CoheTrue/l2CoheFalse and the
     * proc*.miss.cohe.{true,false} registry counters); detaching drops
     * it, and a later attach starts from an empty history, exactly like
     * a cold classification. With no profile the pipelines pay one null
     * test per reference and the split counters stay zero. Borrowed: the
     * profile must outlive the machine's use of it.
     * @throws SimError if the profile's coherent line size or set count
     *         differs from this machine's.
     */
    void setMemProfile(obs::MemProfile *profile);

    /** The sharing tracker, or nullptr with no profile attached (tests). */
    const SharingTracker *sharingTracker() const { return sharing_.get(); }

    /**
     * Clear the lifetime statistics that survive run() boundaries (the
     * directory's per-home contention counters). The harness runner
     * calls this before every repetition so consecutive runs do not
     * accumulate each other's counts; memory/cache state is untouched
     * (warm-start chains stay warm).
     */
    void resetStats();

    /** Direct cache access for tests. l2() names the *coherent* (last)
     * level — on the baseline two-level chain, the cache it always named. */
    Cache &l1(ProcId p) { return nodes_.at(p)->caches.front(); }
    Cache &l2(ProcId p) { return nodes_.at(p)->caches.back(); }
    /** Any level of @p p's chain (tests of deeper hierarchies). */
    Cache &level(ProcId p, std::size_t lvl)
    {
        return nodes_.at(p)->caches.at(lvl);
    }

    /** Directory access for the verifier and tests. */
    const Directory &directory() const { return dir_; }

    /** Metalock table access for tests. */
    const LockTable &locks() const { return locks_; }

    /** Mutable directory/lock/write-buffer access for checker-validation
     * tests that deliberately corrupt machine state. */
    Directory &directoryForTest() { return dir_; }
    LockTable &locksForTest() { return locks_; }
    WriteBuffer &writeBufferForTest(ProcId p) { return nodes_.at(p)->wb; }

    // ----- explicit-state verification hooks (src/verify/) -----
    //
    // The model checker synthesizes protocol events instead of replaying
    // workload traces, but every transition must run through the *real*
    // pipelines above. These hooks expose a side-effect-free stepping
    // API: no sampler, timeline or trace stream is involved, and the
    // only state that changes is what the pipelines themselves touch.
    // Timing and statistics still accrue (they are protocol-irrelevant
    // and the checker ignores them).

    /**
     * Arm manual stepping: cold-start the memory state (caches,
     * directory, locks, write buffers, classification) and initialize
     * per-processor execution state exactly as run() would, without
     * consuming traces. Call before the first modelStep().
     */
    void beginModelSteps();

    /**
     * Drive one synthesized trace entry through the real access
     * pipelines. Requires beginModelSteps().
     * LockAcq entries keep their two-phase semantics: one call runs one
     * phase (test&set transaction, then the grab/spin decision), exactly
     * as one runSeq() step would.
     */
    void modelStep(ProcId p, const TraceEntry &e);

    /** Force-evict the coherent line of @p addr (plus its upper-level
     * sublines) from @p p's own caches, keeping the directory in sync
     * (the model's evict event). */
    void modelEvict(ProcId p, Addr addr);

    /** Load a processor's lock-continuation flags (blocked spinner /
     * completed test&set) when reconstructing a mid-protocol state. */
    void setProcWaitState(ProcId p, bool blocked, bool acq_pending);

    /** The blocked-spinner flag for @p p (const view). */
    bool procBlocked(ProcId p) const { return runs_.at(p).blocked; }
    /** The two-phase acquire continuation flag for @p p (const view). */
    bool procAcqPending(ProcId p) const { return runs_.at(p).acqPending; }
    /** @p p's virtual clock (counterexample trace emission). */
    Cycles procClock(ProcId p) const { return runs_.at(p).clock; }

    /** Const cache access (the checker-facing read-only counterparts of
     * the mutable test hooks above). */
    const Cache &l1(ProcId p) const { return nodes_.at(p)->caches.front(); }
    const Cache &l2(ProcId p) const { return nodes_.at(p)->caches.back(); }
    const Cache &level(ProcId p, std::size_t lvl) const
    {
        return nodes_.at(p)->caches.at(lvl);
    }
    const WriteBuffer &writeBuffer(ProcId p) const
    {
        return nodes_.at(p)->wb;
    }

  private:
    struct Node
    {
        Node(const MachineConfig &cfg) : wb(cfg.writeBufferEntries)
        {
            caches.reserve(cfg.levels.size());
            for (const LevelConfig &lc : cfg.levels)
                caches.emplace_back(lc);
            // The chain never resizes after construction; the endpoint
            // pointers keep the per-access paths off vector front()/
            // back() arithmetic (replay throughput is guarded by
            // BM_MachineReplay).
            l1_ = &caches.front();
            coh_ = &caches.back();
        }

        /** The level chain, index 0 nearest the processor. */
        std::vector<Cache> caches;
        WriteBuffer wb;
        /** L1 lines filled by prefetch -> cycle the data arrives. A demand
         * read that gets there first waits for the remainder. */
        std::unordered_map<Addr, Cycles> prefetched;

        Cache &l1() { return *l1_; }
        const Cache &l1() const { return *l1_; }
        /** The coherent (last) level. */
        Cache &coh() { return *coh_; }
        const Cache &coh() const { return *coh_; }

      private:
        Cache *l1_;
        Cache *coh_;
    };

    /** Per-run execution state of one processor. */
    struct ProcRun
    {
        const std::vector<TraceEntry> *entries = nullptr;
        std::size_t pos = 0;
        Cycles clock = 0;
        bool blocked = false;
        Cycles blockStart = 0;
        /** A test&set transaction completed; the grab happens next step. */
        bool acqPending = false;
        ProcStats stats;

        bool done() const { return !entries || pos >= entries->size(); }
    };

    /** Outcome of one load, for stall accounting. */
    struct ReadOutcome
    {
        Cycles latency = 0; ///< total, including the issue cycle
    };

    /**
     * The memory-access pipelines. Each runs one reference of processor
     * @p p to completion: its own node state (caches, write buffer,
     * prefetch table, clock, stats) and the shared directory, home
     * controllers and remote caches are all updated in the same step.
     */
    ReadOutcome readAccess(ProcId p, Addr addr, DataClass cls,
                           unsigned size);

    /**
     * Apply the coherence state changes of a store and return the drain
     * latency of its write-buffer transaction.
     */
    Cycles writeTransaction(ProcId p, Addr addr, DataClass cls,
                            unsigned size);

    /**
     * Atomic read-modify-write on a lock word (test&set): acquires
     * exclusive ownership, the processor waits for completion.
     * @return total latency including the issue cycle.
     */
    Cycles rmwAccess(ProcId p, Addr addr, DataClass cls, unsigned size);

    void issuePrefetches(ProcId p, Addr addr);

    /**
     * Fill the coherent (last) level, evicting its LRU victim: upper
     * levels drop the victim's sublines (strict inclusion), the
     * directory drops the copy, and a dirty victim writes back in the
     * background.
     */
    void fillCoherent(ProcId p, Addr addr, bool dirty);

    void fillL1(ProcId p, Addr addr);

    /**
     * Fill every intermediate level (1..n-2) missing @p addr, deepest
     * first so inclusion holds at each step. Intermediates hold clean
     * copies only, so victims drop silently (the level below still holds
     * them) after their upper-level sublines are invalidated. A chain of
     * two levels has no intermediates: this is a no-op there.
     */
    void fillIntermediates(ProcId p, Addr addr);

    /**
     * Invalidate every level above the coherent one for the sublines of
     * coherent line @p line on node @p p (eviction or remote
     * invalidation), dropping pending prefetches with them.
     */
    void invalidateUpperLevels(ProcId p, Addr line, bool coherence);

    void invalidateOtherCaches(Addr l2_line, ProcId except);
    void dropFromDirectory(ProcId p, Addr l2_line);

    /**
     * Directory transitions of a read (or prefetch) fill and of a store
     * by @p p, including the invalidation of remote copies a store
     * implies.
     */
    void applyReadFillDir(ProcId p, Addr l2_line);
    void applyStoreDir(ProcId p, Addr l2_line, WordMask wmask);

    /**
     * Profile a coherent-level read or RMW miss of type @p mt: split a
     * coherence miss into true/false sharing (into @p st and the
     * profile) and count the miss, and a conflict miss's cache set, on
     * its line. Only called with a profile attached. Reads the sharing
     * tracker without mutating it.
     */
    void profileMiss(ProcStats &st, ProcId p, Addr addr, DataClass cls,
                     unsigned size, Addr l2_line, MissType mt);

    /** Count one demand directory transaction of hop class @p hop by
     * @p st's processor on @p l2_line (a 3-hop one in the profile too). */
    void countHop(ProcStats &st, DataClass cls, Addr l2_line,
                  std::size_t hop);

    /** Dispatch one explicit entry through the pipelines (one runSeq()
     * step; also the modelStep() entry point, where @p e is
     * synthesized). */
    void stepEntry(ProcId p, const TraceEntry &e);
    void doRead(ProcId p, const TraceEntry &e);
    void doWrite(ProcId p, const TraceEntry &e);
    void doBusy(ProcId p, const TraceEntry &e);
    void doLockAcq(ProcId p, const TraceEntry &e);
    void doLockRel(ProcId p, const TraceEntry &e);

    /** The replay loop: always step the runnable processor with the
     * minimum (clock, procid). One scan finds it and its runner-up; it
     * then steps until the runner-up overtakes it, it releases a lock,
     * blocks or finishes. */
    void runSeq(std::size_t nrun);

    /** Unwind with a SimError dumping every processor's state and the
     * metalock table (simulated deadlock: all live processors blocked). */
    [[noreturn]] void throwDeadlock() const;

    /** Timeline helper: emit [start, end) of @p k on @p p if attached. */
    void span(ProcId p, obs::SpanKind k, Cycles start, Cycles end);
    /** Snapshot of the first @p n processors' cumulative run stats. */
    std::vector<ProcStats> statsSnapshot(std::size_t n) const;

    MachineConfig cfg_;
    /** Chain depth (== cfg_.numLevels()), cached for the access paths. */
    std::size_t nlev_ = 2;
    /** Per-level hit round trips, adjusted for the L1 line transfer;
     * [0] is the no-stall L1 hit cost, [nlev_-1] the coherent level's
     * (cohHitLat_). */
    std::array<Cycles, kMaxCacheLevels> levelHitLat_ = {};
    Cycles cohHitLat_ = 0;
    std::vector<std::unique_ptr<Node>> nodes_;
    Directory dir_;
    LockTable locks_;
    std::vector<ProcRun> runs_;
    obs::Sampler *sampler_ = nullptr;   ///< valid during run()
    obs::Timeline *timeline_ = nullptr; ///< valid during run()
    InvariantChecker *checker_ = nullptr; ///< optional, not owned
    obs::MemProfile *prof_ = nullptr;     ///< optional, not owned
    /** Word-granular sharing tracker; exists only while prof_ is set. */
    std::unique_ptr<SharingTracker> sharing_;
    /** Fallback interleave policy owned by the machine, so every page has
     * a home even with no external policy attached. */
    std::unique_ptr<PlacementPolicy> defaultPlacement_;
    /** Active policy, never null: the only source of page homes. */
    PlacementPolicy *placement_ = nullptr;
    /** Metalock word -> cycle its current hold began (timeline only). */
    std::unordered_map<Addr, Cycles> holdStart_;

    friend class InvariantChecker;
};

} // namespace sim
} // namespace dss

#endif // DSS_SIM_MACHINE_HH
