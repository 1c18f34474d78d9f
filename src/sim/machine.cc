#include "sim/machine.hh"

#include <cassert>
#include <cctype>
#include <stdexcept>

#include "obs/memprof.hh"
#include "obs/registry.hh"
#include "obs/sampler.hh"
#include "obs/timeline.hh"
#include "sim/arena.hh"
#include "sim/check.hh"
#include "sim/error.hh"
#include "sim/hierarchy.hh"

namespace dss {
namespace sim {

namespace {

constexpr std::uint64_t
bit(ProcId p)
{
    return std::uint64_t{1} << p;
}

std::string
lowered(std::string_view s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return out;
}

} // namespace

MachineConfig
MachineConfig::baseline()
{
    return MachineConfig{};
}

void
MachineConfig::validate() const
{
    validateMachineConfig(*this);
}

MachineConfig
MachineConfig::withLineSize(std::size_t l2_line) const
{
    MachineConfig c = *this;
    for (std::size_t lvl = 1; lvl < c.levels.size(); ++lvl)
        c.levels[lvl].lineBytes = l2_line;
    c.l1().lineBytes = l2_line / 2;
    c.validate();
    return c;
}

MachineConfig
MachineConfig::withCacheSizes(std::size_t l1_bytes,
                              std::size_t l2_bytes) const
{
    MachineConfig c = *this;
    c.l1().sizeBytes = l1_bytes;
    c.coherent().sizeBytes = l2_bytes;
    c.validate();
    return c;
}

Machine::Machine(const MachineConfig &cfg)
    : cfg_((validateMachineConfig(cfg), cfg)),
      dir_(cfg.nprocs, cfg.coherent().lineBytes, cfg.lat)
{
    // Hit round trips, adjusted for the L1-line transfer time relative
    // to the baseline 32 B L1 line (critical-word-first: short lines are
    // not faster). Level 0's entry is the no-stall L1 hit cost.
    std::int64_t adj =
        (static_cast<std::int64_t>(cfg_.l1().lineBytes) - 32) /
        static_cast<std::int64_t>(cfg_.lat.ctrlBytesPerCycle);
    if (adj < 0)
        adj = 0;
    nlev_ = cfg_.numLevels();
    levelHitLat_[0] = cfg_.l1().hitCycles;
    for (std::size_t lvl = 1; lvl < nlev_; ++lvl)
        levelHitLat_[lvl] =
            cfg_.levels[lvl].hitCycles + static_cast<Cycles>(adj);
    cohHitLat_ = levelHitLat_[nlev_ - 1];
    nodes_.reserve(cfg_.nprocs);
    for (unsigned p = 0; p < cfg_.nprocs; ++p)
        nodes_.push_back(std::make_unique<Node>(cfg_));
    defaultPlacement_ =
        PlacementPolicy::interleave({cfg_.nprocs, cfg_.pageBytes});
    placement_ = defaultPlacement_.get();
}

void
Machine::setPlacement(PlacementPolicy *placement)
{
    placement_ = placement ? placement : defaultPlacement_.get();
}

void
Machine::resetStats()
{
    dir_.resetStats();
}

void
Machine::resetMemoryState()
{
    for (auto &n : nodes_) {
        for (Cache &c : n->caches)
            c.reset();
        n->wb.reset();
        n->prefetched.clear();
    }
    dir_.reset();
    locks_.reset();
    if (sharing_)
        sharing_->reset();
}

void
Machine::setMemProfile(obs::MemProfile *profile)
{
    if (profile && (profile->lineBytes() != cfg_.coherent().lineBytes ||
                    profile->numSets() != nodes_[0]->coh().numSets())) {
        obs::Json dump = obs::Json::object();
        dump["profileLineBytes"] = profile->lineBytes();
        dump["profileSets"] = profile->numSets();
        dump["machineLineBytes"] = cfg_.coherent().lineBytes;
        dump["machineSets"] = nodes_[0]->coh().numSets();
        throw SimError("memory profile geometry differs from the "
                       "machine's coherent level",
                       std::move(dump));
    }
    prof_ = profile;
    if (!prof_)
        sharing_.reset();
    else if (!sharing_)
        sharing_ = std::make_unique<SharingTracker>(cfg_.nprocs);
}

void
Machine::profileMiss(ProcStats &st, ProcId p, Addr addr, DataClass cls,
                     unsigned size, Addr l2_line, MissType mt)
{
    using obs::LineRecord;
    if (mt == MissType::Cold) {
        prof_->count(l2_line, cls, &LineRecord::cold);
    } else if (mt == MissType::Conf) {
        prof_->count(l2_line, cls, &LineRecord::conf);
        prof_->countConflictSet(nodes_[p]->coh().setOf(l2_line));
    } else {
        const bool true_sharing = sharing_->isTrueSharing(
            p, l2_line,
            wordMaskOf(addr, size, l2_line, cfg_.coherent().lineBytes));
        ++(true_sharing ? st.l2CoheTrue : st.l2CoheFalse);
        prof_->count(l2_line, cls,
                     true_sharing ? &LineRecord::coheTrue
                                  : &LineRecord::coheFalse);
    }
}

void
Machine::countHop(ProcStats &st, DataClass cls, Addr l2_line,
                  std::size_t hop)
{
    ++st.hopsByGroup[static_cast<std::size_t>(groupOf(cls))][hop];
    if (prof_ && hop == 2) // the 3-hop class
        prof_->count(l2_line, cls, &obs::LineRecord::hop3);
}

void
Machine::dropFromDirectory(ProcId p, Addr l2_line)
{
    Directory::Entry &e = dir_.entry(l2_line);
    if (e.state == Directory::State::Dirty && e.owner == p) {
        e.state = Directory::State::Uncached;
        e.sharers = 0;
        return;
    }
    e.sharers &= ~bit(p);
    if (e.sharers == 0 && e.state == Directory::State::Shared)
        e.state = Directory::State::Uncached;
}

void
Machine::invalidateUpperLevels(ProcId p, Addr line, bool coherence)
{
    Node &n = *nodes_[p];
    const std::size_t coh_bytes = cfg_.coherent().lineBytes;
    for (std::size_t u = 0; u + 1 < n.caches.size(); ++u) {
        for (Addr a = line; a < line + coh_bytes;
             a += cfg_.levels[u].lineBytes) {
            n.caches[u].invalidate(a, coherence);
            if (u == 0)
                n.prefetched.erase(a);
        }
    }
}

void
Machine::invalidateOtherCaches(Addr l2_line, ProcId except)
{
    Directory::Entry &e = dir_.entry(l2_line);
    for (ProcId q = 0; q < cfg_.nprocs; ++q) {
        if (q == except || !(e.sharers & bit(q)))
            continue;
        nodes_[q]->coh().invalidate(l2_line, /*coherence=*/true);
        invalidateUpperLevels(q, l2_line, /*coherence=*/true);
    }
    if (e.state == Directory::State::Dirty && e.owner != except) {
        e.state = Directory::State::Uncached;
        e.sharers = 0;
    } else {
        e.sharers &= bit(except);
        if (e.sharers == 0 && e.state == Directory::State::Shared)
            e.state = Directory::State::Uncached;
    }
}

void
Machine::applyReadFillDir(ProcId p, Addr l2_line)
{
    Directory::Entry &e = dir_.entry(l2_line);
    if (e.state == Directory::State::Dirty && e.owner != p) {
        // The owner's copy is written back and downgraded to Shared.
        Node &own = *nodes_[e.owner];
        if (own.coh().contains(l2_line))
            own.coh().markClean(l2_line);
        e.state = Directory::State::Shared;
        e.sharers = bit(e.owner) | bit(p);
    } else {
        if (e.state == Directory::State::Uncached)
            e.state = Directory::State::Shared;
        e.sharers |= bit(p);
    }
    if (sharing_)
        sharing_->recordFill(p, l2_line);
}

void
Machine::applyStoreDir(ProcId p, Addr l2_line, WordMask wmask)
{
    // invalidateOtherCaches is a no-op when the line is already
    // exclusively owned by p, so the unconditional call covers the
    // upgrade, write-allocate and RMW paths alike. (writeTransaction's
    // owned-store path skips this call for exactly that reason.)
    invalidateOtherCaches(l2_line, p);
    Directory::Entry &e = dir_.entry(l2_line);
    e.state = Directory::State::Dirty;
    e.owner = p;
    e.sharers = bit(p);
    if (sharing_)
        sharing_->recordStore(p, l2_line, wmask);
}

void
Machine::fillL1(ProcId p, Addr addr)
{
    Node &n = *nodes_[p];
    if (n.l1().contains(addr))
        return;
    Cache::Victim v = n.l1().fill(addr);
    if (v.valid)
        n.prefetched.erase(v.lineAddr); // write-through L1: never dirty
}

void
Machine::fillIntermediates(ProcId p, Addr addr)
{
    Node &n = *nodes_[p];
    for (std::size_t lvl = n.caches.size() - 1; lvl-- > 1;) {
        Cache &c = n.caches[lvl];
        if (c.contains(addr))
            continue;
        Cache::Victim v = c.fill(addr, /*dirty=*/false);
        if (!v.valid)
            continue;
        // Strict inclusion: levels above this one drop the victim's
        // sublines. No writeback — intermediates hold clean copies, and
        // the level below still has the line.
        for (std::size_t u = 0; u < lvl; ++u) {
            for (Addr a = v.lineAddr;
                 a < v.lineAddr + cfg_.levels[lvl].lineBytes;
                 a += cfg_.levels[u].lineBytes) {
                n.caches[u].invalidate(a, /*coherence=*/false);
                if (u == 0)
                    n.prefetched.erase(a);
            }
        }
    }
}

void
Machine::span(ProcId p, obs::SpanKind k, Cycles start, Cycles end)
{
    if (timeline_)
        timeline_->exec(p, k, start, end);
}

std::vector<ProcStats>
Machine::statsSnapshot(std::size_t n) const
{
    std::vector<ProcStats> out;
    out.reserve(n);
    for (std::size_t p = 0; p < n && p < runs_.size(); ++p)
        out.push_back(runs_[p].stats);
    return out;
}

// The access pipelines below are only called from this file; defining
// them inline lets the compiler fold them into the step dispatch (replay
// throughput is guarded by BM_MachineReplay).

inline void
Machine::fillCoherent(ProcId p, Addr addr, bool dirty)
{
    Node &n = *nodes_[p];
    Cache::Victim v = n.coh().fill(addr, dirty);
    if (!v.valid)
        return;
    // Inclusion: no upper level may keep sublines of an evicted
    // coherent-level line.
    invalidateUpperLevels(p, v.lineAddr, /*coherence=*/false);
    dropFromDirectory(p, v.lineAddr);
    if (v.dirty) {
        // Background writeback occupies the victim's home controller but
        // does not stall the processor.
        dir_.acquireController(placement_->homeOf(v.lineAddr),
                               runs_.empty() ? 0 : runs_[p].clock);
    }
}

inline Machine::ReadOutcome
Machine::readAccess(ProcId p, Addr addr, DataClass cls, unsigned size)
{
    Node &n = *nodes_[p];
    ProcRun &r = runs_[p];
    ProcStats &st = r.stats;
    const std::size_t nlev = nlev_;
    const Addr l1_line = n.l1().lineAddrOf(addr);
    const Addr l2_line = n.coh().lineAddrOf(addr);

    ++st.reads;
    if (prof_)
        prof_->count(addr, cls, &obs::LineRecord::reads);

    // Loads are satisfied by a matching store still in the write buffer.
    if (n.wb.containsLine(l1_line, r.clock)) {
        ++st.l1Hits();
        return {levelHitLat_[0]};
    }

    if (n.l1().access(addr)) {
        ++st.l1Hits();
        if (!n.prefetched.empty()) {
            auto pf = n.prefetched.find(l1_line);
            if (pf != n.prefetched.end()) {
                ++st.prefetchesUseful;
                // The prefetch may still be in flight: wait out the
                // remainder.
                Cycles extra =
                    pf->second > r.clock ? pf->second - r.clock : 0;
                n.prefetched.erase(pf);
                return {levelHitLat_[0] + extra};
            }
        }
        return {levelHitLat_[0]};
    }

    st.l1Misses().add(cls, n.l1().classifyMiss(addr));
    ++st.l2Accesses();

    // Walk the intermediate levels (none on a two-level chain). A hit
    // there is a clean local copy under strict inclusion: no directory
    // work, just the level's round trip.
    std::size_t hit_lvl = 0;
    for (std::size_t lvl = 1; lvl + 1 < nlev; ++lvl) {
        if (lvl > 1)
            ++st.levelAccesses[lvl];
        if (n.caches[lvl].access(addr)) {
            ++st.levelHits[lvl];
            hit_lvl = lvl;
            break;
        }
        st.levelMisses[lvl].add(cls, n.caches[lvl].classifyMiss(addr));
    }

    Cycles latency;
    if (hit_lvl) {
        latency = levelHitLat_[hit_lvl];
        fillIntermediates(p, addr); // refill the levels above the hit
    } else {
        if (nlev > 2)
            ++st.levelAccesses[nlev - 1];
        if (n.coh().access(addr)) {
            ++st.levelHits[nlev - 1];
            latency = levelHitLat_[nlev - 1];
        } else {
            const MissType mt = n.coh().classifyMiss(addr);
            st.levelMisses[nlev - 1].add(cls, mt);
            if (prof_)
                profileMiss(st, p, addr, cls, size, l2_line, mt);
            const Directory::Entry v = dir_.entry(l2_line);
            const ProcId home = placement_->homeOf(l2_line);
            const bool dirty_else =
                v.state == Directory::State::Dirty && v.owner != p;
            countHop(st, cls, l2_line,
                     Directory::hopClass(p, home, v.owner, dirty_else));
            const Cycles qdelay = dir_.acquireController(home, r.clock);
            latency =
                dir_.transactionLatency(p, home, v.owner, dirty_else) +
                qdelay;
            applyReadFillDir(p, l2_line);
            fillCoherent(p, addr, /*dirty=*/false);
        }
        if (nlev > 2)
            fillIntermediates(p, addr);
    }
    fillL1(p, addr);

    // Sequential prefetch, triggered by primary-cache read misses on
    // database data: fetch the next prefetchDegree L1 lines into the L1
    // (paper Section 6). Miss-triggered issue reproduces the paper's
    // measured effectiveness — prefetching removes about a third of the
    // Data stall rather than hiding the whole stream.
    if (cfg_.prefetchData && cls == DataClass::Data)
        issuePrefetches(p, addr);

    return {latency};
}

inline Cycles
Machine::writeTransaction(ProcId p, Addr addr, DataClass cls,
                          unsigned size)
{
    Node &n = *nodes_[p];
    ProcRun &r = runs_[p];
    const Addr l2_line = n.coh().lineAddrOf(addr);
    const Directory::Entry v = dir_.entry(l2_line);
    const WordMask wmask =
        sharing_ ? wordMaskOf(addr, size, l2_line, cfg_.coherent().lineBytes)
                 : WordMask{0};

    if (v.state == Directory::State::Dirty && v.owner == p &&
        n.coh().contains(l2_line)) {
        // Already exclusively owned: drain straight into the coherent
        // level. No other cache holds the line and the directory entry
        // is already what a store sets. No upper-level coherence mark
        // is pending either: the store or RMW that took ownership repaid
        // them, and only losing ownership sets a new one.
        n.coh().access(addr, /*set_dirty=*/true);
        if (sharing_)
            sharing_->recordStore(p, l2_line, wmask);
#ifndef NDEBUG
        for (std::size_t u = 0; u + 1 < n.caches.size(); ++u)
            for (Addr a = l2_line; a < l2_line + cfg_.coherent().lineBytes;
                 a += cfg_.levels[u].lineBytes)
                assert(n.caches[u].classifyMiss(a) != MissType::Cohe &&
                       "coherence mark pending on an owned line");
#endif
        for (std::size_t u = 0; u + 1 < n.caches.size(); ++u)
            n.caches[u].access(addr);
        return cohHitLat_;
    }

    const ProcId home = placement_->homeOf(l2_line);
    Cycles drain;
    if (n.coh().contains(l2_line)) {
        // Upgrade: invalidate the other sharers via the home node.
        if (prof_)
            prof_->count(l2_line, cls, &obs::LineRecord::upgrades);
        countHop(r.stats, cls, l2_line,
                 Directory::hopClass(p, home, p, false));
        const Cycles qdelay = dir_.acquireController(home, r.clock);
        drain = dir_.transactionLatency(p, home, p, false) + qdelay;
        n.coh().access(addr, /*set_dirty=*/true);
    } else {
        // Write-allocate miss: obtain an exclusive copy. Stores allocate
        // only at the coherence point; intermediate levels are read-side
        // structures and pick the line up on the next read miss.
        const bool dirty_else =
            v.state == Directory::State::Dirty && v.owner != p;
        countHop(r.stats, cls, l2_line,
                 Directory::hopClass(p, home, v.owner, dirty_else));
        const Cycles qdelay = dir_.acquireController(home, r.clock);
        drain = dir_.transactionLatency(p, home, v.owner, dirty_else) +
                qdelay;
        fillCoherent(p, addr, /*dirty=*/true);
    }
    applyStoreDir(p, l2_line, wmask);

    // The store (re)established exclusive ownership: any pending upper-
    // level coherence marks on this line's sublines are repaid by this
    // very transaction. The write-through L1 never allocates on a store,
    // so without this the next read of an invalidated subline — a hit on
    // our own fresh exclusive copy — would classify Cohe a second time,
    // double-counting the upgrade.
    for (std::size_t u = 0; u + 1 < n.caches.size(); ++u)
        for (Addr a = l2_line; a < l2_line + cfg_.coherent().lineBytes;
             a += cfg_.levels[u].lineBytes)
            n.caches[u].clearCoherenceMark(a);

    // Upper levels stay write-through: a resident line is updated in
    // place (stays valid); a missing line is not allocated.
    for (std::size_t u = 0; u + 1 < n.caches.size(); ++u)
        n.caches[u].access(addr);
    return drain;
}

inline Cycles
Machine::rmwAccess(ProcId p, Addr addr, DataClass cls, unsigned size)
{
    Node &n = *nodes_[p];
    ProcRun &r = runs_[p];
    ProcStats &st = r.stats;
    const std::size_t nlev = nlev_;
    const Addr l2_line = n.coh().lineAddrOf(addr);

    ++st.reads;
    if (prof_)
        prof_->count(addr, cls, &obs::LineRecord::reads);
    const bool l1hit = n.l1().access(addr);
    if (l1hit) {
        ++st.l1Hits();
    } else {
        st.l1Misses().add(cls, n.l1().classifyMiss(addr));
        ++st.l2Accesses();
        // Intermediate-level bookkeeping: the lookup passes through on
        // its way to the coherence point, where the atomic resolves.
        for (std::size_t lvl = 1; lvl + 1 < nlev; ++lvl) {
            if (lvl > 1)
                ++st.levelAccesses[lvl];
            if (n.caches[lvl].access(addr)) {
                ++st.levelHits[lvl];
                break;
            }
            st.levelMisses[lvl].add(cls,
                                    n.caches[lvl].classifyMiss(addr));
        }
        if (nlev > 2)
            ++st.levelAccesses[nlev - 1];
    }

    const Directory::Entry v = dir_.entry(l2_line);
    const ProcId home = placement_->homeOf(l2_line);
    const bool l2has = n.coh().contains(l2_line);

    Cycles latency;
    if (l2has && v.state == Directory::State::Dirty && v.owner == p) {
        // Exclusive at our coherent level: the atomic completes there.
        if (!l1hit)
            ++st.levelHits[nlev - 1];
        n.coh().access(addr, /*set_dirty=*/true);
        latency = cohHitLat_;
    } else {
        if (!l2has && !l1hit) {
            const MissType mt = n.coh().classifyMiss(addr);
            st.levelMisses[nlev - 1].add(cls, mt);
            if (prof_)
                profileMiss(st, p, addr, cls, size, l2_line, mt);
        } else if (prof_ && l2has) {
            prof_->count(l2_line, cls, &obs::LineRecord::upgrades);
        }
        const bool dirty_else =
            v.state == Directory::State::Dirty && v.owner != p;
        countHop(st, cls, l2_line,
                 Directory::hopClass(p, home, v.owner, dirty_else));
        const Cycles qdelay = dir_.acquireController(home, r.clock);
        latency = dir_.transactionLatency(p, home, v.owner, dirty_else) +
                  qdelay;
        if (l2has)
            n.coh().access(addr, /*set_dirty=*/true);
        else
            fillCoherent(p, addr, /*dirty=*/true);
        applyStoreDir(p, l2_line,
                        sharing_ ? wordMaskOf(addr, size, l2_line,
                                              cfg_.coherent().lineBytes)
                                 : WordMask{0});
        // Same repayment rule as writeTransaction: the RMW acquired
        // exclusive ownership, so pending upper-level coherence marks on
        // the line's sublines are settled by this transaction.
        for (std::size_t u = 0; u + 1 < nlev; ++u)
            for (Addr a = l2_line; a < l2_line + cfg_.coherent().lineBytes;
                 a += cfg_.levels[u].lineBytes)
                n.caches[u].clearCoherenceMark(a);
    }
    if (!l1hit) {
        if (nlev > 2)
            fillIntermediates(p, addr);
        fillL1(p, addr);
    }
    return latency;
}

inline void
Machine::issuePrefetches(ProcId p, Addr addr)
{
    Node &n = *nodes_[p];
    ProcRun &r = runs_[p];
    const Addr l1_line = n.l1().lineAddrOf(addr);
    Cycles issue = r.clock;
    for (unsigned i = 1; i <= cfg_.prefetchDegree; ++i) {
        const Addr a = l1_line + i * cfg_.l1().lineBytes;
        if (n.l1().contains(a))
            continue;
        const Addr l2_line = n.coh().lineAddrOf(a);
        Cycles ready = issue + cohHitLat_;
        if (!n.coh().contains(l2_line)) {
            const Directory::Entry v = dir_.entry(l2_line);
            if (v.state == Directory::State::Dirty && v.owner != p)
                continue; // keep the prefetcher out of dirty remote lines
            // The fetch occupies the home controller (contention) but the
            // processor does not wait for it.
            const ProcId home = placement_->homeOf(l2_line);
            const Cycles qdelay = dir_.acquireController(home, issue);
            ready = issue + qdelay +
                    dir_.transactionLatency(p, home, v.owner, false);
            applyReadFillDir(p, l2_line);
            fillCoherent(p, a, /*dirty=*/false);
        }
        if (nlev_ > 2)
            fillIntermediates(p, a);
        fillL1(p, a);
        n.prefetched[n.l1().lineAddrOf(a)] = ready;
        // Prefetches leave the node back to back, one per miss-port slot.
        issue += cfg_.lat.controllerOccupancy;
        ++r.stats.prefetchesIssued;
    }
}

inline void
Machine::doRead(ProcId p, const TraceEntry &e)
{
    ProcRun &r = runs_[p];
    ReadOutcome o = readAccess(p, e.addr, e.cls, e.size);
    const Cycles stall =
        o.latency > levelHitLat_[0] ? o.latency - levelHitLat_[0] : 0;
    r.stats.busy += cfg_.issueCyclesPerRef;
    r.stats.memStall += stall;
    r.stats.memStallByGroup[static_cast<std::size_t>(groupOf(e.cls))] +=
        stall;
    span(p, obs::SpanKind::Busy, r.clock,
              r.clock + cfg_.issueCyclesPerRef);
    span(p, obs::SpanKind::Mem, r.clock + cfg_.issueCyclesPerRef,
              r.clock + cfg_.issueCyclesPerRef + stall);
    r.clock += cfg_.issueCyclesPerRef + stall;
}

inline void
Machine::doWrite(ProcId p, const TraceEntry &e)
{
    Node &n = *nodes_[p];
    ProcRun &r = runs_[p];
    ++r.stats.writes;
    if (prof_)
        prof_->count(e.addr, e.cls, &obs::LineRecord::writes);
    r.stats.busy += cfg_.issueCyclesPerRef;
    span(p, obs::SpanKind::Busy, r.clock,
              r.clock + cfg_.issueCyclesPerRef);
    r.clock += cfg_.issueCyclesPerRef;

    const Cycles drain = writeTransaction(p, e.addr, e.cls, e.size);
    const Cycles stall =
        n.wb.push(r.clock, drain, n.l1().lineAddrOf(e.addr));
    if (stall) {
        ++r.stats.wbOverflows;
        r.stats.memStall += stall;
        r.stats.memStallByGroup[static_cast<std::size_t>(groupOf(e.cls))] +=
            stall;
        span(p, obs::SpanKind::Mem, r.clock, r.clock + stall);
        r.clock += stall;
    }
}

inline void
Machine::doBusy(ProcId p, const TraceEntry &e)
{
    ProcRun &r = runs_[p];
    r.stats.busy += e.extra;
    // Untraced private stack/static references ride along with the
    // busy instructions and always hit (paper Section 4.2, about one
    // reference per four instructions); count them so miss rates
    // share the paper's denominator.
    r.stats.assumedHitReads += e.extra / 4;
    span(p, obs::SpanKind::Busy, r.clock, r.clock + e.extra);
    r.clock += e.extra;
}


void
Machine::doLockAcq(ProcId p, const TraceEntry &e)
{
    ProcRun &r = runs_[p];
    const Addr w = e.addr;

    if (r.acqPending) {
        // Phase 2: our test&set transaction has completed; take the lock
        // if it is (still) free. The lock is held only from this point, so
        // the hold time covers the critical section, not the acquire
        // latency — exactly like a real test&test&set.
        r.acqPending = false;
        if (locks_.isHeld(w) && locks_.holder(w) != p) {
            // Lost the race: spin (pure wait, charged to MSync on wake-up;
            // re-execution pays a fresh coherence transfer on the word).
            r.blocked = true;
            r.blockStart = r.clock;
            locks_.addWaiter(w, p);
            return;
        }
        if (!locks_.isHeld(w)) {
            bool ok = locks_.tryAcquire(w, p);
            assert(ok);
            (void)ok;
        }
        // else: handed off to us by the releaser.
        if (timeline_)
            holdStart_[w] = r.clock;
        ++r.pos;
        return;
    }

    if (locks_.isHeld(w) && locks_.holder(w) != p) {
        // Test phase sees the lock held: spin without issuing the RMW.
        r.blocked = true;
        r.blockStart = r.clock;
        locks_.addWaiter(w, p);
        return; // entry will be re-executed on wake-up
    }

    // Phase 1: the test&set itself — an exclusive access to the lock word.
    // Its stall is memory time on metadata; only spinning is MSync.
    const Cycles lat = rmwAccess(p, w, e.cls, e.size);
    const Cycles stall =
        lat > levelHitLat_[0] ? lat - levelHitLat_[0] : 0;
    r.stats.busy += cfg_.issueCyclesPerRef;
    r.stats.memStall += stall;
    r.stats.memStallByGroup[static_cast<std::size_t>(groupOf(e.cls))] +=
        stall;
    span(p, obs::SpanKind::Busy, r.clock, r.clock + cfg_.issueCyclesPerRef);
    span(p, obs::SpanKind::Mem, r.clock + cfg_.issueCyclesPerRef,
         r.clock + cfg_.issueCyclesPerRef + stall);
    r.clock += cfg_.issueCyclesPerRef + stall;
    r.acqPending = true; // grab happens at the new, later time
}

void
Machine::doLockRel(ProcId p, const TraceEntry &e)
{
    // The release store goes through the write buffer like any other store
    // and invalidates the spinners' cached copies of the lock word.
    doWrite(p, e);

    // Then the metalock passes to the first waiter, which wakes no
    // earlier than the release; its whole spin is MSync.
    ProcRun &r = runs_[p];
    if (timeline_) {
        auto hold = holdStart_.find(e.addr);
        if (hold != holdStart_.end()) {
            timeline_->lockSpan(e.addr, e.cls, obs::SpanKind::LockHold, p,
                                hold->second, r.clock);
            holdStart_.erase(hold);
        }
    }
    const ProcId next = locks_.release(e.addr, p);
    if (next != LockTable::kNoWaiter) {
        ProcRun &w = runs_[next];
        assert(w.blocked);
        const Cycles wake = std::max(w.clock, r.clock);
        w.stats.syncStall += wake - w.blockStart;
        span(next, obs::SpanKind::Sync, w.blockStart, wake);
        if (timeline_)
            timeline_->lockSpan(e.addr, e.cls, obs::SpanKind::LockSpin,
                                next, w.blockStart, wake);
        w.clock = wake;
        w.blocked = false;
    }
    ++r.pos;
}

void
Machine::stepEntry(ProcId p, const TraceEntry &e)
{
    ProcRun &r = runs_[p];
    switch (e.op) {
      case Op::Read:
        doRead(p, e);
        ++r.pos;
        break;
      case Op::Write:
        doWrite(p, e);
        ++r.pos;
        break;
      case Op::Busy:
        doBusy(p, e);
        ++r.pos;
        break;
      case Op::LockAcq:
        doLockAcq(p, e);
        break;
      case Op::LockRel:
        doLockRel(p, e);
        break;
    }
    if (checker_)
        checker_->onStep(*this, p, e);
}

void
Machine::beginModelSteps()
{
    resetMemoryState();
    runs_.clear();
    runs_.resize(cfg_.nprocs);
    for (ProcRun &r : runs_)
        r.stats.levels = static_cast<std::uint8_t>(cfg_.numLevels());
    dir_.resetControllers();
    holdStart_.clear();
    // Resolve page homes as run() would; with no traces a first-touch
    // policy simply claims nothing and interleave stays interleave.
    placement_->beginRun({});
}

void
Machine::modelStep(ProcId p, const TraceEntry &e)
{
    assert(p < runs_.size() && "beginModelSteps() before modelStep()");
    stepEntry(p, e);
}

void
Machine::modelEvict(ProcId p, Addr addr)
{
    assert(p < runs_.size() && "beginModelSteps() before modelEvict()");
    Node &n = *nodes_[p];
    const Addr l2_line = n.coh().lineAddrOf(addr);
    if (!n.coh().contains(l2_line))
        return;
    n.coh().invalidate(l2_line, /*coherence=*/false);
    invalidateUpperLevels(p, l2_line, /*coherence=*/false);
    // Keep the directory agreeing with the caches, as an organic
    // eviction does (fillCoherent).
    dropFromDirectory(p, l2_line);
}

void
Machine::setProcWaitState(ProcId p, bool blocked, bool acq_pending)
{
    ProcRun &r = runs_.at(p);
    r.blocked = blocked;
    r.blockStart = r.clock;
    r.acqPending = acq_pending;
}

SimStats
Machine::run(const std::vector<const TraceStream *> &traces,
             obs::Sampler *sampler, obs::Timeline *timeline)
{
    if (traces.size() > cfg_.nprocs)
        throw std::invalid_argument("more traces than processors");

    runs_.clear();
    runs_.resize(cfg_.nprocs);
    for (ProcRun &r : runs_)
        r.stats.levels = static_cast<std::uint8_t>(cfg_.numLevels());
    for (std::size_t i = 0; i < traces.size(); ++i)
        runs_[i].entries = &traces[i]->entries();

    locks_.reset();
    dir_.resetControllers();
    for (auto &n : nodes_)
        n->wb.reset();

    // Resolve page homes before the first step: the flat table is
    // immutable for the whole run, and first-touch claims are a pure
    // function of the traces.
    placement_->beginRun(traces);

    sampler_ = sampler;
    timeline_ = timeline;
    holdStart_.clear();
    if (sampler_)
        sampler_->beginRun(traces.size());
    if (timeline_)
        timeline_->beginRun();

    try {
        runSeq(traces.size());
    } catch (...) {
        // Never leave dangling observer pointers behind an unwinding
        // run (SimError from a simulated deadlock).
        sampler_ = nullptr;
        timeline_ = nullptr;
        throw;
    }

    if (checker_)
        checker_->onRunEnd(*this);

    SimStats out;
    out.procs.reserve(traces.size());
    for (std::size_t i = 0; i < traces.size(); ++i)
        out.procs.push_back(runs_[i].stats);

    if (sampler_)
        sampler_->finishRun(out.executionTime(),
                            statsSnapshot(traces.size()));
    sampler_ = nullptr;
    timeline_ = nullptr;
    return out;
}

void
Machine::runSeq(std::size_t nrun)
{
    const ProcId none = cfg_.nprocs;
    for (;;) {
        // One scan finds the minimum-(clock, id) runnable processor and
        // its runner-up.
        ProcId best = none, next = none;
        for (ProcId p = 0; p < cfg_.nprocs; ++p) {
            const ProcRun &r = runs_[p];
            if (r.done() || r.blocked)
                continue;
            if (best == none || r.clock < runs_[best].clock) {
                next = best;
                best = p;
            } else if (next == none || r.clock < runs_[next].clock) {
                next = p;
            }
        }
        if (best == none) {
            for (ProcId p = 0; p < cfg_.nprocs; ++p)
                if (!runs_[p].done())
                    throwDeadlock();
            break;
        }
        // Step the winner while it still beats the runner-up. Only its
        // own clock moves meanwhile, except through a LockRel: it wakes a
        // waiter at the releaser's own clock, so the waiter either steps
        // first (lower id) or may now be the runner-up (higher id). So
        // rescan after a release, a block or the end of the trace, and
        // the step order is exactly the one a scan before every entry
        // gives (DESIGN.md §11).
        ProcRun &r = runs_[best];
        for (;;) {
            // The chosen processor holds the minimum runnable clock: once
            // it crosses an epoch boundary, every processor has.
            if (sampler_ && sampler_->due(r.clock))
                sampler_->sample(r.clock, statsSnapshot(nrun));
            const TraceEntry &e = (*r.entries)[r.pos];
            stepEntry(best, e);
            if (e.op == Op::LockRel || r.blocked || r.done())
                break;
            if (next != none && (r.clock > runs_[next].clock ||
                                 (r.clock == runs_[next].clock && next < best)))
                break;
        }
    }
}

void
Machine::throwDeadlock() const
{
    obs::Json dump = obs::Json::object();
    dump["error"] = "deadlock";
    obs::Json procs = obs::Json::array();
    for (ProcId p = 0; p < cfg_.nprocs; ++p) {
        const ProcRun &r = runs_[p];
        obs::Json pj = obs::Json::object();
        pj["proc"] = p;
        pj["clock"] = r.clock;
        pj["pos"] = r.pos;
        pj["entries"] = r.entries ? r.entries->size() : 0;
        pj["done"] = r.done();
        pj["blocked"] = r.blocked;
        if (r.blocked)
            pj["block_start"] = r.blockStart;
        pj["acq_pending"] = r.acqPending;
        if (!r.done()) {
            const TraceEntry &e = (*r.entries)[r.pos];
            obs::Json pending = obs::Json::object();
            const char *op = "?";
            switch (e.op) {
              case Op::Read: op = "read"; break;
              case Op::Write: op = "write"; break;
              case Op::Busy: op = "busy"; break;
              case Op::LockAcq: op = "lock_acq"; break;
              case Op::LockRel: op = "lock_rel"; break;
            }
            pending["op"] = op;
            pending["addr"] = e.addr;
            pending["class"] = std::string(dataClassName(e.cls));
            pj["pending"] = std::move(pending);
        }
        procs.push(std::move(pj));
    }
    dump["procs"] = std::move(procs);
    obs::Json locks = obs::Json::array();
    for (const LockTable::Info &info : locks_.snapshot()) {
        obs::Json lj = obs::Json::object();
        lj["word"] = info.word;
        lj["held"] = info.held;
        if (info.held)
            lj["holder"] = info.holder;
        obs::Json waiters = obs::Json::array();
        for (ProcId w : info.waiters)
            waiters.push(w);
        lj["waiters"] = std::move(waiters);
        locks.push(std::move(lj));
    }
    dump["locks"] = std::move(locks);
    throw SimError("simulated deadlock: every live processor is blocked "
                   "on a metalock",
                   std::move(dump));
}

void
Machine::registerStats(obs::Registry &reg, const std::string &prefix) const
{
    for (ProcId p = 0; p < cfg_.nprocs; ++p) {
        const std::string base =
            obs::metricName(prefix, "proc" + std::to_string(p));
        auto proc = [&](const char *leaf, auto getter) {
            reg.addCounter(obs::metricName(base, leaf), [this, p, getter] {
                return p < runs_.size() ? getter(runs_[p].stats)
                                        : std::uint64_t{0};
            });
        };
        // Per-run ProcStats views; flat snake_case leaves so they cannot
        // collide with the per-component lifetime counters below.
        proc("busy", [](const ProcStats &s) { return s.busy; });
        proc("mem_stall", [](const ProcStats &s) { return s.memStall; });
        proc("sync_stall", [](const ProcStats &s) { return s.syncStall; });
        proc("reads", [](const ProcStats &s) { return s.reads; });
        proc("writes", [](const ProcStats &s) { return s.writes; });
        proc("l1_hits", [](const ProcStats &s) { return s.l1Hits(); });
        proc("l2_accesses",
             [](const ProcStats &s) { return s.l2Accesses(); });
        proc("l2_hits", [](const ProcStats &s) { return s.l2Hits(); });
        // Deeper chains export their extra levels alongside; on the
        // two-level baseline none of these exist and the registry's
        // metric set is exactly the legacy one.
        for (std::size_t lvl = 2; lvl < cfg_.numLevels(); ++lvl) {
            proc((levelName(lvl) + "_accesses").c_str(),
                 [lvl](const ProcStats &s) {
                     return s.levelAccesses[lvl];
                 });
            proc((levelName(lvl) + "_hits").c_str(),
                 [lvl](const ProcStats &s) { return s.levelHits[lvl]; });
        }
        proc("wb_overflows",
             [](const ProcStats &s) { return s.wbOverflows; });
        proc("prefetch_issued",
             [](const ProcStats &s) { return s.prefetchesIssued; });
        proc("prefetch_useful",
             [](const ProcStats &s) { return s.prefetchesUseful; });

        // True/false-sharing split of the L2 coherence misses. The split
        // counters stay zero unless a memory profile is attached; when
        // one is, miss.cohe.true + miss.cohe.false == miss.cohe exactly
        // (MemProfile.ReportReconcilesWithMachineCounters asserts this).
        proc("miss.cohe", [](const ProcStats &s) {
            std::uint64_t n = 0;
            for (std::size_t c = 0; c < kNumDataClasses; ++c)
                n += s.cohMisses().of(static_cast<DataClass>(c),
                                      MissType::Cohe);
            return n;
        });
        proc("miss.cohe.true",
             [](const ProcStats &s) { return s.l2CoheTrue; });
        proc("miss.cohe.false",
             [](const ProcStats &s) { return s.l2CoheFalse; });

        // Demand directory transactions by structure group and hop
        // class: proc0.hops.data.local / .hop2 / .hop3 ... (the
        // placement layer's figure of merit; see sim/placement.hh).
        static const char *const hop_leaf[ProcStats::kNumHopClasses] = {
            "local", "hop2", "hop3"};
        for (std::size_t g = 0; g < kNumClassGroups; ++g) {
            for (std::size_t h = 0; h < ProcStats::kNumHopClasses; ++h) {
                std::string name = obs::metricName(
                    base,
                    "hops." +
                        lowered(classGroupName(
                            static_cast<ClassGroup>(g))) +
                        "." + hop_leaf[h]);
                reg.addCounter(name, [this, p, g, h] {
                    return p < runs_.size()
                               ? runs_[p].stats.hopsByGroup[g][h]
                               : std::uint64_t{0};
                });
            }
        }

        // One counter per miss-table cell and level:
        // proc0.l1.miss.cold.index ... proc0.l3.miss.cohe.data ...
        for (std::size_t lvl = 0; lvl < cfg_.numLevels(); ++lvl) {
            for (std::size_t t = 0; t < kNumMissTypes; ++t) {
                for (std::size_t c = 0; c < kNumDataClasses; ++c) {
                    auto mt = static_cast<MissType>(t);
                    auto cls = static_cast<DataClass>(c);
                    std::string name = obs::metricName(
                        base, levelName(lvl) + ".miss." +
                                  lowered(missTypeName(mt)) + "." +
                                  lowered(dataClassName(cls)));
                    reg.addCounter(name, [this, p, lvl, cls, mt] {
                        if (p >= runs_.size())
                            return std::uint64_t{0};
                        const ProcStats &s = runs_[p].stats;
                        return s.levelMisses[lvl].of(cls, mt);
                    });
                }
            }
        }

        for (std::size_t lvl = 0; lvl < cfg_.numLevels(); ++lvl)
            nodes_[p]->caches[lvl].registerStats(
                reg, base + "." + levelName(lvl));
        nodes_[p]->wb.registerStats(reg, base + ".wb");
    }
    dir_.registerStats(reg, obs::metricName(prefix, "dir"));
    locks_.registerStats(reg, obs::metricName(prefix, "locks"));
}

} // namespace sim
} // namespace dss
