#include "sim/check.hh"

#include <algorithm>
#include <bitset>
#include <sstream>

#include "obs/registry.hh"
#include "sim/machine.hh"

namespace dss {
namespace sim {

namespace {

constexpr std::uint64_t
bit(ProcId p)
{
    return std::uint64_t{1} << p;
}

unsigned
popcount(std::uint64_t mask)
{
    return static_cast<unsigned>(std::bitset<64>(mask).count());
}

std::string
hexAddr(Addr a)
{
    std::ostringstream os;
    os << "0x" << std::hex << a;
    return os.str();
}

/** "L1 of proc 2 holds 0x40 without the L2 line": level @p u (0-based)
 * of processor @p p keeps @p a while level u+1 lacks its line. */
std::string
inclusionDetail(std::size_t u, ProcId p, Addr a)
{
    std::ostringstream os;
    os << 'L' << u + 1 << " of proc " << p << " holds " << hexAddr(a)
       << " without the L" << u + 2 << " line";
    return os.str();
}

} // namespace

std::string_view
invariantName(Invariant inv)
{
    switch (inv) {
      case Invariant::Swmr: return "swmr";
      case Invariant::DirState: return "dir_state";
      case Invariant::Inclusion: return "inclusion";
      case Invariant::WbFifo: return "wb_fifo";
      case Invariant::LockState: return "lock_state";
    }
    return "?";
}

void
InvariantChecker::report(Invariant inv, Addr addr, ProcId proc,
                         std::string detail)
{
    ++counts_[static_cast<std::size_t>(inv)];
    ++total_;
    if (recorded_.size() < kMaxRecorded)
        recorded_.push_back({inv, addr, proc, std::move(detail)});
}

void
InvariantChecker::checkLine(const Machine &m, Addr addr)
{
    const MachineConfig &cfg = m.cfg_;
    const Addr line = m.dir_.lineAddrOf(addr);

    std::uint64_t holders = 0;
    std::uint64_t dirty = 0;
    for (ProcId p = 0; p < cfg.nprocs; ++p) {
        const Cache &l2 = m.nodes_[p]->coh();
        if (!l2.contains(line))
            continue;
        holders |= bit(p);
        if (l2.isDirty(line))
            dirty |= bit(p);
    }

    // --- Swmr: at most one Modified copy, never mixed with others ---
    if (popcount(dirty) > 1) {
        report(Invariant::Swmr, line, 0,
               "multiple dirty copies of " + hexAddr(line) +
                   " (dirty mask " + std::to_string(dirty) + ")");
    } else if (dirty != 0 && holders != dirty) {
        report(Invariant::Swmr, line, 0,
               "dirty copy of " + hexAddr(line) +
                   " coexists with other cached copies (holders " +
                   std::to_string(holders) + ")");
    }

    // --- DirState: the directory entry agrees with the caches ---
    const Directory::Entry *pe = m.dir_.peek(line);
    const Directory::Entry e = pe ? *pe : Directory::Entry{};
    switch (e.state) {
      case Directory::State::Uncached:
        if (dirty != 0)
            report(Invariant::DirState, line, 0,
                   "dirty cached copy of " + hexAddr(line) +
                       " under an Uncached directory entry");
        else if (holders != 0)
            report(Invariant::DirState, line, 0,
                   "cached copy of " + hexAddr(line) +
                       " under an Uncached directory entry");
        break;
      case Directory::State::Shared: {
        if (e.sharers == 0)
            report(Invariant::DirState, line, 0,
                   "Shared entry for " + hexAddr(line) +
                       " with an empty sharer set");
        if (dirty != 0)
            report(Invariant::DirState, line, 0,
                   "dirty cached copy of " + hexAddr(line) +
                       " under a Shared directory entry");
        const std::uint64_t missing = e.sharers & ~holders;
        if (missing != 0)
            report(Invariant::DirState, line, 0,
                   "sharer bits " + std::to_string(missing) + " of " +
                       hexAddr(line) + " name caches with no copy");
        const std::uint64_t extra = holders & ~e.sharers;
        if (extra != 0)
            report(Invariant::DirState, line, 0,
                   "caches " + std::to_string(extra) + " hold " +
                       hexAddr(line) + " but are not in the sharer set");
        break;
      }
      case Directory::State::Dirty: {
        if (e.owner >= cfg.nprocs) {
            report(Invariant::DirState, line, 0,
                   "Dirty entry for " + hexAddr(line) +
                       " names invalid owner " + std::to_string(e.owner));
            break;
        }
        if (!(holders & bit(e.owner)))
            report(Invariant::DirState, line, e.owner,
                   "Dirty entry for " + hexAddr(line) +
                       " but the owner holds no copy");
        else if (!(dirty & bit(e.owner)))
            report(Invariant::DirState, line, e.owner,
                   "Dirty entry for " + hexAddr(line) +
                       " but the owner's copy is clean");
        if (e.sharers != bit(e.owner))
            report(Invariant::DirState, line, e.owner,
                   "Dirty entry for " + hexAddr(line) +
                       " with sharer set != owner bit");
        const std::uint64_t others = holders & ~bit(e.owner);
        if (others != 0)
            report(Invariant::DirState, line, e.owner,
                   "caches " + std::to_string(others) +
                       " hold copies of Dirty-owned " + hexAddr(line));
        break;
      }
    }

    // --- Inclusion: each level's sublines require the enclosing line
    // one level down, pairwise along the whole chain ---
    for (ProcId p = 0; p < cfg.nprocs; ++p) {
        const Machine::Node &n = *m.nodes_[p];
        for (std::size_t u = 0; u + 1 < n.caches.size(); ++u) {
            for (Addr la = line; la < line + cfg.coherent().lineBytes;
                 la += cfg.levels[u + 1].lineBytes) {
                if (n.caches[u + 1].contains(la))
                    continue;
                for (Addr a = la; a < la + cfg.levels[u + 1].lineBytes;
                     a += cfg.levels[u].lineBytes) {
                    if (n.caches[u].contains(a))
                        report(Invariant::Inclusion, a, p,
                               inclusionDetail(u, p, a));
                }
            }
        }
    }
}

void
InvariantChecker::checkWriteBuffer(const Machine &m, ProcId p)
{
    if (!m.nodes_[p]->wb.fifoOrdered())
        report(Invariant::WbFifo, 0, p,
               "write buffer of proc " + std::to_string(p) +
                   " has out-of-order retire times");
}

void
InvariantChecker::checkLocks(const Machine &m)
{
    const unsigned np = m.cfg_.nprocs;
    std::vector<unsigned> waitCount(np, 0);
    for (const LockTable::Info &info : m.locks_.snapshot()) {
        if (!info.held && !info.waiters.empty())
            report(Invariant::LockState, info.word, 0,
                   "waiters queued on free lock " + hexAddr(info.word));
        if (info.held && info.holder >= np)
            report(Invariant::LockState, info.word, info.holder,
                   "lock " + hexAddr(info.word) +
                       " held by invalid processor");
        std::vector<ProcId> seen;
        for (ProcId w : info.waiters) {
            if (w >= np) {
                report(Invariant::LockState, info.word, w,
                       "invalid processor queued on " + hexAddr(info.word));
                continue;
            }
            ++waitCount[w];
            if (info.held && w == info.holder)
                report(Invariant::LockState, info.word, w,
                       "holder of " + hexAddr(info.word) +
                           " queued on its own lock");
            if (std::find(seen.begin(), seen.end(), w) != seen.end())
                report(Invariant::LockState, info.word, w,
                       "processor queued twice on " + hexAddr(info.word));
            seen.push_back(w);
        }
    }
    // Cross-check against the processors' blocked flags (only meaningful
    // while a run is active and between whole steps).
    if (m.runs_.size() == np) {
        for (ProcId p = 0; p < np; ++p) {
            const bool blocked = m.runs_[p].blocked;
            if (blocked && waitCount[p] != 1)
                report(Invariant::LockState, 0, p,
                       "blocked processor " + std::to_string(p) +
                           " waits in " + std::to_string(waitCount[p]) +
                           " queues");
            else if (!blocked && waitCount[p] != 0)
                report(Invariant::LockState, 0, p,
                       "runnable processor " + std::to_string(p) +
                           " is queued as a lock waiter");
        }
    }
}

void
InvariantChecker::onStep(const Machine &m, ProcId p, const TraceEntry &e)
{
    switch (e.op) {
      case Op::Read:
        checkLine(m, e.addr);
        break;
      case Op::Write:
        checkLine(m, e.addr);
        checkWriteBuffer(m, p);
        break;
      case Op::Busy:
        break;
      case Op::LockAcq:
      case Op::LockRel:
        checkLine(m, e.addr);
        checkLocks(m);
        break;
    }
}

void
InvariantChecker::sweep(const Machine &m)
{
    // Every line the directory tracks, plus every resident L2 line (to
    // catch cached copies the directory forgot about entirely).
    std::vector<Addr> lines;
    for (const auto &[addr, entry] : m.dir_.sortedEntries()) {
        (void)entry;
        lines.push_back(addr);
    }
    for (ProcId p = 0; p < m.cfg_.nprocs; ++p)
        for (Addr a : m.nodes_[p]->coh().residentLines())
            lines.push_back(m.dir_.lineAddrOf(a));
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    for (Addr a : lines)
        checkLine(m, a);

    // Full inclusion pass from the upper side (checkLine only covers
    // lines the coherent level/directory know about): every resident
    // line at level u must be enclosed at level u+1.
    for (ProcId p = 0; p < m.cfg_.nprocs; ++p) {
        const Machine::Node &n = *m.nodes_[p];
        for (std::size_t u = 0; u + 1 < n.caches.size(); ++u)
            for (Addr a : n.caches[u].residentLines())
                if (!n.caches[u + 1].contains(a))
                    report(Invariant::Inclusion, a, p,
                           inclusionDetail(u, p, a));
        checkWriteBuffer(m, p);
    }
    checkLocks(m);
}

void
InvariantChecker::onRunEnd(const Machine &m)
{
    sweep(m);
}

void
InvariantChecker::registerStats(obs::Registry &reg,
                                const std::string &prefix) const
{
    for (std::size_t i = 0; i < kNumInvariants; ++i) {
        const auto inv = static_cast<Invariant>(i);
        reg.addCounter(
            obs::metricName(prefix,
                            std::string("violations.") +
                                std::string(invariantName(inv))),
            [this, i] { return counts_[i]; });
    }
    reg.addCounter(obs::metricName(prefix, "violations.total"),
                   [this] { return total_; });
}

obs::Json
InvariantChecker::toJson() const
{
    obs::Json j = obs::Json::object();
    obs::Json v = obs::Json::object();
    for (std::size_t i = 0; i < kNumInvariants; ++i)
        v[std::string(invariantName(static_cast<Invariant>(i)))] =
            counts_[i];
    v["total"] = total_;
    j["violations"] = std::move(v);
    obs::Json recs = obs::Json::array();
    for (const CheckViolation &r : recorded_) {
        obs::Json rec = obs::Json::object();
        rec["invariant"] = std::string(invariantName(r.inv));
        rec["addr"] = r.addr;
        rec["proc"] = r.proc;
        rec["detail"] = r.detail;
        recs.push(std::move(rec));
    }
    j["records"] = std::move(recs);
    return j;
}

} // namespace sim
} // namespace dss
