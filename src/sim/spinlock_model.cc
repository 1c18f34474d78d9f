#include "sim/spinlock_model.hh"

#include <algorithm>
#include <cassert>

#include "obs/registry.hh"
#include "sim/error.hh"

namespace dss {
namespace sim {

bool
LockTable::tryAcquire(Addr word, ProcId proc)
{
    State &s = locks_[word];
    if (s.held)
        return false;
    s.held = true;
    s.holderProc = proc;
    ++ctrs_.acquires;
    return true;
}

void
LockTable::addWaiter(Addr word, ProcId proc)
{
    State &s = locks_[word];
    assert(s.held && "waiting on a free lock");
    s.queue.push_back(proc);
    ++ctrs_.waits;
}

ProcId
LockTable::release(Addr word, ProcId proc)
{
    State &s = locks_[word];
    if (!s.held || s.holderProc != proc) {
        obs::Json dump = obs::Json::object();
        dump["error"] = "release by non-holder";
        dump["word"] = word;
        dump["held"] = s.held;
        if (s.held)
            dump["holder"] = s.holderProc;
        dump["releaser"] = proc;
        throw SimError("metalock released by a processor that does not "
                       "hold it",
                       std::move(dump));
    }
    ++ctrs_.releases;
    if (s.queue.empty()) {
        s.held = false;
        return kNoWaiter;
    }
    ProcId next = s.queue.front();
    s.queue.pop_front();
    s.holderProc = next; // hand-off: still held, new owner
    ++ctrs_.handoffs;
    return next;
}

bool
LockTable::isHeld(Addr word) const
{
    auto it = locks_.find(word);
    return it != locks_.end() && it->second.held;
}

ProcId
LockTable::holder(Addr word) const
{
    auto it = locks_.find(word);
    assert(it != locks_.end() && it->second.held);
    return it->second.holderProc;
}

std::size_t
LockTable::waiters(Addr word) const
{
    auto it = locks_.find(word);
    return it == locks_.end() ? 0 : it->second.queue.size();
}

std::vector<LockTable::Info>
LockTable::snapshot() const
{
    std::vector<Info> out;
    out.reserve(locks_.size());
    for (const auto &[word, s] : locks_)
        out.push_back({word, s.held, s.holderProc, s.queue});
    std::sort(out.begin(), out.end(),
              [](const Info &a, const Info &b) { return a.word < b.word; });
    return out;
}

void
LockTable::corruptDropHolderForTest(Addr word)
{
    locks_[word].held = false;
}

void
LockTable::registerStats(obs::Registry &reg,
                         const std::string &prefix) const
{
    reg.addCounter(obs::metricName(prefix, "acquires"),
                   [this] { return ctrs_.acquires; });
    reg.addCounter(obs::metricName(prefix, "waits"),
                   [this] { return ctrs_.waits; });
    reg.addCounter(obs::metricName(prefix, "releases"),
                   [this] { return ctrs_.releases; });
    reg.addCounter(obs::metricName(prefix, "handoffs"),
                   [this] { return ctrs_.handoffs; });
}

} // namespace sim
} // namespace dss
