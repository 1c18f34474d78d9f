/**
 * @file
 * Dynamic metalock state for the Machine.
 *
 * Postgres95's metalocks (LockMgrLock, BufMgrLock, ...) are test&test&set
 * spinlocks on shared words. Traces record only acquire/release markers;
 * whether an acquire spins depends on the simulated interleaving, so the
 * Machine resolves contention at simulation time using this table. Waiting
 * time is charged to MSync; the lock-word loads/stores themselves go
 * through the caches and produce the LockSLock coherence misses of Fig 7.
 */

#ifndef DSS_SIM_SPINLOCK_MODEL_HH
#define DSS_SIM_SPINLOCK_MODEL_HH

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/addr.hh"

namespace dss {
namespace obs {
class Registry;
} // namespace obs

namespace sim {

class LockTable
{
  public:
    /** Try to take the lock at @p word for @p proc. True on success. */
    bool tryAcquire(Addr word, ProcId proc);

    /** Queue @p proc as a waiter on @p word (lock must be held). */
    void addWaiter(Addr word, ProcId proc);

    /**
     * Release the lock at @p word, held by @p proc.
     * @return the next waiter granted the lock, or kNoWaiter.
     * @throws SimError (dump: word, holder, releaser) if @p proc does not
     *         hold the lock; the trace that asks for it is malformed.
     */
    static constexpr ProcId kNoWaiter = ~0u;
    ProcId release(Addr word, ProcId proc);

    /** True if @p word is currently held. */
    bool isHeld(Addr word) const;

    /** Holder of @p word (undefined if not held). */
    ProcId holder(Addr word) const;

    /** Number of queued waiters on @p word. */
    std::size_t waiters(Addr word) const;

    /** One lock's full state, for dumps and the invariant checker. */
    struct Info
    {
        Addr word = 0;
        bool held = false;
        ProcId holder = 0;
        std::deque<ProcId> waiters;
    };

    /** Snapshot of every tracked lock, sorted by word (deterministic). */
    std::vector<Info> snapshot() const;

    /** Test hook: mark @p word free without draining its waiter queue —
     * a lost grant the LockState invariant must flag. */
    void corruptDropHolderForTest(Addr word);

    /** Drop all lock state (between runs). */
    void reset() { locks_.clear(); }

    /** Lifetime contention counters (observability); survive reset(). */
    struct Counters
    {
        std::uint64_t acquires = 0;  ///< uncontended tryAcquire successes
        std::uint64_t waits = 0;     ///< addWaiter calls (contended path)
        std::uint64_t releases = 0;
        std::uint64_t handoffs = 0;  ///< releases granted to a waiter
    };

    const Counters &counters() const { return ctrs_; }

    /** Register the counters under "<prefix>.<leaf>" names. */
    void registerStats(obs::Registry &reg, const std::string &prefix) const;

  private:
    struct State
    {
        bool held = false;
        ProcId holderProc = 0;
        std::deque<ProcId> queue;
    };

    std::unordered_map<Addr, State> locks_;
    Counters ctrs_;
};

} // namespace sim
} // namespace dss

#endif // DSS_SIM_SPINLOCK_MODEL_HH
