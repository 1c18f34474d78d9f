/**
 * @file
 * Word-granular sharing tracker: true- vs. false-sharing classification
 * of coherence misses (Torrellas/Lam/Hennessy style).
 *
 * For every cache line the tracker keeps, per processor, a bitmask of the
 * 8-byte words that remote writers have dirtied since that processor last
 * held a valid copy ("stale words"). When a coherence miss occurs, the
 * missing access is *true sharing* if it touches at least one stale word
 * (the processor actually consumes data a remote writer produced) and
 * *false sharing* otherwise (it only shares residence in the line with the
 * remotely-written words).
 *
 * Determinism: the masks are mutated exclusively by the Machine's
 * directory transitions (applyStoreDir / applyReadFillDir), in replay
 * order, so classification is a pure function of the replay.
 *
 * Cost: one unordered_map entry (nprocs x 8 bytes) per line that has ever
 * been written while shared. The Machine instantiates the tracker only
 * while a memory profile is attached (Machine::setMemProfile); without
 * one the directory transitions pay a single null-pointer test.
 */

#ifndef DSS_SIM_SHARING_HH
#define DSS_SIM_SHARING_HH

#include <array>
#include <cstdint>
#include <unordered_map>

#include "sim/addr.hh"

namespace dss {
namespace sim {

/** Bitmask of 8-byte words inside one cache line (supports <= 512 B). */
using WordMask = std::uint64_t;

/** Mask of the words an access [addr, addr+size) touches in its line. */
inline WordMask
wordMaskOf(Addr addr, unsigned size, Addr line_addr, std::size_t line_bytes)
{
    const std::size_t first = (addr - line_addr) / 8;
    Addr end = addr + (size ? size : 1) - 1;
    const Addr line_end = line_addr + line_bytes - 1;
    if (end > line_end)
        end = line_end; // accesses never straddle lines in practice
    const std::size_t last = (end - line_addr) / 8;
    WordMask m = 0;
    for (std::size_t w = first; w <= last; ++w)
        m |= WordMask{1} << w;
    return m;
}

class SharingTracker
{
  public:
    static constexpr std::size_t kMaxProcs = 64;

    explicit SharingTracker(unsigned nprocs) : nprocs_(nprocs) {}

    /**
     * A store by @p p dirtied @p wmask words of @p line: those words go
     * stale for every other processor; p itself now holds fresh data.
     */
    void
    recordStore(ProcId p, Addr line, WordMask wmask)
    {
        auto &masks = lines_[line];
        for (unsigned q = 0; q < nprocs_; ++q)
            masks[q] |= wmask;
        masks[p] = 0;
    }

    /**
     * Processor @p p (re)obtained a valid copy of @p line (read fill,
     * prefetch fill, or write allocate): nothing is stale for it anymore.
     */
    void
    recordFill(ProcId p, Addr line)
    {
        auto it = lines_.find(line);
        if (it != lines_.end())
            it->second[p] = 0;
    }

    /**
     * Would a coherence miss by @p p on words @p wmask of @p line be true
     * sharing? Read-only.
     */
    bool
    isTrueSharing(ProcId p, Addr line, WordMask wmask) const
    {
        auto it = lines_.find(line);
        if (it == lines_.end())
            return false;
        return (it->second[p] & wmask) != 0;
    }

    void
    reset()
    {
        lines_.clear();
    }

    std::size_t trackedLines() const { return lines_.size(); }

  private:
    unsigned nprocs_;
    std::unordered_map<Addr, std::array<WordMask, kMaxProcs>> lines_;
};

} // namespace sim
} // namespace dss

#endif // DSS_SIM_SHARING_HH
