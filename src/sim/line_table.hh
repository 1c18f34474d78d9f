/**
 * @file
 * Flat per-line state table keyed by cache-line address.
 *
 * The replay keeps a little state per line it has ever seen: every cache
 * remembers which lines it ever loaded and which it lost to coherence
 * (miss classification), and the directory keeps a sharing entry per
 * coherent line. Node-based hash containers spent more host time
 * allocating, hashing and freeing those entries than the simulation
 * itself; this table stores them in 64-line pages instead.
 *
 * A page holds a presence mask and 64 values, one per line of an aligned
 * 64-line block, and is allocated on the first touch of any of its lines.
 * All pages live in one vector; a small open-addressing map from page
 * number to page index, plus a memo of the last page used, finds them.
 * Any 64-bit address is accepted (the shared segment, lock words near
 * 2^38 and the per-node private segments all share one table), an empty
 * table owns no heap memory, and clear() costs O(pages touched) while
 * keeping the storage for reuse.
 *
 * Values are default-constructed when their page is allocated and are
 * never removed one by one, so a line's value is V{} until the caller
 * writes it. References returned by get() are invalidated by the next
 * get() of a line in a page not yet allocated (the page vector may grow);
 * callers must not hold one across such a call.
 */

#ifndef DSS_SIM_LINE_TABLE_HH
#define DSS_SIM_LINE_TABLE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/addr.hh"

namespace dss {
namespace sim {

template <typename V>
class LineTable
{
  public:
    /** @param line_bytes Line size; a power of two. */
    explicit LineTable(std::size_t line_bytes)
        : lineShift_(static_cast<unsigned>(std::countr_zero(line_bytes)))
    {
        if (!std::has_single_bit(line_bytes))
            throw std::invalid_argument(
                "line table: line size must be a power of two");
    }

    /** Value of the line holding @p addr, created as V{} if untouched. */
    V &
    get(Addr addr)
    {
        const Addr line = addr >> lineShift_;
        const Addr number = line >> kPageShift;
        Page &pg = number == memoNumber_ ? pages_[memoIndex_]
                                         : pageFor(number);
        const std::uint64_t bit = std::uint64_t{1} << (line & kSlotMask);
        if (!(pg.present & bit)) {
            pg.present |= bit;
            ++lines_;
        }
        return pg.vals[line & kSlotMask];
    }

    /** Value of the line holding @p addr; nullptr if never touched. */
    const V *
    find(Addr addr) const
    {
        const Addr line = addr >> lineShift_;
        const Addr number = line >> kPageShift;
        const std::size_t idx =
            number == memoNumber_ ? memoIndex_ : indexOf(number);
        if (idx == kNoIndex)
            return nullptr;
        const Page &pg = pages_[idx];
        if (!(pg.present & (std::uint64_t{1} << (line & kSlotMask))))
            return nullptr;
        return &pg.vals[line & kSlotMask];
    }

    V *
    find(Addr addr)
    {
        return const_cast<V *>(std::as_const(*this).find(addr));
    }

    /** Number of distinct lines touched since construction or clear(). */
    std::size_t size() const { return lines_; }

    /** Forget every line; keeps the storage for the next fill. */
    void
    clear()
    {
        // Linear probing keeps each page's slot in the occupied run that
        // starts at its home slot. Emptying that run up to the first
        // empty slot therefore removes the page, and a run cut short by
        // an earlier sweep was already emptied past the cut: each slot is
        // emptied once, so this is O(pages), not O(map capacity).
        for (const Page &pg : pages_) {
            for (std::size_t i = homeSlot(pg.number);
                 slots_[i].number != kNoPage; i = (i + 1) & slotMask_)
                slots_[i].number = kNoPage;
        }
        pages_.clear();
        lines_ = 0;
        memoNumber_ = kNoPage;
    }

    /** Every touched line and its value, by ascending line address. */
    std::vector<std::pair<Addr, V>>
    sorted() const
    {
        std::vector<std::pair<Addr, std::size_t>> order;
        order.reserve(pages_.size());
        for (std::size_t i = 0; i < pages_.size(); ++i)
            order.emplace_back(pages_[i].number, i);
        std::sort(order.begin(), order.end());
        std::vector<std::pair<Addr, V>> out;
        out.reserve(lines_);
        for (const auto &[number, idx] : order) {
            const Page &pg = pages_[idx];
            for (std::uint64_t m = pg.present; m != 0; m &= m - 1) {
                const auto slot = static_cast<Addr>(std::countr_zero(m));
                const Addr line = (number << kPageShift) | slot;
                out.emplace_back(line << lineShift_, pg.vals[slot]);
            }
        }
        return out;
    }

  private:
    static constexpr unsigned kPageShift = 6; // 64 lines per page
    static constexpr Addr kSlotMask = (Addr{1} << kPageShift) - 1;
    /** Empty-slot mark: a page number is an address shifted right by at
     * least kPageShift bits, so none reaches it. */
    static constexpr Addr kNoPage = ~Addr{0};
    static constexpr std::size_t kNoIndex = ~std::size_t{0};
    static constexpr std::size_t kMinSlots = 16;

    struct Page
    {
        std::uint64_t present = 0; ///< bit s: line s of the page touched
        Addr number = 0;           ///< line address >> (line shift + 6)
        std::array<V, std::size_t{1} << kPageShift> vals{};
    };

    struct Slot
    {
        Addr number = kNoPage;
        std::size_t index = 0; ///< into pages_
    };

    std::size_t
    homeSlot(Addr number) const
    {
        // Fibonacci hashing: consecutive page numbers spread over the map.
        return static_cast<std::size_t>(
            (number * 0x9E37'79B9'7F4A'7C15ULL) >> slotShift_);
    }

    /**
     * Index of page @p number in pages_, or kNoIndex; the probe behind
     * the memo check that get() and find() make inline.
     */
    std::size_t
    indexOf(Addr number) const
    {
        if (pages_.empty())
            return kNoIndex;
        for (std::size_t i = homeSlot(number);; i = (i + 1) & slotMask_) {
            const Slot &s = slots_[i];
            if (s.number == number) {
                memoNumber_ = number;
                memoIndex_ = s.index;
                return s.index;
            }
            if (s.number == kNoPage)
                return kNoIndex;
        }
    }

    /** The memo missed: probe, and allocate the page if it is new. */
    Page &
    pageFor(Addr number)
    {
        std::size_t idx = indexOf(number);
        if (idx == kNoIndex) {
            if (2 * (pages_.size() + 1) > slots_.size())
                rehash(std::max(kMinSlots, 2 * slots_.size()));
            idx = pages_.size();
            pages_.emplace_back().number = number;
            place(number, idx);
            memoNumber_ = number;
            memoIndex_ = idx;
        }
        return pages_[idx];
    }

    void
    place(Addr number, std::size_t idx)
    {
        std::size_t i = homeSlot(number);
        while (slots_[i].number != kNoPage)
            i = (i + 1) & slotMask_;
        slots_[i] = {number, idx};
    }

    void
    rehash(std::size_t nslots)
    {
        slots_.assign(nslots, Slot{});
        slotMask_ = nslots - 1;
        slotShift_ = 64 - static_cast<unsigned>(std::countr_zero(nslots));
        for (std::size_t i = 0; i < pages_.size(); ++i)
            place(pages_[i].number, i);
    }

    unsigned lineShift_;
    std::vector<Page> pages_;
    std::vector<Slot> slots_; ///< size a power of two, at most half full
    std::size_t slotMask_ = 0;
    unsigned slotShift_ = 64;
    std::size_t lines_ = 0;
    mutable Addr memoNumber_ = kNoPage; ///< last page looked up ...
    mutable std::size_t memoIndex_ = 0; ///< ... and its index in pages_
};

} // namespace sim
} // namespace dss

#endif // DSS_SIM_LINE_TABLE_HH
