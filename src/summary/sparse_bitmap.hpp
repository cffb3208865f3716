// Multi-level sparse trie bitmap over concept-code space — the exact
// directory-summary substrate (ROADMAP "exact interval-bitmap directory
// summaries", cbtSparseBitmap-style). Five fixed-fanout-64 levels cover a
// 2^30-bit universe; level 0 holds the payload words and every upper level
// holds one guard bit per nonzero word below it, so set/clear propagate at
// most `kLevels` steps and diffs walk words, never bits. Each
// level is a sorted flat vector of {word_index, word} slots: populations
// here are concept codes held by one directory (hundreds to a few
// thousand), where binary-searched compact vectors beat pointer tries on
// locality and serialize for free (leaves only; uppers are derived).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sariadne::summary {

class SparseBitmap {
public:
    /// One nonzero 64-bit word of a level, keyed by its word index.
    struct Slot {
        std::uint32_t index = 0;
        std::uint64_t word = 0;

        friend bool operator==(const Slot&, const Slot&) noexcept = default;
    };

    static constexpr int kFanoutBits = 6;  // 64-ary trie
    static constexpr int kLevels = 5;
    static constexpr std::uint32_t kWordMask = (1u << kFanoutBits) - 1;
    /// Addressable bit universe: 64^5 = 2^30 codes, comfortably above the
    /// encoder's kMaxTotalOccurrences bound on per-ontology concept codes.
    static constexpr std::uint64_t kCapacity = 1ull << (kFanoutBits * kLevels);
    static constexpr std::uint32_t kMaxWordIndex =
        static_cast<std::uint32_t>(kCapacity >> kFanoutBits);

    /// Sets `bit`; returns true iff the bitmap changed. Guard propagation
    /// stops at the first level whose guard was already set.
    bool set(std::uint32_t bit) {
        assert(std::uint64_t{bit} < kCapacity);
        std::uint32_t cur = bit;
        bool changed = false;
        for (int level = 0; level < kLevels; ++level) {
            auto& slots = levels_[level];
            const std::uint32_t w = cur >> kFanoutBits;
            const std::uint64_t mask = 1ull << (cur & kWordMask);
            const auto it = slot_lower_bound(slots, w);
            if (it != slots.end() && it->index == w) {
                if ((it->word & mask) != 0) {
                    // Already present here ⇒ every upper guard is set too.
                    return changed;
                }
                it->word |= mask;
            } else {
                slots.insert(it, Slot{w, mask});
            }
            if (level == 0) changed = true;
            cur = w;
        }
        return changed;
    }

    /// Clears `bit`; returns true iff the bitmap changed. Guard bits are
    /// cleared upward only while the vacated word became empty.
    bool clear(std::uint32_t bit) {
        assert(std::uint64_t{bit} < kCapacity);
        std::uint32_t cur = bit;
        for (int level = 0; level < kLevels; ++level) {
            auto& slots = levels_[level];
            const std::uint32_t w = cur >> kFanoutBits;
            const std::uint64_t mask = 1ull << (cur & kWordMask);
            const auto it = slot_lower_bound(slots, w);
            if (it == slots.end() || it->index != w || (it->word & mask) == 0) {
                assert(level == 0 && "upper guard missing for nonzero word");
                return false;  // bit was not set
            }
            it->word &= ~mask;
            if (it->word != 0) return true;
            slots.erase(it);
            cur = w;
        }
        return true;
    }

    bool test(std::uint32_t bit) const noexcept {
        const std::uint32_t w = bit >> kFanoutBits;
        const auto it = slot_lower_bound(levels_[0], w);
        return it != levels_[0].end() && it->index == w &&
               (it->word & (1ull << (bit & kWordMask))) != 0;
    }

    bool empty() const noexcept { return levels_[0].empty(); }

    std::size_t popcount() const noexcept {
        std::size_t n = 0;
        for (const Slot& s : levels_[0]) n += std::popcount(s.word);
        return n;
    }

    /// Replaces the payload word at `word_index` wholesale (delta apply):
    /// `word == 0` erases the slot. Returns true iff the bitmap changed.
    bool replace_word(std::uint32_t word_index, std::uint64_t word) {
        assert(word_index < kMaxWordIndex);
        auto& leaves = levels_[0];
        const auto it = slot_lower_bound(leaves, word_index);
        const bool present = it != leaves.end() && it->index == word_index;
        if (word == 0) {
            if (!present) return false;
            leaves.erase(it);
            clear_guards_above(word_index);
            return true;
        }
        if (present) {
            if (it->word == word) return false;
            it->word = word;
            return true;  // word stays nonzero: guards unchanged
        }
        leaves.insert(it, Slot{word_index, word});
        set_guards_above(word_index);
        return true;
    }

    /// True iff any of the given (sorted or not) codes is set.
    bool intersects_codes(const std::vector<std::uint32_t>& codes) const noexcept {
        for (const std::uint32_t code : codes) {
            if (test(code)) return true;
        }
        return false;
    }

    void clear_all() noexcept {
        for (auto& slots : levels_) slots.clear();
    }

    /// Payload words in ascending index order — the serialized form and the
    /// delta-diff input.
    const std::vector<Slot>& leaves() const noexcept { return levels_[0]; }

    /// Word-at-a-time iteration over set bits in ascending order.
    /// `fn(std::uint32_t bit)`.
    template <typename Fn>
    void for_each_bit(Fn&& fn) const {
        for (const Slot& s : levels_[0]) {
            std::uint64_t word = s.word;
            while (word != 0) {
                const int b = std::countr_zero(word);
                fn((s.index << kFanoutBits) | static_cast<std::uint32_t>(b));
                word &= word - 1;
            }
        }
    }

    /// Rebuilds a bitmap from payload words. Returns false (leaving `out`
    /// empty) when the leaves violate the invariants: strictly increasing
    /// indices, nonzero words, indices below kMaxWordIndex.
    static bool from_leaves(std::vector<Slot> leaves, SparseBitmap& out) {
        out.clear_all();
        for (std::size_t i = 0; i < leaves.size(); ++i) {
            if (leaves[i].word == 0 || leaves[i].index >= kMaxWordIndex) {
                return false;
            }
            if (i > 0 && leaves[i - 1].index >= leaves[i].index) return false;
        }
        out.levels_[0] = std::move(leaves);
        out.rebuild_upper_levels();
        return true;
    }

    /// Invariant checker for tests: sorted nonzero slots at every level and
    /// uppers exactly equal to the guards recomputed from the leaves.
    bool validate() const {
        for (const auto& slots : levels_) {
            for (std::size_t i = 0; i < slots.size(); ++i) {
                if (slots[i].word == 0) return false;
                if (i > 0 && slots[i - 1].index >= slots[i].index) return false;
            }
        }
        SparseBitmap rebuilt;
        if (!from_leaves(levels_[0], rebuilt)) return false;
        for (int level = 1; level < kLevels; ++level) {
            if (levels_[level] != rebuilt.levels_[level]) return false;
        }
        return true;
    }

    friend bool operator==(const SparseBitmap& a, const SparseBitmap& b) noexcept {
        return a.levels_[0] == b.levels_[0];  // uppers are derived
    }

private:
    static std::vector<Slot>::iterator slot_lower_bound(
        std::vector<Slot>& slots, std::uint32_t index) noexcept {
        return std::lower_bound(
            slots.begin(), slots.end(), index,
            [](const Slot& s, std::uint32_t key) { return s.index < key; });
    }
    static std::vector<Slot>::const_iterator slot_lower_bound(
        const std::vector<Slot>& slots, std::uint32_t index) noexcept {
        return std::lower_bound(
            slots.begin(), slots.end(), index,
            [](const Slot& s, std::uint32_t key) { return s.index < key; });
    }

    void set_guards_above(std::uint32_t leaf_word_index) {
        std::uint32_t cur = leaf_word_index;
        for (int level = 1; level < kLevels; ++level) {
            auto& slots = levels_[level];
            const std::uint32_t w = cur >> kFanoutBits;
            const std::uint64_t mask = 1ull << (cur & kWordMask);
            const auto it = slot_lower_bound(slots, w);
            if (it != slots.end() && it->index == w) {
                if ((it->word & mask) != 0) return;
                it->word |= mask;
            } else {
                slots.insert(it, Slot{w, mask});
            }
            cur = w;
        }
    }

    void clear_guards_above(std::uint32_t leaf_word_index) {
        std::uint32_t cur = leaf_word_index;
        for (int level = 1; level < kLevels; ++level) {
            auto& slots = levels_[level];
            const std::uint32_t w = cur >> kFanoutBits;
            const std::uint64_t mask = 1ull << (cur & kWordMask);
            const auto it = slot_lower_bound(slots, w);
            assert(it != slots.end() && it->index == w && (it->word & mask) != 0);
            it->word &= ~mask;
            if (it->word != 0) return;
            slots.erase(it);
            cur = w;
        }
    }

    void rebuild_upper_levels() {
        for (int level = 1; level < kLevels; ++level) {
            auto& above = levels_[level];
            above.clear();
            for (const Slot& s : levels_[level - 1]) {
                const std::uint32_t w = s.index >> kFanoutBits;
                const std::uint64_t mask = 1ull << (s.index & kWordMask);
                if (!above.empty() && above.back().index == w) {
                    above.back().word |= mask;
                } else {
                    above.push_back(Slot{w, mask});
                }
            }
        }
    }

    /// levels_[0] holds payload words; levels_[l>0] hold guard bits over
    /// the nonzero words of level l-1.
    std::array<std::vector<Slot>, kLevels> levels_;
};

}  // namespace sariadne::summary
