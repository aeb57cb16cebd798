// Unit tests for the common foundation: rng, statistics, histogram,
// index sets, tables, CLI parsing, and the type helpers.
#include "src/common/cli.h"
#include "src/common/histogram.h"
#include "src/common/index_set.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/types.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

namespace lnuca {
namespace {

TEST(types, pow2_helpers)
{
    EXPECT_TRUE(is_pow2(1));
    EXPECT_TRUE(is_pow2(1024));
    EXPECT_FALSE(is_pow2(0));
    EXPECT_FALSE(is_pow2(3));
    EXPECT_EQ(log2_exact(1), 0u);
    EXPECT_EQ(log2_exact(4096), 12u);
    EXPECT_EQ(align_up(5, 8), 8u);
    EXPECT_EQ(align_up(16, 8), 16u);
}

TEST(types, size_literals_and_format)
{
    EXPECT_EQ(32_KiB, 32768u);
    EXPECT_EQ(8_MiB, 8388608u);
    EXPECT_EQ(format_size(256_KiB), "256KB");
    EXPECT_EQ(format_size(8_MiB), "8MB");
    EXPECT_EQ(format_size(72_KiB), "72KB");
    EXPECT_EQ(format_size(100), "100B");
}

TEST(rng, deterministic_per_seed)
{
    rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        const auto va = a();
        EXPECT_EQ(va, b());
        (void)c;
    }
    rng d(43);
    EXPECT_NE(rng(42)(), d());
}

TEST(rng, below_respects_bound)
{
    rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
    EXPECT_EQ(r.below(0), 0u);
    EXPECT_EQ(r.below(1), 0u);
}

TEST(rng, uniform_in_unit_interval_and_mean)
{
    rng r(11);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(rng, chance_matches_probability)
{
    rng r(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(double(hits) / n, 0.3, 0.02);
}

TEST(rng, between_is_inclusive)
{
    rng r(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.between(3, 6);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 6u);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(rng, hash64_stateless)
{
    EXPECT_EQ(hash64(1), hash64(1));
    EXPECT_NE(hash64(1), hash64(2));
}

TEST(stats, harmonic_mean_known_values)
{
    const std::vector<double> v{1.0, 2.0};
    EXPECT_NEAR(harmonic_mean(v), 4.0 / 3.0, 1e-12);
    const std::vector<double> w{2.0, 2.0, 2.0};
    EXPECT_NEAR(harmonic_mean(w), 2.0, 1e-12);
}

TEST(stats, harmonic_mean_degenerate)
{
    EXPECT_EQ(harmonic_mean({}), 0.0);
    const std::vector<double> z{0.0, 2.0};
    EXPECT_EQ(harmonic_mean(z), 0.0);
}

TEST(stats, harmonic_below_arithmetic)
{
    const std::vector<double> v{0.5, 1.0, 1.5, 3.0};
    EXPECT_LT(harmonic_mean(v), arithmetic_mean(v));
    EXPECT_LT(geometric_mean(v), arithmetic_mean(v));
    EXPECT_GT(geometric_mean(v), harmonic_mean(v));
}

TEST(stats, mean_accumulator)
{
    mean_accumulator acc;
    EXPECT_EQ(acc.mean(), 0.0);
    acc.add(2.0);
    acc.add(4.0);
    EXPECT_EQ(acc.count(), 2u);
    EXPECT_NEAR(acc.mean(), 3.0, 1e-12);
    acc.reset();
    EXPECT_EQ(acc.count(), 0u);
}

TEST(stats, minmax_accumulator)
{
    minmax_accumulator acc;
    acc.add(5.0);
    acc.add(-1.0);
    acc.add(3.0);
    EXPECT_EQ(acc.min(), -1.0);
    EXPECT_EQ(acc.max(), 5.0);
    EXPECT_NEAR(acc.mean(), 7.0 / 3.0, 1e-12);
}

TEST(stats, safe_ratio)
{
    EXPECT_EQ(safe_ratio(4, 2), 2.0);
    EXPECT_EQ(safe_ratio(4, 0), 0.0);
    EXPECT_EQ(safe_ratio(4, 0, 1.5), 1.5);
}

TEST(stats, counter_set_insertion_order_and_get)
{
    counter_set c;
    c.inc("b");
    c.inc("a", 3);
    c.inc("b", 2);
    EXPECT_EQ(c.get("b"), 3u);
    EXPECT_EQ(c.get("a"), 3u);
    EXPECT_EQ(c.get("missing"), 0u);
    ASSERT_EQ(c.items().size(), 2u);
    EXPECT_EQ(c.items()[0].first, "b");
    c.reset();
    // reset() zeroes values but keeps names (stable counter handles).
    ASSERT_EQ(c.items().size(), 2u);
    EXPECT_EQ(c.get("b"), 0u);
    EXPECT_EQ(c.get("a"), 0u);
    const counter_set::handle hb = c.handle_of("b");
    c.inc(hb, 5);
    EXPECT_EQ(c.get("b"), 5u);
}

TEST(histogram, counts_and_overflow)
{
    histogram h(4);
    h.add(0);
    h.add(3);
    h.add(10); // overflow bucket
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(3), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.total(), 3u);
}

TEST(histogram, weighted_mean)
{
    histogram h(16);
    h.add(2, 3); // three observations of 2
    h.add(8, 1);
    EXPECT_NEAR(h.mean(), (2 * 3 + 8) / 4.0, 1e-12);
}

TEST(histogram, percentile)
{
    histogram h(32);
    for (std::uint64_t v = 0; v < 10; ++v)
        h.add(v);
    EXPECT_EQ(h.percentile(0.5), 4u);
    EXPECT_EQ(h.percentile(1.0), 9u);
}

TEST(histogram, reset)
{
    histogram h(8);
    h.add(1);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.count(1), 0u);
}

TEST(table, renders_header_and_rows)
{
    text_table t("Title");
    t.set_header({"a", "bb"});
    t.add_row({"1", "2"});
    const std::string out = t.render();
    EXPECT_NE(out.find("Title"), std::string::npos);
    EXPECT_NE(out.find("bb"), std::string::npos);
    EXPECT_NE(out.find('1'), std::string::npos);
}

TEST(table, numeric_formatting)
{
    EXPECT_EQ(text_table::num(1.23456, 2), "1.23");
    EXPECT_EQ(text_table::num(2.0, 0), "2");
    EXPECT_EQ(text_table::pct(12.34, 1), "12.3%");
}

TEST(table, ragged_rows_padded)
{
    text_table t;
    t.set_header({"x", "y", "z"});
    t.add_row({"only-one"});
    EXPECT_NO_THROW({ const auto s = t.render(); (void)s; });
}

TEST(cli, parses_separate_and_equals_forms)
{
    const char* argv[] = {"prog", "--alpha", "5", "--beta=7", "--flag"};
    cli_args args(5, argv);
    EXPECT_EQ(args.get_u64("alpha", 0), 5u);
    EXPECT_EQ(args.get_u64("beta", 0), 7u);
    EXPECT_TRUE(args.has_flag("flag"));
    EXPECT_FALSE(args.has_flag("gamma"));
    EXPECT_EQ(args.get_u64("gamma", 9), 9u);
}

TEST(cli, string_and_double)
{
    const char* argv[] = {"prog", "--name", "mcf", "--ratio", "1.5"};
    cli_args args(5, argv);
    EXPECT_EQ(args.get_string("name", "x"), "mcf");
    EXPECT_DOUBLE_EQ(args.get_double("ratio", 0), 1.5);
    EXPECT_EQ(args.get_string("other", "fallback"), "fallback");
}

TEST(index_set, visits_members_in_ascending_order)
{
    index_set set(130);
    for (const std::size_t i : {129u, 3u, 64u, 0u, 63u, 65u})
        set.insert(i);
    set.erase(63);
    std::vector<std::size_t> seen;
    set.for_each([&](std::size_t i) { seen.push_back(i); });
    EXPECT_EQ(seen, (std::vector<std::size_t>{0, 3, 64, 65, 129}));
}

TEST(index_set, mutation_during_a_pass)
{
    // The event-driven D-NUCA relies on these rules: erasing the visited
    // member is safe, an insertion into the word being visited (or an
    // earlier one) waits for the next pass, one into a later word is seen.
    index_set set(128);
    set.insert(5);
    set.insert(10);
    std::vector<std::size_t> seen;
    set.for_each([&](std::size_t i) {
        seen.push_back(i);
        set.erase(i);
        if (i == 5) {
            set.insert(7);  // same word, above: next pass
            set.insert(2);  // same word, below: next pass
            set.insert(70); // later word: this pass
        }
    });
    EXPECT_EQ(seen, (std::vector<std::size_t>{5, 10, 70}));
    seen.clear();
    set.for_each([&](std::size_t i) { seen.push_back(i); });
    EXPECT_EQ(seen, (std::vector<std::size_t>{2, 7}));
}

std::vector<std::size_t> rotated(const index_set& set, std::size_t start,
                                 std::size_t limit = ~std::size_t{0})
{
    std::vector<std::size_t> seen;
    set.for_each_from(start, [&](std::size_t i) {
        seen.push_back(i);
        return seen.size() < limit;
    });
    return seen;
}

TEST(index_set, for_each_from_wraps_in_rotated_order)
{
    index_set set(128);
    for (const std::size_t i : {0u, 5u, 63u, 64u, 100u, 127u})
        set.insert(i);
    // Word boundaries as starts: [start, 128) ascending, then [0, start).
    EXPECT_EQ(rotated(set, 0),
              (std::vector<std::size_t>{0, 5, 63, 64, 100, 127}));
    EXPECT_EQ(rotated(set, 64),
              (std::vector<std::size_t>{64, 100, 127, 0, 5, 63}));
    EXPECT_EQ(rotated(set, 127),
              (std::vector<std::size_t>{127, 0, 5, 63, 64, 100}));
}

TEST(index_set, for_each_from_starts_inside_a_word)
{
    // The start word is split: its members from `start` up come first and
    // those below `start` last, after every other word.
    index_set set(128);
    for (const std::size_t i : {2u, 9u, 10u, 40u, 70u, 120u})
        set.insert(i);
    EXPECT_EQ(rotated(set, 10),
              (std::vector<std::size_t>{10, 40, 70, 120, 2, 9}));
    EXPECT_EQ(rotated(set, 71),
              (std::vector<std::size_t>{120, 2, 9, 10, 40, 70}));
    // Erasing the visited member, as the issue scheduler does, is safe and
    // does not disturb the lower part of the split word.
    std::vector<std::size_t> seen;
    set.for_each_from(9, [&](std::size_t i) {
        seen.push_back(i);
        set.erase(i);
        return true;
    });
    EXPECT_EQ(seen, (std::vector<std::size_t>{9, 10, 40, 70, 120, 2}));
    EXPECT_TRUE(rotated(set, 0).empty());
}

TEST(index_set, for_each_from_stops_when_fn_returns_false)
{
    index_set set(128);
    for (const std::size_t i : {1u, 30u, 65u, 90u})
        set.insert(i);
    EXPECT_EQ(rotated(set, 65, 3), (std::vector<std::size_t>{65, 90, 1}));
    EXPECT_EQ(rotated(set, 31, 1), (std::vector<std::size_t>{65}));
    index_set(0).for_each_from(0, [](std::size_t) {
        ADD_FAILURE() << "a zero-capacity set has no members";
        return true;
    });
}

TEST(index_set, for_each_from_with_a_partial_last_word)
{
    // 100 indices: the second word holds only 36 of them.
    index_set set(100);
    for (const std::size_t i : {3u, 63u, 64u, 99u})
        set.insert(i);
    EXPECT_EQ(rotated(set, 99), (std::vector<std::size_t>{99, 3, 63, 64}));
    EXPECT_EQ(rotated(set, 70), (std::vector<std::size_t>{99, 3, 63, 64}));
    EXPECT_EQ(rotated(set, 50), (std::vector<std::size_t>{63, 64, 99, 3}));
    // Every start visits every member exactly once, in rotated order.
    for (std::size_t start = 0; start < 100; ++start) {
        const auto seen = rotated(set, start);
        ASSERT_EQ(seen.size(), 4u) << start;
        for (std::size_t k = 1; k < seen.size(); ++k)
            EXPECT_LT((seen[k - 1] + 100 - start) % 100,
                      (seen[k] + 100 - start) % 100)
                << start;
    }
}

TEST(index_set, empty_tracks_membership)
{
    index_set set(128);
    EXPECT_TRUE(set.empty());
    set.insert(70);
    EXPECT_FALSE(set.empty());
    set.insert(3);
    set.erase(70);
    EXPECT_FALSE(set.empty());
    set.erase(3);
    EXPECT_TRUE(set.empty());
    // Erasing a non-member leaves the set as it was.
    set.erase(5);
    EXPECT_TRUE(set.empty());
}

TEST(index_set, empty_with_a_partial_last_word_and_zero_capacity)
{
    // 27 indices, the L-NUCA LN4 fabric's tile count: one partial word.
    index_set set(27);
    EXPECT_TRUE(set.empty());
    set.insert(26);
    EXPECT_FALSE(set.empty());
    set.erase(26);
    EXPECT_TRUE(set.empty());
    EXPECT_TRUE(index_set(0).empty());
    EXPECT_TRUE(index_set().empty());
}

TEST(index_set, clear_removes_every_member)
{
    index_set set(130);
    for (const std::size_t i : {0u, 63u, 64u, 129u})
        set.insert(i);
    set.clear();
    EXPECT_TRUE(set.empty());
    set.for_each([](std::size_t i) { ADD_FAILURE() << "member " << i; });
    // The set stays usable after a clear.
    set.insert(65);
    std::vector<std::size_t> seen;
    set.for_each([&](std::size_t i) { seen.push_back(i); });
    EXPECT_EQ(seen, (std::vector<std::size_t>{65}));
    index_set none(0);
    none.clear();
    EXPECT_TRUE(none.empty());
}

} // namespace
} // namespace lnuca
