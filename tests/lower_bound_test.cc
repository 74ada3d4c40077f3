#include "detect/lower_bound.h"

#include <gtest/gtest.h>

namespace wcp::detect {
namespace {

TEST(AdversaryGame, FirstAnswerDeclaresExactlyOneComparablePair) {
  AdversaryGame game(3, 4);
  const auto [smaller, larger] = game.compare_heads();
  EXPECT_GE(smaller, 0);
  EXPECT_GE(larger, 0);
  EXPECT_NE(smaller, larger);
}

TEST(AdversaryGame, AnswerStableWithoutDeletion) {
  AdversaryGame game(3, 4);
  const auto a = game.compare_heads();
  const auto b = game.compare_heads();
  EXPECT_EQ(a, b);
  EXPECT_EQ(game.steps(), 2);
}

TEST(AdversaryGame, OnlyDeclaredSmallerHeadIsDeletable) {
  AdversaryGame game(3, 4);
  const auto [smaller, larger] = game.compare_heads();
  // Deleting the declared-larger head is unjustified.
  EXPECT_THROW(game.delete_heads({larger}), std::invalid_argument);
  // Deleting any third head is unjustified too.
  for (int q = 0; q < 3; ++q)
    if (q != smaller && q != larger) {
      EXPECT_THROW(game.delete_heads({q}), std::invalid_argument);
    }
  game.delete_heads({smaller});
  EXPECT_EQ(game.deletions(), 1);
}

TEST(AdversaryGame, ForcesOneDeletionPerStepUntilAQueueEmpties) {
  const auto out = play_greedy(4, 5);
  // Theorem 5.1: at least nm - n sequential deletions.
  EXPECT_GE(out.deletions, out.bound);
  // Alternating compare/delete: steps >= 2 * deletions.
  EXPECT_GE(out.steps, 2 * out.deletions);
}

class LowerBoundSweep
    : public ::testing::TestWithParam<std::pair<int, std::int64_t>> {};

TEST_P(LowerBoundSweep, DeletionsMeetTheBound) {
  const auto [n, m] = GetParam();
  const auto out = play_greedy(n, m, /*verify=*/n * m <= 64);
  EXPECT_GE(out.deletions, n * m - n);
  // And the adversary never wastes more than one whole chain:
  EXPECT_LE(out.deletions, n * m);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, LowerBoundSweep,
    ::testing::Values(std::pair{2, std::int64_t{3}},
                      std::pair{2, std::int64_t{10}},
                      std::pair{3, std::int64_t{8}},
                      std::pair{4, std::int64_t{6}},
                      std::pair{5, std::int64_t{5}},
                      std::pair{8, std::int64_t{4}}));

TEST(AdversaryGame, HistoryIsRealizableAsAPartialOrder) {
  // Invariant I7: the adversary's answers are consistent with an actual
  // poset on n chains — no declared-concurrent pair is secretly ordered.
  for (const auto& [n, m] :
       {std::pair{2, std::int64_t{4}}, std::pair{3, std::int64_t{4}},
        std::pair{4, std::int64_t{3}}}) {
    AdversaryGame game(n, m);
    while (!game.some_queue_empty()) {
      const auto [smaller, larger] = game.compare_heads();
      (void)larger;
      if (smaller < 0) break;
      game.delete_heads({smaller});
    }
    EXPECT_TRUE(game.verify_realizable()) << "n=" << n << " m=" << m;
  }
}

TEST(AdversaryGame, EmptyDeletionIsANoOpStep) {
  AdversaryGame game(2, 2);
  (void)game.compare_heads();  // a step whose answer is not acted on
  game.delete_heads({});
  EXPECT_EQ(game.deletions(), 0);
  EXPECT_EQ(game.steps(), 2);
}

TEST(AdversaryGame, RejectsDegenerateGames) {
  EXPECT_THROW(AdversaryGame(1, 5), std::invalid_argument);
  EXPECT_THROW(AdversaryGame(2, 0), std::invalid_argument);
}

TEST(AdversaryGame, AnswersNoneOnceAQueueIsEmpty) {
  AdversaryGame game(2, 1);
  const auto [smaller, larger] = game.compare_heads();
  (void)larger;
  game.delete_heads({smaller});
  EXPECT_TRUE(game.some_queue_empty());
  EXPECT_EQ(game.compare_heads(), (std::pair{-1, -1}));
}

TEST(AdversaryGame, RemainingCountsTrackDeletions) {
  AdversaryGame game(2, 5);
  const auto [smaller, larger] = game.compare_heads();
  (void)larger;
  EXPECT_EQ(game.remaining(smaller), 5);
  game.delete_heads({smaller});
  EXPECT_EQ(game.remaining(smaller), 4);
}

}  // namespace
}  // namespace wcp::detect
