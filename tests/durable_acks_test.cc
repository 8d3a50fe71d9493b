// ParkedAcks: the ack queue RedoLog, WalManager and QuorumLog park their
// durability acks on (src/common/durable_acks.h). Covers ordering under
// in-order and out-of-order parks, the inclusive watermark, the Stop/crash
// partition, and that a full drain leaves nothing behind.
#include "common/durable_acks.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace tdp {
namespace {

// Records the mark of every ack as it fires, so a test can check both which
// acks a take returned and in what order.
struct FireLog {
  std::vector<uint64_t> fired;
  AckFn Make(uint64_t mark) {
    return [this, mark](const Status&) { fired.push_back(mark); };
  }
};

void FireAll(std::vector<AckFn> acks) {
  for (AckFn& ack : acks) ack(Status::OK());
}

TEST(ParkedAcksTest, InOrderParksTakeTheCoveredPrefix) {
  ParkedAcks parked;
  FireLog log;
  for (uint64_t m = 1; m <= 5; ++m) parked.Park(m, log.Make(m));
  EXPECT_EQ(parked.last_mark(), 5u);

  FireAll(parked.TakeUpTo(3));
  EXPECT_EQ(log.fired, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_FALSE(parked.empty());
  EXPECT_EQ(parked.last_mark(), 5u);
}

TEST(ParkedAcksTest, MarkEqualToWatermarkIsCovered) {
  ParkedAcks parked;
  FireLog log;
  parked.Park(10, log.Make(10));
  parked.Park(11, log.Make(11));
  EXPECT_TRUE(parked.TakeUpTo(9).empty());
  FireAll(parked.TakeUpTo(10));
  EXPECT_EQ(log.fired, (std::vector<uint64_t>{10}));
}

TEST(ParkedAcksTest, OutOfOrderParksAreTakenInMarkOrder) {
  ParkedAcks parked;
  FireLog log;
  for (uint64_t m : {4, 2, 7, 1, 5, 3, 6}) parked.Park(m, log.Make(m));
  EXPECT_EQ(parked.last_mark(), 7u);

  FireAll(parked.TakeUpTo(4));
  EXPECT_EQ(log.fired, (std::vector<uint64_t>{1, 2, 3, 4}));
  FireAll(parked.TakeUpTo(7));
  EXPECT_EQ(log.fired, (std::vector<uint64_t>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(ParkedAcksTest, EqualMarksKeepParkOrder) {
  // Marks need not be unique: acks that share a mark all fire, first-parked
  // first.
  ParkedAcks parked;
  std::vector<int> order;
  parked.Park(8, [&](const Status&) { order.push_back(1); });
  parked.Park(8, [&](const Status&) { order.push_back(2); });
  parked.Park(3, [&](const Status&) { order.push_back(0); });
  FireAll(parked.TakeUpTo(8));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ParkedAcksTest, TakeAllAfterPartialTakeUpTo) {
  ParkedAcks parked;
  FireLog log;
  for (uint64_t m = 1; m <= 6; ++m) parked.Park(m, log.Make(m));
  FireAll(parked.TakeUpTo(2));
  FireAll(parked.TakeAll());
  EXPECT_EQ(log.fired, (std::vector<uint64_t>{1, 2, 3, 4, 5, 6}));
  EXPECT_TRUE(parked.empty());
}

TEST(ParkedAcksTest, PartitionSplitsCoveredFromLost) {
  ParkedAcks parked;
  std::vector<std::pair<uint64_t, bool>> fired;
  for (uint64_t m = 1; m <= 4; ++m) {
    parked.Park(m, [&fired, m](const Status& s) {
      fired.emplace_back(m, s.ok());
    });
  }
  // Without lose_rest the uncovered tail stays parked.
  TakenAcks kept = parked.Partition(1, /*lose_rest=*/false);
  EXPECT_EQ(kept.ok.size(), 1u);
  EXPECT_TRUE(kept.lost.empty());
  EXPECT_EQ(parked.last_mark(), 4u);
  kept.Fire(Status::Aborted("unused"));

  TakenAcks taken = parked.Partition(2, /*lose_rest=*/true);
  EXPECT_TRUE(parked.empty());
  taken.Fire(Status::Aborted("lost"));
  const std::vector<std::pair<uint64_t, bool>> want = {
      {1, true}, {2, true}, {3, false}, {4, false}};
  EXPECT_EQ(fired, want);
}

TEST(ParkedAcksTest, FullDrainLeavesAnEmptyQueue) {
  ParkedAcks parked;
  FireLog log;
  for (uint64_t m = 1; m <= 3; ++m) parked.Park(m, log.Make(m));
  FireAll(parked.TakeUpTo(3));
  EXPECT_TRUE(parked.empty());
  EXPECT_TRUE(parked.TakeUpTo(UINT64_MAX).empty());
  EXPECT_TRUE(parked.TakeAll().empty());
  // The queue is reusable after a drain.
  parked.Park(4, log.Make(4));
  FireAll(parked.TakeAll());
  EXPECT_EQ(log.fired, (std::vector<uint64_t>{1, 2, 3, 4}));
}

}  // namespace
}  // namespace tdp
