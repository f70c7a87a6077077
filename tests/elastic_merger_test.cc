// Unit tests of the ElasticMerger (Algorithm 1) with hand-fed stream
// queues, including a verbatim reproduction of the paper's Figure 2.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "elastic/elastic_merger.h"

namespace epx {
namespace {

using elastic::ElasticMerger;
using paxos::Command;
using paxos::CommandKind;
using paxos::GroupId;
using paxos::Proposal;
using paxos::SlotIndex;
using paxos::StreamId;

Command app_cmd(uint64_t id) {
  Command c;
  c.kind = CommandKind::kApp;
  c.id = id;
  c.payload_size = 8;
  return c;
}

Proposal value_at(SlotIndex slot, Command cmd) {
  Proposal p;
  p.first_slot = slot;
  p.commands.push_back(std::move(cmd));
  return p;
}

Proposal skip_at(SlotIndex slot, uint64_t count) {
  Proposal p;
  p.first_slot = slot;
  p.skip_slots = count;
  return p;
}

/// Test merger wrapper capturing hook activity.
struct MergerHarness {
  std::vector<uint64_t> delivered;
  std::vector<StreamId> delivered_from;
  std::vector<StreamId> learners_started;
  std::vector<StreamId> learners_stopped;
  std::vector<Command> controls;
  ElasticMerger merger;

  explicit MergerHarness(GroupId group)
      : merger(group,
               ElasticMerger::Hooks{
                   [this](StreamId s) { learners_started.push_back(s); },
                   [this](StreamId s) { learners_stopped.push_back(s); },
                   [this](const Command& c, StreamId s) {
                     delivered.push_back(c.id);
                     delivered_from.push_back(s);
                   },
                   [this](const Command& c) { controls.push_back(c); },
               }) {}
};

TEST(ElasticMergerTest, RoundRobinInterleavesTwoStreams) {
  MergerHarness h(1);
  h.merger.bootstrap({1, 2});
  // Stream 1 slots 0..2 = ids 10,11,12; stream 2 slots 0..2 = ids 20,21,22.
  for (SlotIndex i = 0; i < 3; ++i) {
    h.merger.queue(1).push_proposal(value_at(i, app_cmd(10 + i)));
    h.merger.queue(2).push_proposal(value_at(i, app_cmd(20 + i)));
  }
  h.merger.pump();
  EXPECT_EQ(h.delivered, (std::vector<uint64_t>{10, 20, 11, 21, 12, 22}));
}

TEST(ElasticMergerTest, SkipSlotsAreConsumedSilently) {
  MergerHarness h(1);
  h.merger.bootstrap({1, 2});
  h.merger.queue(1).push_proposal(value_at(0, app_cmd(10)));
  h.merger.queue(1).push_proposal(value_at(1, app_cmd(11)));
  h.merger.queue(2).push_proposal(skip_at(0, 2));  // idle stream padded
  h.merger.pump();
  EXPECT_EQ(h.delivered, (std::vector<uint64_t>{10, 11}));
}

TEST(ElasticMergerTest, StallsWithoutSkipPadding) {
  MergerHarness h(1);
  h.merger.bootstrap({1, 2});
  h.merger.queue(1).push_proposal(value_at(0, app_cmd(10)));
  h.merger.queue(1).push_proposal(value_at(1, app_cmd(11)));
  h.merger.pump();
  // (0,S1) may be delivered — it precedes (0,S2) lexicographically — but
  // (1,S1) must wait for stream 2's slot 0 (value or skip).
  EXPECT_EQ(h.delivered, (std::vector<uint64_t>{10}));
  h.merger.queue(2).push_proposal(skip_at(0, 1));
  h.merger.pump();
  EXPECT_EQ(h.delivered, (std::vector<uint64_t>{10, 11}));
}

TEST(ElasticMergerTest, PaperFigure2ScenarioReplicaR1) {
  // Streams exactly as in Fig. 2 (slots 9..14). Group 1 starts on S1,
  // group 2 on S2; sub(G1,S2) sits at slot 10 of both streams,
  // sub(G2,S1) at slot 13 of S1 and slot 12 of S2.
  const uint64_t kSubG1 = 100, kSubG2 = 200;
  auto feed = [&](ElasticMerger& m) {
    m.queue(1).push_proposal(value_at(9, app_cmd(1)));    // m1
    m.queue(1).push_proposal(value_at(10, paxos::make_subscribe(kSubG1, 1, 2)));
    m.queue(1).push_proposal(value_at(11, app_cmd(3)));   // m3
    m.queue(1).push_proposal(value_at(12, app_cmd(5)));   // m5
    m.queue(1).push_proposal(value_at(13, paxos::make_subscribe(kSubG2, 2, 1)));
    m.queue(1).push_proposal(value_at(14, app_cmd(7)));   // m7
    m.queue(2).push_proposal(value_at(9, app_cmd(2)));    // m2
    m.queue(2).push_proposal(value_at(10, paxos::make_subscribe(kSubG1, 1, 2)));
    m.queue(2).push_proposal(value_at(11, app_cmd(4)));   // m4
    m.queue(2).push_proposal(value_at(12, paxos::make_subscribe(kSubG2, 2, 1)));
    m.queue(2).push_proposal(value_at(13, app_cmd(6)));   // m6
    m.queue(2).push_proposal(value_at(14, app_cmd(8)));   // m8
  };

  MergerHarness r1(1);
  r1.merger.bootstrap({1});
  feed(r1.merger);
  r1.merger.pump();
  // Fig. 2: R1 delivers m1, (sub), m3, m4, m5, m6, m7, m8 — m2 discarded.
  EXPECT_EQ(r1.delivered, (std::vector<uint64_t>{1, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(r1.merger.merge_point(), 11u);  // max(10,10)+1

  MergerHarness r2(2);
  r2.merger.bootstrap({2});
  feed(r2.merger);
  r2.merger.pump();
  // Fig. 2: R2 delivers m2, m4, m6, m7, m8 — m1/m3/m5 discarded.
  EXPECT_EQ(r2.delivered, (std::vector<uint64_t>{2, 4, 6, 7, 8}));
  EXPECT_EQ(r2.merger.merge_point(), 14u);  // max(12,13)+1

  // Acyclic delivery: common commands in the same relative order.
  // R1: ...4 < 6 < 7 < 8; R2: 4 < 6 < 7 < 8.
}

TEST(ElasticMergerTest, SubscriptionDiscardsPreMergeValues) {
  MergerHarness h(1);
  h.merger.bootstrap({1});
  // S2 backlog 0..4 exists before the group subscribes at S1 slot 3.
  for (SlotIndex i = 0; i < 5; ++i) {
    h.merger.queue(2).push_proposal(value_at(i, app_cmd(20 + i)));
  }
  h.merger.queue(2).push_proposal(value_at(5, paxos::make_subscribe(77, 1, 2)));
  for (SlotIndex i = 0; i < 3; ++i) {
    h.merger.queue(1).push_proposal(value_at(i, app_cmd(10 + i)));
  }
  h.merger.queue(1).push_proposal(value_at(3, paxos::make_subscribe(77, 1, 2)));
  h.merger.pump();
  // Nothing from S2 delivered yet: merge point = max(4, 6) = 6 and S2
  // has no slots >= 6 yet; S1 must continue to slot 6 too.
  EXPECT_EQ(h.merger.phase(), ElasticMerger::Phase::kAligning);
  EXPECT_EQ(h.merger.merge_point(), 6u);
  EXPECT_EQ(h.delivered, (std::vector<uint64_t>{10, 11, 12}));
  EXPECT_EQ(h.merger.discarded(), 5u);

  // S1 pads to the merge point; S2 produces post-merge traffic.
  h.merger.queue(1).push_proposal(skip_at(4, 2));
  h.merger.queue(2).push_proposal(value_at(6, app_cmd(26)));
  h.merger.queue(1).push_proposal(value_at(6, app_cmd(16)));
  h.merger.pump();
  EXPECT_EQ(h.merger.phase(), ElasticMerger::Phase::kNormal);
  EXPECT_TRUE(h.merger.subscribed_to(2));
  EXPECT_EQ(h.delivered, (std::vector<uint64_t>{10, 11, 12, 16, 26}));
}

TEST(ElasticMergerTest, UnsubscribeTakesEffectImmediately) {
  MergerHarness h(1);
  h.merger.bootstrap({1, 2});
  h.merger.queue(1).push_proposal(value_at(0, app_cmd(10)));
  h.merger.queue(2).push_proposal(value_at(0, app_cmd(20)));
  h.merger.queue(1).push_proposal(value_at(1, paxos::make_unsubscribe(99, 1, 2)));
  h.merger.queue(1).push_proposal(value_at(2, app_cmd(11)));
  h.merger.queue(1).push_proposal(value_at(3, app_cmd(12)));
  h.merger.pump();
  // After the unsubscribe at S1 slot 1, S2 is no longer consulted.
  EXPECT_EQ(h.delivered, (std::vector<uint64_t>{10, 20, 11, 12}));
  EXPECT_EQ(h.merger.subscriptions(), (std::vector<StreamId>{1}));
  EXPECT_EQ(h.learners_stopped, (std::vector<StreamId>{2}));
}

TEST(ElasticMergerTest, UnsubscribeOfCurrentStreamKeepsOrder) {
  MergerHarness h(1);
  h.merger.bootstrap({1, 2, 3});
  // Round 0: deliver (0,S1), then unsub S2 arrives in S2 itself at (0,S2).
  h.merger.queue(1).push_proposal(value_at(0, app_cmd(10)));
  h.merger.queue(2).push_proposal(value_at(0, paxos::make_unsubscribe(99, 1, 2)));
  h.merger.queue(3).push_proposal(value_at(0, app_cmd(30)));
  h.merger.queue(1).push_proposal(value_at(1, app_cmd(11)));
  h.merger.queue(3).push_proposal(value_at(1, app_cmd(31)));
  h.merger.pump();
  // Lexicographic: (0,S1)=10, (0,S2)=unsub, (0,S3)=30, (1,S1)=11, (1,S3)=31.
  EXPECT_EQ(h.delivered, (std::vector<uint64_t>{10, 30, 11, 31}));
  EXPECT_EQ(h.merger.subscriptions(), (std::vector<StreamId>{1, 3}));
}

TEST(ElasticMergerTest, PrepareHintStartsLearnerWithoutSubscribing) {
  MergerHarness h(1);
  h.merger.bootstrap({1});
  h.merger.queue(1).push_proposal(value_at(0, paxos::make_prepare_hint(55, 1, 2)));
  h.merger.pump();
  EXPECT_EQ(h.learners_started, (std::vector<StreamId>{1, 2}));
  EXPECT_FALSE(h.merger.subscribed_to(2));
  EXPECT_EQ(h.merger.phase(), ElasticMerger::Phase::kNormal);
}

TEST(ElasticMergerTest, ControlForOtherGroupIsIgnored) {
  MergerHarness h(1);
  h.merger.bootstrap({1});
  h.merger.queue(1).push_proposal(value_at(0, paxos::make_subscribe(55, 9, 2)));
  h.merger.queue(1).push_proposal(value_at(1, app_cmd(10)));
  h.merger.pump();
  EXPECT_EQ(h.delivered, (std::vector<uint64_t>{10}));
  EXPECT_FALSE(h.merger.subscribed_to(2));
  EXPECT_TRUE(h.learners_started.size() == 1);  // only the bootstrap learner
}

TEST(ElasticMergerTest, DuplicateSubscribeIsIgnored) {
  MergerHarness h(1);
  h.merger.bootstrap({1, 2});
  h.merger.queue(1).push_proposal(value_at(0, paxos::make_subscribe(55, 1, 2)));
  h.merger.queue(1).push_proposal(value_at(1, app_cmd(10)));
  h.merger.queue(2).push_proposal(skip_at(0, 2));
  h.merger.pump();
  EXPECT_EQ(h.delivered, (std::vector<uint64_t>{10}));
  EXPECT_EQ(h.merger.phase(), ElasticMerger::Phase::kNormal);
}

TEST(ElasticMergerTest, ReorderedControlCopyTakesNoEffect) {
  // The controller re-proposes blindly, so a copy of a subscribe can be
  // ordered after the group already unsubscribed again. It must not
  // start a second subscription (which would stall delivery on a scan).
  MergerHarness h(1);
  h.merger.bootstrap({1});
  h.merger.queue(1).push_proposal(value_at(0, paxos::make_subscribe(77, 1, 2)));
  h.merger.queue(2).push_proposal(value_at(0, paxos::make_subscribe(77, 1, 2)));
  h.merger.queue(1).push_proposal(value_at(1, paxos::make_unsubscribe(78, 1, 2)));
  h.merger.queue(1).push_proposal(value_at(2, paxos::make_subscribe(77, 1, 2)));
  h.merger.queue(1).push_proposal(value_at(3, app_cmd(10)));
  h.merger.pump();
  EXPECT_EQ(h.delivered, (std::vector<uint64_t>{10}));
  EXPECT_EQ(h.merger.phase(), ElasticMerger::Phase::kNormal);
  EXPECT_EQ(h.merger.subscriptions(), (std::vector<StreamId>{1}));
  EXPECT_EQ(h.learners_started, (std::vector<StreamId>{1, 2}));
}

TEST(ElasticMergerTest, SubscribeDuringAligningIsDeferred) {
  MergerHarness h(1);
  h.merger.bootstrap({1});
  // First subscription to S2: sub at S1 slot 0 and S2 slot 2.
  h.merger.queue(1).push_proposal(value_at(0, paxos::make_subscribe(50, 1, 2)));
  h.merger.queue(2).push_proposal(value_at(0, app_cmd(20)));
  h.merger.queue(2).push_proposal(value_at(1, app_cmd(21)));
  h.merger.queue(2).push_proposal(value_at(2, paxos::make_subscribe(50, 1, 2)));
  h.merger.pump();
  ASSERT_EQ(h.merger.phase(), ElasticMerger::Phase::kAligning);
  EXPECT_EQ(h.merger.merge_point(), 3u);
  // While S1 catches up to slot 3, a second subscription (to S3) is
  // consumed from S1 — it must be deferred, not processed re-entrantly.
  h.merger.queue(1).push_proposal(value_at(1, paxos::make_subscribe(60, 1, 3)));
  h.merger.queue(1).push_proposal(value_at(2, app_cmd(12)));
  h.merger.queue(3).push_proposal(value_at(0, paxos::make_subscribe(60, 1, 3)));
  h.merger.pump();
  // S2 joined; the deferred subscription to S3 was processed AFTER the
  // first one completed (never re-entrantly) and may itself already be
  // done if enough slots were buffered.
  EXPECT_TRUE(h.merger.subscribed_to(2));
  // Complete it: merge point is max(S3 sub pos + 1, current positions).
  h.merger.queue(1).push_proposal(skip_at(3, 8));
  h.merger.queue(2).push_proposal(skip_at(3, 8));
  h.merger.queue(3).push_proposal(skip_at(1, 10));
  h.merger.pump();
  EXPECT_TRUE(h.merger.subscribed_to(3));
  EXPECT_EQ(h.delivered, (std::vector<uint64_t>{12}));  // app cmd at (2,S1)
}

TEST(ElasticMergerTest, UnsubscribeDuringAligningApplies) {
  MergerHarness h(1);
  h.merger.bootstrap({1, 2});
  // Subscribe to S3: sub in S1 slot 1, S3 slot 0.
  h.merger.queue(1).push_proposal(value_at(0, app_cmd(10)));
  h.merger.queue(2).push_proposal(value_at(0, app_cmd(20)));
  h.merger.queue(1).push_proposal(value_at(1, paxos::make_subscribe(70, 1, 3)));
  h.merger.queue(3).push_proposal(value_at(0, paxos::make_subscribe(70, 1, 3)));
  h.merger.pump();
  ASSERT_EQ(h.merger.phase(), ElasticMerger::Phase::kAligning);
  const auto merge = h.merger.merge_point();
  // While aligning, S2 delivers an unsubscribe for itself.
  h.merger.queue(2).push_proposal(value_at(1, paxos::make_unsubscribe(71, 1, 2)));
  h.merger.queue(1).push_proposal(skip_at(2, merge));
  h.merger.pump();
  EXPECT_FALSE(h.merger.subscribed_to(2));
  EXPECT_TRUE(h.merger.phase() == ElasticMerger::Phase::kNormal ||
              h.merger.phase() == ElasticMerger::Phase::kAligning);
  // Finish alignment on the remaining streams.
  h.merger.queue(3).push_proposal(skip_at(1, merge + 4));
  h.merger.pump();
  EXPECT_TRUE(h.merger.subscribed_to(3));
}

TEST(ElasticMergerTest, RestoreResumesAtCut) {
  // Donor state: two streams consumed to uneven positions, next turn S2.
  MergerHarness donor(1);
  donor.merger.bootstrap({1, 2});
  donor.merger.queue(1).push_proposal(value_at(0, app_cmd(10)));
  donor.merger.queue(2).push_proposal(value_at(0, app_cmd(20)));
  donor.merger.queue(1).push_proposal(value_at(1, app_cmd(11)));
  donor.merger.pump();  // delivered 10, 20, 11; next = (1, S2)
  ASSERT_EQ(donor.merger.current_stream(), 2u);

  MergerHarness joiner(1);
  joiner.merger.restore({{1, donor.merger.queue(1).next_index()},
                         {2, donor.merger.queue(2).next_index()}},
                        donor.merger.current_stream());
  // Identical continuation: feed both the same future slots.
  auto feed = [](ElasticMerger& m) {
    m.queue(2).push_proposal(value_at(1, app_cmd(21)));
    m.queue(1).push_proposal(value_at(2, app_cmd(12)));
    m.queue(2).push_proposal(value_at(2, app_cmd(22)));
    m.pump();
  };
  feed(donor.merger);
  feed(joiner.merger);
  EXPECT_EQ(joiner.delivered, (std::vector<uint64_t>{21, 12, 22}));
  // Donor delivered the same suffix after its prefix.
  EXPECT_EQ(donor.delivered,
            (std::vector<uint64_t>{10, 20, 11, 21, 12, 22}));
}

TEST(ElasticMergerTest, GroupRelabelChangesAddressing) {
  MergerHarness h(1);
  h.merger.bootstrap({1});
  h.merger.set_group(7);
  h.merger.queue(1).push_proposal(value_at(0, paxos::make_subscribe(55, 7, 2)));
  h.merger.pump();
  EXPECT_EQ(h.merger.phase(), ElasticMerger::Phase::kScanning);
  EXPECT_EQ(h.merger.pending_stream(), 2u);
}

}  // namespace
}  // namespace epx
