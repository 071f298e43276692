// The intake layer under the collector service: replay framing, the
// bounded per-agent queues with their exact-accounting invariant
// (received == taken + dropped, per agent and in total) and offer-time
// sequence-gap tracking, and the POSIX socket round trip. Socket tests skip cleanly where the environment
// forbids binding; everything else exercises the same code paths through
// parse_frame() and AgentQueues directly.
#include "sflow/socket_intake.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sflow/datagram.hpp"

namespace ixp::sflow {
namespace {

using net::Ipv4Addr;

Datagram make_datagram(Ipv4Addr agent, std::uint32_t sequence) {
  Datagram d;
  d.agent = agent;
  d.sequence = sequence;
  FlowSample sample;
  sample.sequence = sequence;
  sample.sampling_rate = 16384;
  sample.frame.frame_length = 100;
  sample.frame.captured = 0;
  d.samples.push_back(sample);
  return d;
}

std::vector<std::byte> payload_for(Ipv4Addr agent, std::uint32_t sequence) {
  return encode(make_datagram(agent, sequence));
}

DatagramEnvelope envelope_for(Ipv4Addr agent, std::uint32_t sequence) {
  return parse_frame(payload_for(agent, sequence));
}

TEST(ReplayFrame, RoundTripsOffsetAndPayload) {
  const Ipv4Addr agent{192, 0, 2, 1};
  const auto payload = payload_for(agent, 42);
  const std::uint64_t offset = 0x0000'1234'5678'9ABCull;

  const auto frame = encode_replay_frame(offset, payload);
  ASSERT_EQ(frame.size(), kReplayFrameHeaderBytes + payload.size());

  const auto envelope = parse_frame(frame);
  EXPECT_TRUE(envelope.framed());
  EXPECT_EQ(envelope.offset, offset);
  EXPECT_EQ(envelope.agent, agent);
  ASSERT_EQ(envelope.payload.size(), payload.size());
  EXPECT_EQ(envelope.payload, payload);
}

TEST(ReplayFrame, RawDatagramIsSelfDiscriminating) {
  // A raw sFlow payload starts with the version word (5), never with
  // kReplayMagic — parse_frame must pass it through unframed.
  const Ipv4Addr agent{192, 0, 2, 9};
  const auto payload = payload_for(agent, 7);
  const auto envelope = parse_frame(payload);
  EXPECT_FALSE(envelope.framed());
  EXPECT_EQ(envelope.offset, kNoReplayOffset);
  EXPECT_EQ(envelope.agent, agent);
  EXPECT_EQ(envelope.payload, payload);
}

TEST(ReplayFrame, TooShortForAgentPeekYieldsZeroAgent) {
  const std::vector<std::byte> stub(6);  // shorter than the agent field
  const auto envelope = parse_frame(stub);
  EXPECT_EQ(envelope.agent, Ipv4Addr{});
  EXPECT_EQ(envelope.payload.size(), stub.size());
}

TEST(AgentQueues, FifoAcrossAgents) {
  AgentQueues queues;
  queues.offer(envelope_for(Ipv4Addr{1, 1, 1, 1}, 0));
  queues.offer(envelope_for(Ipv4Addr{2, 2, 2, 2}, 0));
  queues.offer(envelope_for(Ipv4Addr{1, 1, 1, 1}, 1));

  DatagramEnvelope out;
  ASSERT_TRUE(queues.take(out));
  EXPECT_EQ(out.agent, (Ipv4Addr{1, 1, 1, 1}));
  ASSERT_TRUE(queues.take(out));
  EXPECT_EQ(out.agent, (Ipv4Addr{2, 2, 2, 2}));
  ASSERT_TRUE(queues.take(out));
  EXPECT_EQ(out.agent, (Ipv4Addr{1, 1, 1, 1}));
  EXPECT_FALSE(queues.try_take(out));
}

TEST(AgentQueues, FloodingAgentShedsOnlyItsOwnDatagrams) {
  // Capacity 2 per agent: agent A floods 5, agent B sends 2. A loses
  // exactly 3, B loses nothing, and the books balance exactly.
  AgentQueues queues{/*per_agent_capacity=*/2};
  const Ipv4Addr a{1, 1, 1, 1};
  const Ipv4Addr b{2, 2, 2, 2};
  int accepted = 0;
  for (std::uint32_t i = 0; i < 5; ++i)
    accepted += queues.offer(envelope_for(a, i)) ? 1 : 0;
  EXPECT_EQ(accepted, 2);
  EXPECT_TRUE(queues.offer(envelope_for(b, 0)));
  EXPECT_TRUE(queues.offer(envelope_for(b, 1)));

  DatagramEnvelope out;
  std::uint64_t taken = 0;
  while (queues.try_take(out)) ++taken;
  EXPECT_EQ(taken, 4u);

  const auto stats = queues.stats();
  ASSERT_EQ(stats.rows.size(), 2u);
  EXPECT_EQ(stats.rows[0].agent, a);
  EXPECT_EQ(stats.rows[0].counters.received, 5u);
  EXPECT_EQ(stats.rows[0].counters.dropped, 3u);
  EXPECT_EQ(stats.rows[0].counters.taken, 2u);
  // Gaps are counted at offer time, so a shed datagram still advanced
  // its agent's sequence: it counts once, as dropped, never as lost.
  EXPECT_EQ(stats.rows[0].counters.lost, 0u);
  EXPECT_EQ(stats.rows[1].agent, b);
  EXPECT_EQ(stats.rows[1].counters.dropped, 0u);
  for (const auto& row : stats.rows) {
    EXPECT_EQ(row.counters.received,
              row.counters.taken + row.counters.dropped);
  }
  const auto totals = stats.totals();
  EXPECT_EQ(totals.received, 7u);
  EXPECT_EQ(totals.received, totals.taken + totals.dropped);
}

TEST(AgentQueues, DrainingAConsumedSliceReopensIt) {
  AgentQueues queues{/*per_agent_capacity=*/1};
  const Ipv4Addr a{1, 1, 1, 1};
  EXPECT_TRUE(queues.offer(envelope_for(a, 0)));
  EXPECT_FALSE(queues.offer(envelope_for(a, 1)));  // full: dropped
  DatagramEnvelope out;
  ASSERT_TRUE(queues.take(out));
  EXPECT_TRUE(queues.offer(envelope_for(a, 2)));  // room again
  const auto totals = queues.stats().totals();
  EXPECT_EQ(totals.received, 3u);
  EXPECT_EQ(totals.dropped, 1u);
}

TEST(AgentQueues, CloseDrainsThenEndsAndCountsLateOffersAsDrops) {
  AgentQueues queues;
  queues.offer(envelope_for(Ipv4Addr{1, 1, 1, 1}, 0));
  queues.offer(envelope_for(Ipv4Addr{1, 1, 1, 1}, 1));
  queues.close();
  EXPECT_TRUE(queues.closed());
  EXPECT_FALSE(queues.offer(envelope_for(Ipv4Addr{1, 1, 1, 1}, 2)));

  DatagramEnvelope out;
  EXPECT_TRUE(queues.take(out));  // queued work still drains
  EXPECT_TRUE(queues.take(out));
  EXPECT_FALSE(queues.take(out));  // end of stream

  const auto totals = queues.stats().totals();
  EXPECT_EQ(totals.received, 3u);
  EXPECT_EQ(totals.taken, 2u);
  EXPECT_EQ(totals.dropped, 1u);
}

TEST(AgentQueues, CloseWakesABlockedTaker) {
  AgentQueues queues;
  std::thread taker{[&] {
    DatagramEnvelope out;
    EXPECT_FALSE(queues.take(out));
  }};
  queues.close();
  taker.join();
}

TEST(AgentQueues, AgentRowEvictionFoldsCountersIntoTotals) {
  // Row cap of 2: a third agent evicts the first row, but its counters
  // (its sequence gap included) fold into the evicted bucket — the totals
  // never lose a datagram, even for envelopes taken after their agent's
  // row is gone.
  AgentQueues queues{/*per_agent_capacity=*/8, /*max_agents=*/2};
  const Ipv4Addr a{1, 1, 1, 1};
  const Ipv4Addr b{2, 2, 2, 2};
  const Ipv4Addr c{3, 3, 3, 3};
  queues.offer(envelope_for(a, 0));
  queues.offer(envelope_for(a, 4));  // 3 lost
  queues.offer(envelope_for(b, 0));
  queues.offer(envelope_for(c, 0));  // evicts a's row; a's envelopes queued

  DatagramEnvelope out;
  std::uint64_t taken = 0;
  while (queues.try_take(out)) ++taken;
  EXPECT_EQ(taken, 4u);

  const auto stats = queues.stats();
  EXPECT_EQ(stats.evicted_agents, 1u);
  ASSERT_EQ(stats.rows.size(), 2u);
  EXPECT_EQ(stats.evicted.lost, 3u);
  const auto totals = stats.totals();
  EXPECT_EQ(totals.received, 4u);
  EXPECT_EQ(totals.taken, 4u);
  EXPECT_EQ(totals.dropped, 0u);
  EXPECT_EQ(totals.lost, 3u);
}

TEST(AgentQueues, ReturningAgentDoesNotInheritInFlightEnvelopes) {
  // An evicted agent that comes back gets a fresh row. Envelopes still
  // queued under its old row were counted in the evicted bucket, so
  // taking them must credit that bucket, not the new row — otherwise the
  // new row reads taken > received and its slice bound goes wrong.
  AgentQueues queues{/*per_agent_capacity=*/1, /*max_agents=*/1};
  const Ipv4Addr a{1, 1, 1, 1};
  const Ipv4Addr b{2, 2, 2, 2};
  EXPECT_TRUE(queues.offer(envelope_for(a, 0)));
  EXPECT_TRUE(queues.offer(envelope_for(b, 0)));  // evicts a
  EXPECT_TRUE(queues.offer(envelope_for(a, 1)));  // evicts b; a's new row

  DatagramEnvelope out;
  ASSERT_TRUE(queues.try_take(out));  // a's first, from the evicted row
  // The new row's one slot is still taken by its own envelope.
  EXPECT_FALSE(queues.offer(envelope_for(a, 2)));
  while (queues.try_take(out)) {
  }

  const auto stats = queues.stats();
  ASSERT_EQ(stats.rows.size(), 1u);
  EXPECT_EQ(stats.rows[0].agent, a);
  EXPECT_EQ(stats.rows[0].counters.received, 2u);
  EXPECT_EQ(stats.rows[0].counters.taken, 1u);
  EXPECT_EQ(stats.rows[0].counters.dropped, 1u);
  EXPECT_EQ(stats.evicted.received, 2u);
  EXPECT_EQ(stats.evicted.taken, 2u);
}

TEST(AgentQueues, FloodAcrossManyEvictionsKeepsExactAccounting) {
  // Worst case for the accounting invariant: 12 agents hammering a table
  // capped at 3 rows, every one flooding past its per-agent capacity, with
  // a consumer interleaved so envelopes from long-evicted rows are still
  // being taken. received == taken + dropped must hold to the datagram,
  // and nothing may vanish into an evicted row.
  constexpr std::uint32_t kCapacity = 4;
  constexpr std::uint32_t kAgents = 12;
  constexpr std::uint32_t kPerAgent = 10;  // > kCapacity: forced drops
  AgentQueues queues{/*per_agent_capacity=*/kCapacity, /*max_agents=*/3};

  DatagramEnvelope out;
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t taken = 0;
  for (std::uint32_t a = 0; a < kAgents; ++a) {
    const Ipv4Addr agent{10, 0, 0, static_cast<std::uint8_t>(a + 1)};
    for (std::uint32_t i = 0; i < kPerAgent; ++i) {
      ++offered;
      accepted += queues.offer(envelope_for(agent, i)) ? 1 : 0;
    }
    // Drain one envelope per flooded agent: by the time later agents
    // arrive, these came from rows the table has already evicted.
    if (queues.try_take(out)) ++taken;
  }
  while (queues.try_take(out)) ++taken;

  const auto stats = queues.stats();
  EXPECT_GT(stats.evicted_agents, 0u);
  EXPECT_LE(stats.rows.size(), 3u);
  for (const auto& row : stats.rows) {
    EXPECT_EQ(row.counters.received,
              row.counters.taken + row.counters.dropped);
  }
  const auto totals = stats.totals();
  EXPECT_EQ(totals.received, offered);
  EXPECT_EQ(totals.taken, accepted);
  EXPECT_EQ(totals.taken, taken);
  EXPECT_EQ(totals.dropped, offered - accepted);
  EXPECT_EQ(totals.received, totals.taken + totals.dropped);
}

TEST(AgentQueues, CountsSequenceGapsPerAgent) {
  AgentQueues queues;
  const Ipv4Addr a{1, 1, 1, 1};
  const Ipv4Addr b{2, 2, 2, 2};
  queues.offer(envelope_for(a, 0));
  queues.offer(envelope_for(a, 1));
  queues.offer(envelope_for(a, 5));   // 3 lost (2, 3, 4)
  queues.offer(envelope_for(b, 10));  // first from b: no gap
  queues.offer(envelope_for(b, 11));
  const auto stats = queues.stats();
  ASSERT_EQ(stats.rows.size(), 2u);
  EXPECT_EQ(stats.rows[0].counters.lost, 3u);
  EXPECT_EQ(stats.rows[1].counters.lost, 0u);
  EXPECT_EQ(stats.totals().lost, 3u);
}

TEST(AgentQueues, ReorderedDatagramIsNotAGap) {
  AgentQueues queues;
  const Ipv4Addr a{1, 1, 1, 1};
  queues.offer(envelope_for(a, 0));
  queues.offer(envelope_for(a, 2));  // gap of 1
  queues.offer(envelope_for(a, 1));  // late arrival: no extra gap
  queues.offer(envelope_for(a, 3));  // continues from 2: no gap
  EXPECT_EQ(queues.stats().totals().lost, 1u);
}

TEST(AgentQueues, EvictedAgentComesBackWithoutPhantomGap) {
  // Cap of 2 rows: a third agent evicts the oldest, and a re-appearing
  // evicted agent restarts from scratch — no phantom gap from its
  // pre-eviction sequence number.
  AgentQueues queues{/*per_agent_capacity=*/8, /*max_agents=*/2};
  const Ipv4Addr a{1, 1, 1, 1};
  const Ipv4Addr b{2, 2, 2, 2};
  const Ipv4Addr c{3, 3, 3, 3};
  queues.offer(envelope_for(a, 0));
  queues.offer(envelope_for(b, 0));
  queues.offer(envelope_for(c, 0));  // evicts a (oldest)
  auto stats = queues.stats();
  EXPECT_EQ(stats.rows.size(), 2u);
  EXPECT_EQ(stats.evicted_agents, 1u);

  queues.offer(envelope_for(a, 1000));  // evicts b
  stats = queues.stats();
  EXPECT_EQ(stats.rows.size(), 2u);
  EXPECT_EQ(stats.evicted_agents, 2u);
  EXPECT_EQ(stats.totals().lost, 0u);
}

TEST(AgentQueues, FloodOfForgedAgentsStaysBounded) {
  AgentQueues queues{/*per_agent_capacity=*/4, /*max_agents=*/16};
  for (std::uint32_t i = 0; i < 1000; ++i)
    queues.offer(envelope_for(Ipv4Addr{10, 0,
                                       static_cast<std::uint8_t>(i >> 8),
                                       static_cast<std::uint8_t>(i)},
                              0));
  const auto stats = queues.stats();
  EXPECT_EQ(stats.rows.size(), 16u);
  EXPECT_EQ(stats.evicted_agents, 1000u - 16u);
  EXPECT_EQ(stats.totals().received, 1000u);
}

TEST(AgentQueues, EvictionHookObservesVictimAndLastSequence) {
  // The serve service logs evictions through this hook; it must fire once
  // per evicted row with the FIFO victim and the sequence number its row
  // had reached.
  AgentQueues queues{/*per_agent_capacity=*/8, /*max_agents=*/2};
  std::vector<std::pair<Ipv4Addr, std::uint32_t>> evictions;
  queues.set_eviction_hook([&](Ipv4Addr agent, std::uint32_t last_seq) {
    evictions.emplace_back(agent, last_seq);
  });

  const Ipv4Addr a{1, 1, 1, 1};
  const Ipv4Addr b{2, 2, 2, 2};
  const Ipv4Addr c{3, 3, 3, 3};
  queues.offer(envelope_for(a, 5));
  queues.offer(envelope_for(a, 6));  // advances a's sequence
  queues.offer(envelope_for(b, 0));
  EXPECT_TRUE(evictions.empty());  // at the cap, nothing over it yet

  queues.offer(envelope_for(c, 0));  // evicts a (oldest)
  ASSERT_EQ(evictions.size(), 1u);
  EXPECT_EQ(evictions[0].first, a);
  EXPECT_EQ(evictions[0].second, 6u);

  queues.offer(envelope_for(a, 100));  // evicts b
  ASSERT_EQ(evictions.size(), 2u);
  EXPECT_EQ(evictions[1].first, b);
  EXPECT_EQ(evictions[1].second, 0u);
  EXPECT_EQ(queues.stats().evicted_agents, 2u);
}

TEST(AgentQueues, ShortOrJunkPayloadNeverTouchesSequence) {
  // Only a well-formed sFlow header (>= 20 bytes, version 5) carries a
  // sequence number. Anything else is received and queued like any
  // datagram, but leaves the agent's sequence state alone.
  AgentQueues queues;
  const Ipv4Addr a{1, 1, 1, 1};
  auto short_payload = payload_for(a, 100);
  short_payload.resize(12);  // version, agent, sequence — no full header
  auto wrong_version = payload_for(a, 200);
  wrong_version[3] = std::byte{6};
  auto truncated_body = payload_for(a, 1);
  truncated_body.resize(20);  // header intact, samples cut off

  queues.offer(parse_frame(short_payload));
  queues.offer(parse_frame(wrong_version));
  queues.offer(envelope_for(a, 0));  // first sequence: no gap
  queues.offer(parse_frame(short_payload));
  queues.offer(parse_frame(wrong_version));
  queues.offer(parse_frame(truncated_body));  // seq 1: arrived, no gap
  queues.offer(envelope_for(a, 2));
  queues.offer(parse_frame(std::vector<std::byte>(9)));  // agent 0.0.0.0

  const auto stats = queues.stats();
  ASSERT_EQ(stats.rows.size(), 2u);
  EXPECT_EQ(stats.rows[0].agent, a);
  EXPECT_EQ(stats.rows[0].counters.received, 7u);
  EXPECT_EQ(stats.rows[0].counters.lost, 0u);
  EXPECT_EQ(stats.rows[1].agent, Ipv4Addr{});
  EXPECT_EQ(stats.rows[1].counters.received, 1u);
  EXPECT_EQ(stats.totals().lost, 0u);
  EXPECT_EQ(queues.queued(), 8u);
}

std::string temp_socket_path(const char* tag) {
  return testing::TempDir() + "ixpscope_intake_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

TEST(SocketIntake, UnixRoundTripCarriesFramedAndRawDatagrams) {
  SocketIntake intake;
  std::string error;
  const std::string path = temp_socket_path("unix");
  if (!intake.listen_unix(path, &error))
    GTEST_SKIP() << "cannot bind unix socket: " << error;

  auto sender = DatagramSender::connect_unix(path, &error);
  ASSERT_TRUE(sender.ok()) << error;

  const Ipv4Addr agent{192, 0, 2, 3};
  const auto payload = payload_for(agent, 11);
  ASSERT_TRUE(sender.send(payload));
  ASSERT_TRUE(sender.send_framed(0x1000, payload));

  std::vector<DatagramEnvelope> received;
  while (received.size() < 2) {
    const std::size_t n = intake.poll_once(
        2000, [&](DatagramEnvelope&& e) { received.push_back(std::move(e)); });
    ASSERT_GT(n, 0u) << "timed out waiting for datagrams";
  }
  ASSERT_EQ(received.size(), 2u);
  EXPECT_FALSE(received[0].framed());
  EXPECT_EQ(received[0].agent, agent);
  EXPECT_EQ(received[0].payload, payload);
  EXPECT_TRUE(received[1].framed());
  EXPECT_EQ(received[1].offset, 0x1000u);
  EXPECT_EQ(received[1].payload, payload);

  intake.shutdown();
  EXPECT_FALSE(intake.listening());
}

TEST(SocketIntake, UdpRoundTripOnEphemeralPort) {
  SocketIntake intake;
  std::string error;
  if (!intake.listen_udp(0, &error))
    GTEST_SKIP() << "cannot bind udp socket: " << error;
  ASSERT_NE(intake.udp_port(), 0u);

  auto sender = DatagramSender::connect_udp(intake.udp_port(), &error);
  ASSERT_TRUE(sender.ok()) << error;

  const Ipv4Addr agent{192, 0, 2, 4};
  const auto payload = payload_for(agent, 3);
  ASSERT_TRUE(sender.send(payload));

  std::vector<DatagramEnvelope> received;
  // UDP on loopback is reliable in practice but give it a few polls.
  for (int attempt = 0; attempt < 10 && received.empty(); ++attempt) {
    intake.poll_once(500, [&](DatagramEnvelope&& e) {
      received.push_back(std::move(e));
    });
  }
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].agent, agent);
  EXPECT_EQ(received[0].payload, payload);
}

/// The full intake -> queues -> decode chain without the analysis
/// engine, as a pump worker runs it: everything taken either decodes or
/// counts as a decode error.
TEST(SocketIntake, QueuesFeedCollectorExactly) {
  AgentQueues queues;
  for (std::uint32_t i = 0; i < 10; ++i)
    queues.offer(envelope_for(Ipv4Addr{10, 0, 0, 1}, i));
  queues.offer(parse_frame(std::vector<std::byte>(9)));  // undecodable junk
  queues.close();

  Datagram scratch;
  std::uint64_t datagrams = 0;
  std::uint64_t flow_samples = 0;
  std::uint64_t decode_errors = 0;
  DatagramEnvelope envelope;
  while (queues.take(envelope)) {
    if (decode_into(envelope.payload, scratch)) {
      ++datagrams;
      flow_samples += scratch.samples.size();
    } else {
      ++decode_errors;
    }
  }
  const auto totals = queues.stats().totals();
  EXPECT_EQ(totals.taken, 11u);
  EXPECT_EQ(datagrams + decode_errors, totals.taken);
  EXPECT_EQ(datagrams, 10u);
  EXPECT_EQ(flow_samples, 10u);
  EXPECT_EQ(decode_errors, 1u);
  EXPECT_EQ(totals.lost, 0u);
}

}  // namespace
}  // namespace ixp::sflow
