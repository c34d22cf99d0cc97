// Full-system integration tests: the scenarios of thesis Ch. 5 — packet
// transmission and reception, single mode and three concurrent modes, with
// the interrupt-driven CPU, the Event Handler's autonomous receive path, the
// AckRfu's SIFS-bounded acknowledgements, retries, the WiMAX packing/ARQ
// machinery, and the TH_R/TH_M scope traces (Figs. 5.5-5.7), which never
// change the schedule.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "baseline/conventional.hpp"
#include "drmp/testbench.hpp"
#include "mac/wifi_frames.hpp"
#include "mac/wimax_frames.hpp"

namespace drmp {
namespace {

Bytes payload(std::size_t n, u8 seed = 1) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<u8>(i * 3 + seed);
  return b;
}

// ------------------------------------------------------------ WiFi transmit

TEST(SystemWifi, SingleMsduTransmitsAndIsAcked) {
  Testbench tb;
  const Bytes msdu = payload(800);
  const auto out = tb.send_and_wait(Mode::A, msdu);
  ASSERT_TRUE(out.completed) << "transmission did not complete";
  EXPECT_TRUE(out.success);
  // The peer received exactly one data MPDU and ACKed it.
  ASSERT_EQ(tb.peer(Mode::A).received_data_frames().size(), 1u);
  EXPECT_EQ(tb.peer(Mode::A).acks_sent(), 1u);

  // Differential check against the golden conventional implementation: the
  // on-air bytes must be exactly what a correct 802.11 transmitter builds.
  baseline::GoldenTxParams gp;
  gp.proto = mac::Protocol::WiFi;
  gp.key = tb.config().modes[0].key;
  gp.seq = 0;  // First SeqAssign returns 0.
  gp.frag_threshold = tb.config().modes[0].ident.frag_threshold;
  gp.src_addr = tb.config().modes[0].ident.self_addr;
  gp.dst_addr = tb.config().modes[0].ident.peer_addr;
  const auto golden = baseline::golden_tx_frames(gp, msdu);
  ASSERT_EQ(golden.size(), 1u);
  EXPECT_EQ(tb.peer(Mode::A).received_data_frames()[0], golden[0]);
}

TEST(SystemWifi, FragmentedMsduSendsAllFragments) {
  Testbench tb;
  const Bytes msdu = payload(2500);  // 3 fragments at 1024 B threshold.
  const auto out = tb.send_and_wait(Mode::A, msdu);
  ASSERT_TRUE(out.completed);
  EXPECT_TRUE(out.success);
  ASSERT_EQ(tb.peer(Mode::A).received_data_frames().size(), 3u);
  EXPECT_EQ(tb.peer(Mode::A).acks_sent(), 3u);
  // Fragment flags: more_frag on all but the last.
  for (std::size_t k = 0; k < 3; ++k) {
    const auto p = mac::wifi::parse_data_mpdu(tb.peer(Mode::A).received_data_frames()[k]);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->hdr.frag_num, k);
    EXPECT_EQ(p->hdr.fc.more_frag, k < 2);
    EXPECT_TRUE(p->hcs_ok);
    EXPECT_TRUE(p->fcs_ok);
  }
}

TEST(SystemWifi, LostAckTriggersRetryWithRetryFlag) {
  // Failure injection: the peer never ACKs, so the transmitter must retry
  // with the retry bit set until the limit exhausts and report failure.
  Testbench tb3;
  tb3.peer(Mode::A).set_auto_ack(false);
  const auto out = tb3.send_and_wait(Mode::A, payload(200), 600'000'000);
  ASSERT_TRUE(out.completed);
  EXPECT_FALSE(out.success);  // Retry limit exhausted.
  // All transmissions carried the same fragment; retries have retry=1.
  const auto& frames = tb3.peer(Mode::A).received_data_frames();
  ASSERT_GE(frames.size(), 2u);
  const auto first = mac::wifi::parse_data_mpdu(frames[0]);
  const auto second = mac::wifi::parse_data_mpdu(frames[1]);
  ASSERT_TRUE(first && second);
  EXPECT_FALSE(first->hdr.fc.retry);
  EXPECT_TRUE(second->hdr.fc.retry);
  EXPECT_EQ(first->hdr.seq_num, second->hdr.seq_num);
}

TEST(SystemWifi, BackToBackMsdusUseIncrementingSequenceNumbers) {
  Testbench tb;
  ASSERT_TRUE(tb.send_and_wait(Mode::A, payload(100, 1)).success);
  ASSERT_TRUE(tb.send_and_wait(Mode::A, payload(100, 2)).success);
  const auto& frames = tb.peer(Mode::A).received_data_frames();
  ASSERT_EQ(frames.size(), 2u);
  const auto p0 = mac::wifi::parse_data_mpdu(frames[0]);
  const auto p1 = mac::wifi::parse_data_mpdu(frames[1]);
  EXPECT_EQ(p0->hdr.seq_num + 1, p1->hdr.seq_num);
}

// ------------------------------------------------------------- WiFi receive

TEST(SystemWifi, ReceivesAcksAndDeliversMsdu) {
  Testbench tb;
  const Bytes msdu = payload(600);
  const auto delivered = tb.inject_and_wait(Mode::A, msdu, /*seq=*/5);
  ASSERT_TRUE(delivered.has_value()) << "MSDU was not delivered";
  EXPECT_EQ(*delivered, msdu);
  // The autonomous ACK path fired without CPU involvement.
  EXPECT_EQ(tb.device().event_handler().rx_acks_generated(Mode::A), 1u);
  EXPECT_EQ(tb.device().ack_rfu().acks_generated(), 1u);
}

TEST(SystemWifi, ReceivesFragmentedMsdu) {
  Testbench tb;
  const Bytes msdu = payload(2048);  // 2 fragments.
  const auto delivered = tb.inject_and_wait(Mode::A, msdu, /*seq=*/9);
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(*delivered, msdu);
  EXPECT_EQ(tb.device().ack_rfu().acks_generated(), 2u);  // One ACK per fragment.
}

TEST(SystemWifi, AckMeetsSifsDeadline) {
  // The headline hard-real-time constraint: the device's ACK must start
  // exactly SIFS after the received frame ends.
  Testbench tb;
  const Bytes msdu = payload(300);
  ASSERT_TRUE(tb.inject_and_wait(Mode::A, msdu, 1).has_value());
  auto* ptx = tb.device().phy_tx(Mode::A);
  ASSERT_NE(ptx, nullptr);
  ASSERT_TRUE(tb.run_until([&] { return ptx->frames_sent() >= 1; }, 4'000'000));
  ASSERT_EQ(ptx->frames_sent(), 1u);  // The ACK.
  // rx_end is tracked by the Rx RFU; ACK start must be >= rx_end + SIFS and
  // within a few cycles of it (the AckRfu staged it in time; the PHY starts
  // exactly at the earliest-start mark).
  const Cycle rx_end = tb.device().rx_rfu().last_rx_end();
  const Cycle sifs = tb.device().timebase().us_to_cycles(10.0);
  EXPECT_GE(ptx->last_tx_start(), rx_end + sifs);
  EXPECT_LE(ptx->last_tx_start(), rx_end + sifs + 8);
}

TEST(SystemWifi, CorruptedFrameIsDroppedWithoutAck) {
  Testbench tb;
  auto frames = tb.make_peer_frames(Mode::A, payload(400), 3);
  ASSERT_EQ(frames.size(), 1u);
  frames[0][40] ^= 0xFF;  // Corrupt the body -> FCS fails.
  tb.peer(Mode::A).inject_frame(frames[0], tb.scheduler().now() + 10);
  tb.run_cycles(4'000'000);  // 20 ms.
  EXPECT_TRUE(tb.delivered(Mode::A).empty());
  EXPECT_EQ(tb.device().ack_rfu().acks_generated(), 0u);
  EXPECT_EQ(tb.device().event_handler().rx_bad_frames(Mode::A), 1u);
}

TEST(SystemWifi, DuplicateFrameFilteredBySeqRfu) {
  Testbench tb;
  const Bytes msdu = payload(128);
  auto frames = tb.make_peer_frames(Mode::A, msdu, 7);
  ASSERT_TRUE(tb.inject_and_wait(Mode::A, msdu, 7).has_value());
  // Re-inject the identical frame (as after a lost ACK): must be ACKed again
  // but *not* delivered twice.
  tb.peer(Mode::A).inject_frame(frames[0], tb.scheduler().now() + 100);
  tb.run_cycles(6'000'000);
  EXPECT_EQ(tb.delivered(Mode::A).size(), 1u);
  EXPECT_EQ(tb.device().ack_rfu().acks_generated(), 2u);
}

// -------------------------------------------------------------------- UWB

TEST(SystemUwb, TransmitInCtaSlotWithImmAck) {
  Testbench tb;
  const Bytes msdu = payload(500);
  const auto out = tb.send_and_wait(Mode::C, msdu, 80'000'000);
  ASSERT_TRUE(out.completed);
  EXPECT_TRUE(out.success);
  ASSERT_EQ(tb.peer(Mode::C).received_data_frames().size(), 1u);
  EXPECT_EQ(tb.peer(Mode::C).acks_sent(), 1u);

  // Golden differential: UWB frame bytes.
  baseline::GoldenTxParams gp;
  gp.proto = mac::Protocol::Uwb;
  gp.key = tb.config().modes[2].key;
  gp.seq = 0;
  gp.frag_threshold = tb.config().modes[2].ident.frag_threshold;
  gp.pnid = tb.config().modes[2].ident.pnid;
  gp.src_id = tb.config().modes[2].ident.dev_id;
  gp.dest_id = tb.config().modes[2].ident.peer_dev_id;
  const auto golden = baseline::golden_tx_frames(gp, msdu);
  EXPECT_EQ(tb.peer(Mode::C).received_data_frames()[0], golden[0]);
}

TEST(SystemUwb, TdmaRespectsCtaOffset) {
  Testbench tb;
  const auto out = tb.send_and_wait(Mode::C, payload(64), 80'000'000);
  ASSERT_TRUE(out.success);
  // CTA at +1000 us in an 8000 us superframe: the data frame must start at
  // a k*8000+1000 us boundary (within jitter of the buffer handoff).
  auto* ptx = tb.device().phy_tx(Mode::C);
  const double start_us = tb.device().timebase().cycles_to_us(ptx->last_tx_start());
  const double in_frame = std::fmod(start_us, 8000.0);
  EXPECT_NEAR(in_frame, 1000.0, 5.0);
}

TEST(SystemUwb, ReceiveDeliversAndImmAcks) {
  Testbench tb;
  const Bytes msdu = payload(900);
  const auto delivered = tb.inject_and_wait(Mode::C, msdu, /*seq=*/11, 80'000'000);
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(*delivered, msdu);
  EXPECT_EQ(tb.device().ack_rfu().acks_generated(), 1u);
}

// ------------------------------------------------------------------ WiMAX

TEST(SystemWimax, TransmitSingleSduInTddFrame) {
  Testbench tb;
  const Bytes msdu = payload(700);
  const auto out = tb.send_and_wait(Mode::B, msdu, 80'000'000);
  ASSERT_TRUE(out.completed);
  EXPECT_TRUE(out.success);
  // WiMAX completion means "handed to the TDD frame"; wait out the air time.
  ASSERT_TRUE(tb.run_until(
      [&] { return !tb.peer(Mode::B).received_data_frames().empty(); }, 8'000'000));
  ASSERT_EQ(tb.peer(Mode::B).received_data_frames().size(), 1u);

  // Golden differential for the WiMAX MPDU.
  baseline::GoldenTxParams gp;
  gp.proto = mac::Protocol::WiMax;
  gp.key = tb.config().modes[1].key;
  gp.cid = tb.config().modes[1].ident.basic_cid;
  const auto golden = baseline::golden_tx_frames(gp, msdu);
  EXPECT_EQ(tb.peer(Mode::B).received_data_frames()[0], golden[0]);
}

TEST(SystemWimax, SmallMsdusArePackedIntoOneMpdu) {
  Testbench tb;
  tb.send_async(Mode::B, payload(100, 1));
  tb.send_async(Mode::B, payload(120, 2));
  ASSERT_TRUE(tb.wait_tx_count(Mode::B, 1, 160'000'000));
  // One MPDU on air carrying both SDUs (packing subheaders).
  ASSERT_TRUE(tb.run_until(
      [&] { return !tb.peer(Mode::B).received_data_frames().empty(); }, 8'000'000));
  ASSERT_EQ(tb.peer(Mode::B).received_data_frames().size(), 1u);
  const auto p = mac::wimax::parse_mpdu(tb.peer(Mode::B).received_data_frames()[0]);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->gmh.type & mac::wimax::kTypePacking);
  ASSERT_EQ(p->packed.size(), 2u);
}

TEST(SystemWimax, ReceiveDeliversSingleSdu) {
  Testbench tb;
  const Bytes msdu = payload(512);
  const auto delivered = tb.inject_and_wait(Mode::B, msdu, 0, 80'000'000);
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(*delivered, msdu);
}

TEST(SystemWimax, ArqFeedbackSlidesWindow) {
  Testbench tb;
  // Send two MPDUs (two ARQ-tagged blocks), then feed back cumulative BSN 2.
  ASSERT_TRUE(tb.send_and_wait(Mode::B, payload(300, 1), 80'000'000).success);
  ASSERT_TRUE(tb.send_and_wait(Mode::B, payload(300, 2), 80'000'000).success);
  const auto* w = tb.device().arq_rfu().cid_state(tb.config().modes[1].ident.basic_cid);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->next_bsn, 2u);
  EXPECT_EQ(w->window_start, 0u);

  tb.peer(Mode::B).inject_frame(tb.make_arq_feedback(2), tb.scheduler().now() + 100);
  ASSERT_TRUE(tb.run_until(
      [&] {
        const auto* s = tb.device().arq_rfu().cid_state(tb.config().modes[1].ident.basic_cid);
        return s != nullptr && s->window_start == 2;
      },
      80'000'000));
}

// -------------------------------------------- three concurrent protocol modes

TEST(SystemThreeModes, ConcurrentTransmissionAllSucceed) {
  // The thesis's headline experiment (Fig. 5.3): all three modes transmit
  // concurrently on one co-processor, reconfiguring packet-by-packet.
  Testbench tb;
  tb.send_async(Mode::A, payload(1000, 1));
  tb.send_async(Mode::B, payload(1000, 2));
  tb.send_async(Mode::C, payload(1000, 3));
  ASSERT_TRUE(tb.wait_tx_count(Mode::A, 1, 400'000'000));
  ASSERT_TRUE(tb.wait_tx_count(Mode::B, 1, 400'000'000));
  ASSERT_TRUE(tb.wait_tx_count(Mode::C, 1, 400'000'000));
  EXPECT_EQ(tb.tx_successes(Mode::A), 1u);
  EXPECT_EQ(tb.tx_successes(Mode::B), 1u);
  EXPECT_EQ(tb.tx_successes(Mode::C), 1u);
  // The shared RFUs really were reconfigured between protocols.
  EXPECT_GE(tb.device().crypto_rfu().reconfig_count(), 3u);
}

TEST(SystemThreeModes, ConcurrentReceptionAllDelivered) {
  Testbench tb;
  const Bytes ma = payload(400, 1), mb = payload(400, 2), mc = payload(400, 3);
  const auto fa = tb.make_peer_frames(Mode::A, ma, 1);
  const auto fb = tb.make_peer_frames(Mode::B, mb, 1);
  const auto fc = tb.make_peer_frames(Mode::C, mc, 1);
  const Cycle at = tb.scheduler().now() + 10;
  tb.peer(Mode::A).inject_frame(fa[0], at);
  tb.peer(Mode::B).inject_frame(fb[0], at);  // Different media: true overlap.
  tb.peer(Mode::C).inject_frame(fc[0], at);
  ASSERT_TRUE(tb.run_until(
      [&] {
        return !tb.delivered(Mode::A).empty() && !tb.delivered(Mode::B).empty() &&
               !tb.delivered(Mode::C).empty();
      },
      400'000'000));
  EXPECT_EQ(tb.delivered(Mode::A)[0], ma);
  EXPECT_EQ(tb.delivered(Mode::B)[0], mb);
  EXPECT_EQ(tb.delivered(Mode::C)[0], mc);
}

TEST(SystemThreeModes, SustainedConcurrentTrafficMeetsTiming) {
  // Several packets per mode, interleaved — protocol constraints must hold
  // throughout (every WiFi/UWB frame individually ACKed implies each ACK met
  // its deadline at the peer, and vice versa).
  Testbench tb;
  for (int i = 0; i < 3; ++i) {
    tb.send_async(Mode::A, payload(600, static_cast<u8>(i)));
    tb.send_async(Mode::B, payload(600, static_cast<u8>(i + 10)));
    tb.send_async(Mode::C, payload(600, static_cast<u8>(i + 20)));
  }
  ASSERT_TRUE(tb.wait_tx_count(Mode::A, 3, 2'000'000'000));
  ASSERT_TRUE(tb.wait_tx_count(Mode::B, 3, 2'000'000'000));
  ASSERT_TRUE(tb.wait_tx_count(Mode::C, 3, 2'000'000'000));
  EXPECT_EQ(tb.tx_successes(Mode::A), 3u);
  EXPECT_EQ(tb.tx_successes(Mode::B), 3u);
  EXPECT_EQ(tb.tx_successes(Mode::C), 3u);
}

TEST(SystemThreeModes, PriorityOptionsPreserveCorrectness) {
  // The two "not used in the prototype" options — pre-emptive ISRs (§4.1.1)
  // and PrQreq-driven RFU wake order (Table 3.4) — must not change protocol
  // outcomes, only latency distribution.
  DrmpConfig cfg = DrmpConfig::standard_three_mode();
  cfg.cpu_preemptive = true;
  cfg.rfu_queue_priority = true;
  Testbench tb(cfg);
  for (int i = 0; i < 2; ++i) {
    tb.send_async(Mode::A, payload(900, static_cast<u8>(i)));
    tb.send_async(Mode::B, payload(900, static_cast<u8>(i + 10)));
    tb.send_async(Mode::C, payload(900, static_cast<u8>(i + 20)));
  }
  ASSERT_TRUE(tb.wait_tx_count(Mode::A, 2, 2'000'000'000));
  ASSERT_TRUE(tb.wait_tx_count(Mode::B, 2, 2'000'000'000));
  ASSERT_TRUE(tb.wait_tx_count(Mode::C, 2, 2'000'000'000));
  EXPECT_EQ(tb.tx_successes(Mode::A), 2u);
  EXPECT_EQ(tb.tx_successes(Mode::B), 2u);
  EXPECT_EQ(tb.tx_successes(Mode::C), 2u);
}

// ------------------------------------------ scope traces (Figs. 5.5-5.7)

struct ScopeRun {
  Cycle end = 0;
  u64 ticks_executed = 0;
  std::vector<double> tx_latencies_us;
  std::vector<Bytes> delivered;
  std::vector<std::string> channel_names;
  std::map<std::string, std::vector<sim::TraceEvent>> th_channels;  ///< thr.* / thm.*
};

// One MSDU transmitted on every mode at once, then one received per mode.
ScopeRun run_three_mode_tx_rx(bool trace, bool idle_skip) {
  DrmpConfig cfg = DrmpConfig::standard_three_mode();
  cfg.trace_enabled = trace;
  Testbench tb(cfg);
  tb.scheduler().set_idle_skip(idle_skip);
  const std::array<Mode, kNumModes> modes = {Mode::A, Mode::B, Mode::C};
  for (Mode m : modes) tb.send_async(m, payload(600, static_cast<u8>(index(m) + 1)));
  for (Mode m : modes) EXPECT_TRUE(tb.wait_tx_count(m, 1, 400'000'000));
  ScopeRun r;
  for (Mode m : modes) {
    const auto got =
        tb.inject_and_wait(m, payload(400, static_cast<u8>(index(m) + 10)), 1, 80'000'000);
    EXPECT_TRUE(got.has_value());
    r.delivered.push_back(got.value_or(Bytes{}));
    const auto& lat = tb.tx_latencies_us(m);
    r.tx_latencies_us.insert(r.tx_latencies_us.end(), lat.begin(), lat.end());
  }
  r.end = tb.scheduler().now();
  r.ticks_executed = tb.scheduler().profile().ticks_executed;
  const sim::TraceRecorder& tr = tb.device().trace();
  r.channel_names = tr.channel_names();
  for (Mode m : modes) {
    for (const char* chart : {"thr.", "thm."}) {
      const std::string name = chart + std::string(to_string(m));
      if (tr.has_channel(name)) r.th_channels[name] = tr.channel_const(name).events();
    }
  }
  return r;
}

TEST(ScopeTrace, TracingNeverChangesTheScheduleAndMatchesEveryTick) {
  const ScopeRun on = run_three_mode_tx_rx(/*trace=*/true, /*idle_skip=*/true);
  const ScopeRun off = run_three_mode_tx_rx(/*trace=*/false, /*idle_skip=*/true);
  const ScopeRun every_tick = run_three_mode_tx_rx(/*trace=*/true, /*idle_skip=*/false);

  // Switching the scope trace on executes exactly the untraced schedule.
  EXPECT_EQ(on.ticks_executed, off.ticks_executed);
  EXPECT_EQ(on.end, off.end);
  EXPECT_EQ(on.end, every_tick.end);

  // Stamped from the scheduler clock, the statechart channels of the skipping
  // run are event-for-event those of the every-tick reference.
  ASSERT_EQ(on.th_channels.size(), 2 * kNumModes);
  for (const auto& [name, events] : on.th_channels) {
    ASSERT_TRUE(every_tick.th_channels.count(name)) << name;
    EXPECT_EQ(events, every_tick.th_channels.at(name)) << name;
    ASSERT_GE(events.size(), 3u) << name << ": expected real statechart activity";
    EXPECT_EQ(events.front().cycle, 1u) << name << ": initial state stamped at cycle 1";
  }
  EXPECT_EQ(on.th_channels.at("thr.A").front().value, static_cast<int>(irc::ThRState::Idle));
}

TEST(ScopeTrace, UntracedDeviceCreatesNoChannelsAndRunsTheSame) {
  const ScopeRun traced = run_three_mode_tx_rx(/*trace=*/true, /*idle_skip=*/true);
  const ScopeRun untraced = run_three_mode_tx_rx(/*trace=*/false, /*idle_skip=*/true);
  EXPECT_TRUE(untraced.channel_names.empty());
  EXPECT_FALSE(traced.channel_names.empty());
  EXPECT_EQ(untraced.end, traced.end);
  EXPECT_EQ(untraced.tx_latencies_us, traced.tx_latencies_us);
  EXPECT_EQ(untraced.delivered, traced.delivered);
}

}  // namespace
}  // namespace drmp
