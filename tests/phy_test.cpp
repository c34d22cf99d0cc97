// PHY boundary tests: translational buffers, medium occupancy/CCA timing,
// PHY transmit gating (earliest-start), and the scripted peer's behaviours.
#include <gtest/gtest.h>

#include "mac/wifi_frames.hpp"
#include "phy/buffers.hpp"
#include "phy/channel.hpp"
#include "phy/phy_model.hpp"
#include "sim/scheduler.hpp"

namespace drmp::phy {
namespace {

TEST(TxBuffer, WordAndBytePushesAssembleFrame) {
  TxBuffer buf;
  buf.begin_frame();
  buf.push_word(0x44332211);
  buf.push_byte(0x55);
  buf.end_frame(5, 1234);
  ASSERT_TRUE(buf.frame_pending());
  const auto e = buf.pop();
  EXPECT_EQ(e.bytes, (Bytes{0x11, 0x22, 0x33, 0x44, 0x55}));
  EXPECT_EQ(e.earliest_start, 1234u);
  EXPECT_FALSE(buf.frame_pending());
}

TEST(TxBuffer, EndFrameTruncatesWordPadding) {
  TxBuffer buf;
  buf.begin_frame();
  buf.push_word(0xAABBCCDD);
  buf.push_word(0x11223344);
  buf.end_frame(6, 0);  // 8 bytes pushed, 6 valid.
  EXPECT_EQ(buf.pop().bytes.size(), 6u);
}

TEST(TxBuffer, QueuesMultipleFramesFifo) {
  TxBuffer buf;
  for (int i = 0; i < 3; ++i) {
    buf.begin_frame();
    buf.push_byte(static_cast<u8>(i));
    buf.end_frame(1, 0);
  }
  EXPECT_EQ(buf.depth(), 3u);
  EXPECT_EQ(buf.pop().bytes[0], 0);
  EXPECT_EQ(buf.pop().bytes[0], 1);
  EXPECT_EQ(buf.pop().bytes[0], 2);
}

TEST(RxBuffer, PeekWordPacksLittleEndian) {
  RxBuffer buf;
  buf.deliver({0x01, 0x02, 0x03, 0x04, 0x05}, 42);
  ASSERT_TRUE(buf.frame_ready());
  EXPECT_EQ(buf.frame_bytes(), 5u);
  EXPECT_EQ(buf.frame_rx_end(), 42u);
  EXPECT_EQ(buf.peek_word(0), 0x04030201u);
  EXPECT_EQ(buf.peek_word(1), 0x00000005u);  // Zero padded.
}

class MediumTest : public ::testing::Test {
 protected:
  MediumTest() : sched(200e6), tb(200e6), medium(mac::Protocol::WiFi, tb) {
    sched.add(medium, "medium");
  }
  sim::Scheduler sched;
  sim::TimeBase tb;
  Medium medium;
};

TEST_F(MediumTest, FrameOccupiesAirForItsByteTime) {
  // 1000 bytes at 11 Mbps = 727.3 us = 145455 cycles @200 MHz.
  sched.run_cycles(10);
  const Cycle end = medium.begin_tx(Bytes(1000, 0xAA), 1);
  EXPECT_NEAR(static_cast<double>(end - medium.now()), 1000.0 * 8.0 / 11e6 * 200e6, 2.0);
  EXPECT_TRUE(medium.busy());
  sched.run_until([&] { return !medium.busy(); }, 200000);
  EXPECT_GE(medium.now(), end);
}

TEST_F(MediumTest, IdleForTracksGap) {
  medium.begin_tx(Bytes(10, 1), 1);
  sched.run_until([&] { return !medium.busy(); }, 100000);
  const Cycle idle0 = medium.idle_for();
  sched.run_cycles(100);
  EXPECT_EQ(medium.idle_for(), idle0 + 100);
}

TEST_F(MediumTest, DeliversToClientsExceptSource) {
  struct Sink : MediumClient {
    int got = 0;
    void on_frame(const Bytes&, Cycle, int source) override {
      if (source != 7) ++got;
    }
  } sink;
  medium.attach(sink);
  medium.begin_tx(Bytes(20, 2), 7);   // Own frame: filtered by the sink.
  sched.run_until([&] { return !medium.busy(); }, 100000);
  sched.run_cycles(2);
  EXPECT_EQ(sink.got, 0);
  medium.begin_tx(Bytes(20, 2), 9);
  sched.run_until([&] { return !medium.busy(); }, 100000);
  sched.run_cycles(2);
  EXPECT_EQ(sink.got, 1);
}

TEST(MediumTiming, HeldReferenceIsNotOverwrittenByAnotherMedium) {
  // BackoffRfu::on_execute holds timing() across its body: a later call on
  // another band's medium must not change the values it reads.
  const sim::TimeBase tb(200e6);
  const Medium wifi(mac::Protocol::WiFi, tb);
  const Medium wimax(mac::Protocol::WiMax, tb);
  const mac::ProtocolTiming& t = wifi.timing();
  EXPECT_EQ(wimax.timing().line_rate_bps, 20e6);
  EXPECT_EQ(t.sifs_us, 10.0);
  EXPECT_EQ(t.line_rate_bps, 11e6);
}

TEST(PhyTxTest, HonoursEarliestStart) {
  sim::Scheduler sched(200e6);
  sim::TimeBase tb(200e6);
  Medium medium(mac::Protocol::WiFi, tb);
  TxBuffer buf;
  PhyTx ptx(buf, medium, 1);
  sched.add(medium, "m");
  sched.add(ptx, "ptx");

  buf.begin_frame();
  buf.push_byte(0xAB);
  buf.end_frame(1, 5000);  // Not before cycle 5000.
  sched.run_cycles(1000);
  EXPECT_EQ(ptx.frames_sent(), 0u);
  sched.run_until([&] { return ptx.frames_sent() == 1; }, 100000);
  EXPECT_GE(ptx.last_tx_start(), 5000u);
  EXPECT_LE(ptx.last_tx_start(), 5002u);
}

TEST(PhyTxTest, DefersWhileMediumBusy) {
  sim::Scheduler sched(200e6);
  sim::TimeBase tb(200e6);
  Medium medium(mac::Protocol::WiFi, tb);
  TxBuffer buf;
  PhyTx ptx(buf, medium, 1);
  sched.add(medium, "m");
  sched.add(ptx, "ptx");

  sched.run_cycles(1);
  const Cycle other_end = medium.begin_tx(Bytes(100, 1), 99);  // Foreign frame.
  buf.begin_frame();
  buf.push_byte(0x01);
  buf.end_frame(1, 0);
  sched.run_until([&] { return ptx.frames_sent() == 1; }, 1'000'000);
  EXPECT_GE(ptx.last_tx_start(), other_end);
}

TEST(ScriptedPeerTest, AcksWifiDataAfterSifs) {
  sim::Scheduler sched(200e6);
  sim::TimeBase tb(200e6);
  Medium medium(mac::Protocol::WiFi, tb);
  ScriptedPeer peer(medium, tb, 100);
  sched.add(medium, "m");
  sched.add(peer, "peer");

  struct Sink : MediumClient {
    Bytes last;
    Cycle at = 0;
    void on_frame(const Bytes& f, Cycle end, int source) override {
      if (source == 100) {
        last = f;
        at = end;
      }
    }
  } sink;
  medium.attach(sink);

  mac::wifi::DataHeader h;
  h.addr2 = mac::MacAddr::from_u64(0x112233445566ull);
  const Bytes mpdu = mac::wifi::build_data_mpdu(h, Bytes(50, 3));
  sched.run_cycles(1);
  const Cycle data_end = medium.begin_tx(mpdu, 1);
  sched.run_until([&] { return !sink.last.empty(); }, 1'000'000);
  ASSERT_FALSE(sink.last.empty());
  EXPECT_TRUE(mac::wifi::is_ack(sink.last, h.addr2));
  // ACK started exactly SIFS (2000 cycles) after the data frame ended.
  const Cycle ack_air = medium.frame_air_cycles(sink.last.size());
  EXPECT_NEAR(static_cast<double>(sink.at - ack_air - data_end), 2000.0, 3.0);
}

TEST(ScriptedPeerTest, DropInjectionSuppressesAck) {
  sim::Scheduler sched(200e6);
  sim::TimeBase tb(200e6);
  Medium medium(mac::Protocol::WiFi, tb);
  ScriptedPeer peer(medium, tb, 100);
  peer.set_drop_every(1);  // Drop everything.
  sched.add(medium, "m");
  sched.add(peer, "peer");

  mac::wifi::DataHeader h;
  sched.run_cycles(1);
  medium.begin_tx(mac::wifi::build_data_mpdu(h, Bytes(10, 1)), 1);
  sched.run_cycles(100000);
  EXPECT_EQ(peer.acks_sent(), 0u);
  EXPECT_EQ(peer.frames_dropped(), 1u);
  EXPECT_EQ(peer.received_data_frames().size(), 1u);  // Seen, not ACKed.
}

TEST(ScriptedPeerTest, IgnoresCorruptFramesOnAckPath) {
  sim::Scheduler sched(200e6);
  sim::TimeBase tb(200e6);
  Medium medium(mac::Protocol::WiFi, tb);
  ScriptedPeer peer(medium, tb, 100);
  sched.add(medium, "m");
  sched.add(peer, "peer");

  mac::wifi::DataHeader h;
  Bytes mpdu = mac::wifi::build_data_mpdu(h, Bytes(10, 1));
  mpdu[30] ^= 0xFF;  // Corrupt -> FCS fails -> no ACK.
  sched.run_cycles(1);
  medium.begin_tx(mpdu, 1);
  sched.run_cycles(100000);
  EXPECT_EQ(peer.acks_sent(), 0u);
}

}  // namespace
}  // namespace drmp::phy
