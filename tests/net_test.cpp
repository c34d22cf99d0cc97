// net::ContendedMedium unit tests: overlap semantics (collision marking,
// drop vs garbled delivery), carrier-sense detection latency (the collision
// window), the capture effect, per-source airtime/collision accounting, the
// point-to-point backend's defined hard error on overlap (which used to be
// a Debug-only assert), and the hidden-node machinery: per-station
// audibility matrices, per-listener CCA/collision/delivery, and the NAV +
// RTS/CTS rescue of the classic hidden-pair topology.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

#include "mac/wifi_frames.hpp"
#include "net/audibility.hpp"
#include "net/contended_medium.hpp"
#include "scenario/scenario_engine.hpp"
#include "sim/scheduler.hpp"

namespace drmp::net {
namespace {

struct Sink : phy::MediumClient {
  std::vector<Bytes> frames;
  std::vector<int> sources;
  void on_frame(const Bytes& f, Cycle, int source) override {
    frames.push_back(f);
    sources.push_back(source);
  }
};

Bytes pattern_frame(std::size_t n, u8 seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<u8>(seed + i * 3);
  return b;
}

class ContendedMediumTest : public ::testing::Test {
 protected:
  ContendedMediumTest() : tb(200e6), sched(200e6) {}

  ContendedMedium& make(ContendedMedium::Params p = {}) {
    medium = std::make_unique<ContendedMedium>(mac::Protocol::WiFi, tb, p);
    medium->attach(sink);
    sched.add(*medium, "medium", sim::Scheduler::kStageMedium);
    return *medium;
  }

  sim::TimeBase tb;
  sim::Scheduler sched;
  std::unique_ptr<ContendedMedium> medium;
  Sink sink;
};

TEST_F(ContendedMediumTest, CleanTransmissionDeliversIntactWithAirtime) {
  ContendedMedium& m = make();
  const Bytes f = pattern_frame(100, 7);
  const Cycle end = m.begin_tx(f, 1);
  sched.run_cycles(end + 2);
  ASSERT_EQ(sink.frames.size(), 1u);
  EXPECT_EQ(sink.frames[0], f);
  EXPECT_EQ(sink.sources[0], 1);
  EXPECT_EQ(m.collided_frames(), 0u);
  const auto ss = m.source(1);
  EXPECT_EQ(ss.frames, 1u);
  EXPECT_EQ(ss.collisions, 0u);
  EXPECT_EQ(ss.airtime, m.frame_air_cycles(f.size()));
}

TEST_F(ContendedMediumTest, CcaDetectsCarrierOnlyAfterLatency) {
  ContendedMedium& m = make();
  const Cycle latency = m.cca_latency_cycles();
  ASSERT_GT(latency, 0u);  // WiFi default: one 20 us slot.
  m.begin_tx(pattern_frame(400, 1), 1);
  EXPECT_TRUE(m.busy());        // Ground truth: instantly on the air.
  EXPECT_FALSE(m.cca_busy());   // ... but not yet audible.
  sched.run_cycles(latency - 1);
  EXPECT_FALSE(m.cca_busy());
  sched.run_cycles(1);
  EXPECT_TRUE(m.cca_busy());  // Audible exactly at the latency boundary.
  EXPECT_EQ(m.cca_idle_for(), 0u);
}

TEST_F(ContendedMediumTest, OverlapCollidesAllPartiesAndDropsFrames) {
  ContendedMedium& m = make();
  m.begin_tx(pattern_frame(300, 2), 1);
  sched.run_cycles(100);  // Inside the collision window.
  const Cycle end2 = m.begin_tx(pattern_frame(300, 9), 2);
  sched.run_cycles(end2);
  EXPECT_TRUE(sink.frames.empty());  // Receivers saw only noise.
  EXPECT_EQ(m.collided_frames(), 2u);
  EXPECT_EQ(m.dropped_frames(), 2u);
  EXPECT_EQ(m.source(1).collisions, 1u);
  EXPECT_EQ(m.source(2).collisions, 1u);
  // Airtime is still accounted: the channel was physically occupied.
  EXPECT_GT(m.source(1).airtime, 0u);
  EXPECT_GT(m.source(2).airtime, 0u);
}

TEST_F(ContendedMediumTest, GarbledModeDeliversDamagedFrames) {
  ContendedMedium::Params p;
  p.deliver_garbled = true;
  ContendedMedium& m = make(p);
  const Bytes a = pattern_frame(200, 3);
  const Bytes b = pattern_frame(200, 11);
  m.begin_tx(a, 1);
  sched.run_cycles(50);
  const Cycle end2 = m.begin_tx(b, 2);
  sched.run_cycles(end2);
  ASSERT_EQ(sink.frames.size(), 2u);  // Delivered, but bit-damaged.
  EXPECT_NE(sink.frames[0], a);
  EXPECT_NE(sink.frames[1], b);
  EXPECT_EQ(m.garbled_frames(), 2u);
  EXPECT_EQ(m.dropped_frames(), 0u);
}

TEST_F(ContendedMediumTest, CaptureProtectsEstablishedFrame) {
  ContendedMedium::Params p;
  p.capture_preamble_us = 5.0;  // 1000 cycles at 200 MHz.
  ContendedMedium& m = make(p);
  const Bytes a = pattern_frame(400, 4);
  m.begin_tx(a, 1);
  sched.run_cycles(2000);  // Receivers locked onto a's preamble long ago.
  const Cycle end2 = m.begin_tx(pattern_frame(400, 12), 2);
  sched.run_cycles(end2);
  ASSERT_EQ(sink.frames.size(), 1u);  // a survived; the newcomer is lost.
  EXPECT_EQ(sink.frames[0], a);
  EXPECT_EQ(m.capture_wins(), 1u);
  EXPECT_EQ(m.collided_frames(), 1u);  // Only the late interferer.
  EXPECT_EQ(m.source(1).collisions, 0u);
  EXPECT_EQ(m.source(2).collisions, 1u);
}

TEST_F(ContendedMediumTest, LateStartWithinCaptureWindowKillsBoth) {
  ContendedMedium::Params p;
  p.capture_preamble_us = 5.0;
  ContendedMedium& m = make(p);
  m.begin_tx(pattern_frame(400, 4), 1);
  sched.run_cycles(500);  // Still inside a's preamble: no lock yet.
  const Cycle end2 = m.begin_tx(pattern_frame(400, 12), 2);
  sched.run_cycles(end2);
  EXPECT_TRUE(sink.frames.empty());
  EXPECT_EQ(m.collided_frames(), 2u);
  EXPECT_EQ(m.capture_wins(), 0u);
}

TEST_F(ContendedMediumTest, TamperStillAppliesToSurvivingFrames) {
  ContendedMedium& m = make();
  m.tamper = [](Bytes& f) {
    f[0] ^= 0xFF;
    return true;
  };
  const Bytes f = pattern_frame(120, 5);
  const Cycle end = m.begin_tx(f, 1);
  sched.run_cycles(end + 1);
  ASSERT_EQ(sink.frames.size(), 1u);
  EXPECT_NE(sink.frames[0], f);
  EXPECT_EQ(m.tampered_frames(), 1u);
}

TEST(PointToPointMedium, OverlapIsAHardErrorInEveryBuildType) {
  // Satellite of the contention work: the old assert(!busy()) compiled out
  // under NDEBUG and let Release builds overwrite an in-flight frame. The
  // point-to-point backend now throws in all build types.
  sim::TimeBase tb(200e6);
  phy::Medium m(mac::Protocol::WiFi, tb);
  m.begin_tx(Bytes(100, 0xAB), 1);
  EXPECT_TRUE(m.busy());
  EXPECT_THROW(m.begin_tx(Bytes(50, 0xCD), 2), std::logic_error);
}

TEST(PointToPointMedium, CcaViewMatchesGroundTruth) {
  sim::TimeBase tb(200e6);
  sim::Scheduler sched(200e6);
  phy::Medium m(mac::Protocol::WiFi, tb);
  sched.add(m, "medium", sim::Scheduler::kStageMedium);
  EXPECT_FALSE(m.cca_busy());
  const Cycle end = m.begin_tx(Bytes(64, 0x11), 1);
  EXPECT_TRUE(m.cca_busy());  // No detection latency on point-to-point.
  sched.run_cycles(end + 3);
  EXPECT_FALSE(m.cca_busy());
  EXPECT_EQ(m.cca_idle_for(), m.idle_for());
}

TEST(ContendedMedium, SkipIdleReproducesPerTickAccounting) {
  // Two staggered transmissions in every-tick mode vs with idle-skip on
  // (which skips the medium across the globally-quiescent mid-frame
  // stretches): occupancy, per-source airtime and the CCA latch must come
  // out bit-identical.
  sim::TimeBase tb(200e6);
  auto run = [&](bool idle_skip) {
    sim::Scheduler sched(200e6);
    sched.set_idle_skip(idle_skip);
    ContendedMedium m(mac::Protocol::WiFi, tb);
    sched.add(m, "medium", sim::Scheduler::kStageMedium);
    const Cycle end1 = m.begin_tx(Bytes(400, 0x22), 1);
    sched.run_cycles(end1 / 2);
    m.begin_tx(Bytes(200, 0x33), 2);  // Overlap: both collide.
    sched.run_cycles(end1 + m.cca_latency_cycles() + 64);
    sim::Digest d;
    d.mix(m.busy_cycles())
        .mix(m.collided_frames())
        .mix(m.dropped_frames())
        .mix(m.source(1).airtime)
        .mix(m.source(2).airtime)
        .mix(m.cca_busy() ? 1 : 0)
        .mix(m.cca_idle_for())
        .mix(m.now());
    return d.value();
  };
  EXPECT_EQ(run(false), run(true));
}

// ---- Audibility matrices (hidden nodes) ---------------------------------

TEST(AudibilityMatrix, TrivialDefaultHearsEverything) {
  AudibilityMatrix m;
  EXPECT_TRUE(m.trivial());
  EXPECT_TRUE(m.hears(0, 5));
  EXPECT_TRUE(m.hears(63, 63));
}

TEST(AudibilityMatrix, FactoriesShapeTheFootprints) {
  const AudibilityMatrix full = AudibilityMatrix::full(4);
  EXPECT_FALSE(full.trivial());
  EXPECT_TRUE(full.all_ones());

  const AudibilityMatrix hidden = AudibilityMatrix::hidden_pair(4, 0, 1);
  EXPECT_FALSE(hidden.hears(0, 1));
  EXPECT_FALSE(hidden.hears(1, 0));
  EXPECT_TRUE(hidden.hears(0, 2));
  EXPECT_TRUE(hidden.hears(2, 1));
  EXPECT_TRUE(hidden.hears(0, 0)) << "the diagonal must stay 1";

  const AudibilityMatrix chain = AudibilityMatrix::chain(4);
  EXPECT_TRUE(chain.hears(1, 2));
  EXPECT_TRUE(chain.hears(2, 2));
  EXPECT_FALSE(chain.hears(0, 2));
  EXPECT_FALSE(chain.hears(3, 1));
  // Out-of-range participants (the AP) are omnidirectional.
  EXPECT_TRUE(chain.hears(0, 99));
  EXPECT_TRUE(chain.hears(99, 3));
}

TEST_F(ContendedMediumTest, HiddenStationCcaStaysSilent) {
  ContendedMedium::Params p;
  p.audibility = AudibilityMatrix::chain(3);  // 1-2, 2-3 adjacent; 1-3 deaf.
  ContendedMedium& m = make(p);
  m.map_station(1, 0);
  m.map_station(2, 1);
  m.map_station(3, 2);
  m.begin_tx(pattern_frame(400, 1), 1);
  sched.run_cycles(m.cca_latency_cycles() + 4);
  EXPECT_TRUE(m.cca_busy()) << "global (omni) view hears everything";
  EXPECT_TRUE(m.cca_busy(2)) << "adjacent station hears it";
  EXPECT_FALSE(m.cca_busy(3)) << "hidden station's CCA stays silent";
  EXPECT_GT(m.cca_idle_for(3), 0u);
  EXPECT_EQ(m.cca_idle_for(2), 0u);
  EXPECT_GT(m.cca_clear_at(2), m.cca_clear_at(3));
}

TEST_F(ContendedMediumTest, CollisionIsAPropertyOfTheReceiver) {
  // Chain 1-2-3: stations 1 and 3 are mutually hidden and transmit over
  // each other. The middle listener (and the omni sink) sit in both
  // footprints and lose both frames; a listener that only hears station 1
  // receives its frame clean.
  ContendedMedium::Params p;
  p.audibility = AudibilityMatrix::chain(3);
  ContendedMedium& m = make(p);  // Attaches `sink` unmapped -> omni.
  m.map_station(1, 0);
  m.map_station(2, 1);
  m.map_station(3, 2);
  Sink mid, edge;
  m.attach(mid, 2);   // Matrix row 1: hears both transmitters.
  m.attach(edge, 1);  // Matrix row 0: hears station 1 (and 2) only.

  const Bytes a = pattern_frame(300, 2);
  m.begin_tx(a, 1);
  sched.run_cycles(100);  // Inside the collision window.
  const Cycle end2 = m.begin_tx(pattern_frame(300, 9), 3);
  sched.run_cycles(end2 + m.cca_latency_cycles() + 2);

  EXPECT_TRUE(sink.frames.empty()) << "omni receiver saw only noise";
  EXPECT_TRUE(mid.frames.empty()) << "both footprints -> collision";
  ASSERT_EQ(edge.frames.size(), 1u) << "single footprint -> clean delivery";
  EXPECT_EQ(edge.frames[0], a);
  EXPECT_EQ(m.collided_frames(), 2u);
  EXPECT_EQ(m.source(1).collisions, 1u);
  EXPECT_EQ(m.source(3).collisions, 1u);
  EXPECT_EQ(m.collided_airtime(),
            2 * m.frame_air_cycles(300));  // Both frames' air was wasted.
}

TEST_F(ContendedMediumTest, HiddenTransmitterDoesNotJamDisjointFootprint) {
  // Stations 1 and 3 hidden; NO omni receiver in both footprints either:
  // delivery filtering still applies per listener.
  ContendedMedium::Params p;
  p.audibility = AudibilityMatrix::chain(3);
  p.deliver_garbled = true;
  ContendedMedium& m = make(p);
  m.map_station(1, 0);
  m.map_station(2, 1);
  m.map_station(3, 2);
  Sink edge;
  m.attach(edge, 1);  // Hears station 1 only.
  m.begin_tx(pattern_frame(200, 3), 1);
  sched.run_cycles(50);
  const Cycle end2 = m.begin_tx(pattern_frame(200, 11), 3);
  sched.run_cycles(end2 + m.cca_latency_cycles() + 2);
  // The omni `sink` (both footprints) got garbled copies; `edge` got
  // station 1's frame intact.
  ASSERT_EQ(edge.frames.size(), 1u);
  EXPECT_EQ(edge.frames[0], pattern_frame(200, 3));
  EXPECT_EQ(sink.frames.size(), 2u);
  EXPECT_NE(sink.frames[0], pattern_frame(200, 3));
}

// ---- The sleeping medium ------------------------------------------------

/// A stage-0 component that acts only at scripted cycles, so a lazy medium
/// sleeps in between: it reads every view of the medium there and may start
/// a transmission, logging what it saw.
class MediumProbe : public sim::Clockable {
 public:
  MediumProbe(ContendedMedium& m, std::vector<int> listeners)
      : m_(m), listeners_(std::move(listeners)) {}

  /// Script a read at cycle `at` (kept when a transmission lands there too).
  void read_at(Cycle at) { steps_.try_emplace(at, Tx{}); }
  /// Script a read, then a begin_tx of `bytes` from `source`, at cycle `at`.
  void tx_at(Cycle at, int source, std::size_t bytes) { steps_[at] = Tx{source, bytes}; }

  void tick() override {
    const auto it = steps_.find(clock_++);
    if (it == steps_.end()) return;
    read();
    if (it->second.source < 0) return;
    if (m_.ticks_owed() > 0) ++tx_while_asleep;
    put(m_.now());  // The start cycle begin_tx stamps.
    put(m_.begin_tx(pattern_frame(it->second.bytes, 5), it->second.source));
    read();
  }
  Cycle quiescent_for() const override {
    const auto it = steps_.lower_bound(clock_);
    return it == steps_.end() ? kIdleForever : it->first - clock_;
  }
  void skip_idle(Cycle n) override { clock_ += n; }

  /// Logs the clock and every carrier view, global and per listener.
  void read() {
    put(m_.now());
    put(m_.busy());
    put(m_.idle_for());
    put(m_.cca_busy());
    put(m_.cca_idle_for());
    put(m_.cca_clear_at());
    put(m_.cca_busy_onset_at());
    for (const int l : listeners_) {
      put(m_.cca_busy(l));
      put(m_.cca_idle_for(l));
      put(m_.cca_clear_at(l));
      put(m_.cca_busy_onset_at(l));
      put(m_.eifs_pending(l));
    }
  }

  std::vector<Cycle> log;
  u64 tx_while_asleep = 0;

 private:
  struct Tx {
    int source = -1;  ///< -1: read only.
    std::size_t bytes = 0;
  };

  void put(Cycle v) { log.push_back(v); }

  ContendedMedium& m_;
  std::vector<int> listeners_;
  std::map<Cycle, Tx> steps_;
  Cycle clock_ = 0;
};

TEST(SleepingMedium, ViewsAndTxStartsMatchEveryTick) {
  // The medium sleeps between its delivery and perceived-carrier edges. A
  // probe reads its clock and every CCA view on each side of every edge and
  // on a sweep between them, and starts transmissions while it sleeps
  // (overlapping ones included). Between runs a foreign-carrier image lands
  // and the views are read again. Every reading and every stamped start must
  // equal every-tick mode's, for the trivial matrix and a hidden-node one.
  const std::vector<int> listeners = {10, 11, 12, 99, phy::Medium::kOmniListener};
  constexpr Cycle kRemoteStart = 25'100;
  constexpr Cycle kRemoteEnd = 33'000;
  for (const bool hidden : {false, true}) {
    const auto run = [&](bool idle_skip, u64* asleep, u64* medium_ticks) {
      sim::TimeBase tb(200e6);
      sim::Scheduler sched(200e6);
      sched.set_idle_skip(idle_skip);
      ContendedMedium::Params p;
      if (hidden) p.audibility = AudibilityMatrix::hidden_pair(3, 0, 1);
      p.deliver_garbled = true;
      ContendedMedium m(mac::Protocol::WiFi, tb, p);
      for (int s = 0; s < 3; ++s) m.map_station(10 + s, static_cast<std::size_t>(s));
      m.track_rx_quality();
      Sink sink;
      m.attach(sink);
      MediumProbe probe(m, listeners);
      const Cycle lat = m.cca_latency_cycles();
      const auto around = [&](Cycle edge) {
        for (const Cycle at : {edge - 1, edge, edge + 1}) probe.read_at(at);
      };
      const auto tx = [&](Cycle at, int source, std::size_t bytes) {
        probe.tx_at(at, source, bytes);
        const Cycle end = at + m.frame_air_cycles(bytes);
        around(at + lat);
        around(end);
        around(end + lat);
      };
      // The second frame overlaps the first, the third the foreign image.
      tx(500, 10, 100);
      tx(4'600, 11, 50);
      tx(30'000, 12, 80);
      tx(80'000, 10, 20);
      around(kRemoteStart + lat);
      around(kRemoteEnd + lat);
      for (Cycle at = 100; at < 100'000; at += 1'237) probe.read_at(at);
      sched.add(m, "medium", sim::Scheduler::kStageMedium);
      sched.add(probe, "probe");
      sched.run_cycles(25'000);
      probe.read();  // Between runs: now() is the scheduler's clock.
      m.begin_remote_tx(kRemoteStart, kRemoteEnd, 77);
      probe.read();
      sched.run_cycles(75'000);
      probe.read();
      *asleep = probe.tx_while_asleep;
      for (const auto& st : sched.profile().stages) {
        if (st.stage == sim::Scheduler::kStageMedium) *medium_ticks = st.executed;
      }
      probe.log.push_back(m.busy_cycles());
      probe.log.push_back(m.collided_frames());
      probe.log.push_back(sink.frames.size());
      return probe.log;
    };
    u64 asleep_ref = 0, asleep = 0, ticks_ref = 0, ticks = 0;
    const std::vector<Cycle> ref = run(false, &asleep_ref, &ticks_ref);
    EXPECT_EQ(run(true, &asleep, &ticks), ref) << "hidden=" << hidden;
    EXPECT_EQ(asleep_ref, 0u);
    EXPECT_GE(asleep, 3u) << "begin_tx must find the medium asleep";
    EXPECT_EQ(ticks_ref, 100'000u);
    EXPECT_LT(ticks, 100u) << "the medium ticks only at its edges";
  }
}

/// Records each delivered frame with the verdict its medium hands out.
struct VerdictSink : phy::MediumClient {
  explicit VerdictSink(const phy::Medium& m) : medium(m) {}
  void on_frame(const Bytes& f, Cycle, int) override {
    frames.push_back(f);
    verdicts.push_back(medium.fcs_ok(f));
    EXPECT_EQ(medium.fcs_ok(f), verdicts.back()) << "a repeated ask agrees";
  }
  const phy::Medium& medium;
  std::vector<Bytes> frames;
  std::vector<bool> verdicts;
};

TEST(SleepingMedium, FcsVerdictIsJudgedOncePerImage) {
  // Station 0's data frame is heard clean by listeners 2 and 4 and jammed
  // at listener 3, which also hears station 1's overlapping frame: one
  // delivery hands out the intact image and a garbled copy. A later frame
  // is corrupted by the fault injector for every listener, and a clean ACK
  // follows. Each listener's verdict must equal what a direct parse of its
  // bytes says, and the medium must run the full-frame CRC-32 at most once
  // per image however many listeners ask.
  sim::TimeBase tb(200e6);
  sim::Scheduler sched(200e6);
  ContendedMedium::Params p;
  p.deliver_garbled = true;
  // Listeners 2 and 4 hear station 0 only; listener 3 hears stations 0 and 1.
  AudibilityMatrix hears = AudibilityMatrix::from_bits(5, std::vector<u8>(25, 0));
  for (std::size_t s = 0; s < 5; ++s) hears.set(s, s, true);
  hears.set(2, 0, true);
  hears.set(4, 0, true);
  hears.set(3, 0, true);
  hears.set(3, 1, true);
  p.audibility = hears;
  ContendedMedium m(mac::Protocol::WiFi, tb, p);
  for (int s = 0; s < 5; ++s) m.map_station(s, static_cast<std::size_t>(s));
  VerdictSink clean_a(m), clean_b(m), jammed(m);
  m.attach(clean_a, 2);
  m.attach(jammed, 3);
  m.attach(clean_b, 4);
  sched.add(m, "medium", sim::Scheduler::kStageMedium);
  bool corrupt = false;
  m.tamper = [&](Bytes& f) {
    if (!corrupt) return false;
    f[f.size() / 2] ^= 0x10;
    return true;
  };
  mac::wifi::DataHeader h;
  h.addr1 = mac::MacAddr::from_u64(0x0A);
  h.addr2 = mac::MacAddr::from_u64(0x0B);
  const Bytes data = mac::wifi::build_data_mpdu(h, pattern_frame(300, 4));
  const auto run_past = [&](Cycle end) {
    sched.run_cycles(end + m.cca_latency_cycles() + 10 - sched.now());
  };

  const Cycle end = m.begin_tx(data, 0);
  sched.run_cycles(200);
  m.begin_tx(mac::wifi::build_data_mpdu(h, pattern_frame(40, 8)), 1);
  run_past(end);
  // Station 1's short frame reached only jammed listener 3 (one garbled
  // image); station 0's went out intact to 2 and 4 and garbled to 3.
  EXPECT_EQ(m.fcs_checks(), 3u) << "one check per image, not per listener";

  corrupt = true;
  run_past(m.begin_tx(data, 0));
  EXPECT_EQ(m.fcs_checks(), 4u) << "one corrupted image for three listeners";

  corrupt = false;
  run_past(m.begin_tx(mac::wifi::build_ack(mac::MacAddr::from_u64(0x0B), 0), 0));
  EXPECT_EQ(m.fcs_checks(), 5u);

  ASSERT_EQ(clean_a.frames.size(), 3u);
  ASSERT_EQ(clean_b.frames.size(), 3u);
  ASSERT_EQ(jammed.frames.size(), 4u);  // Both colliding frames, garbled.
  EXPECT_EQ(clean_a.verdicts, (std::vector<bool>{true, false, true}));
  EXPECT_EQ(clean_b.verdicts, clean_a.verdicts);
  EXPECT_EQ(jammed.verdicts, (std::vector<bool>{false, false, false, true}));
  for (const VerdictSink* sink : {&clean_a, &clean_b, &jammed}) {
    for (std::size_t i = 0; i < sink->frames.size(); ++i) {
      const Bytes& f = sink->frames[i];
      const auto ctl = mac::wifi::parse_control(f);
      const auto mpdu = mac::wifi::parse_data_mpdu(f);
      ASSERT_TRUE(ctl || mpdu);
      EXPECT_EQ(sink->verdicts[i], ctl ? ctl->fcs_ok : mpdu->fcs_ok) << "frame " << i;
    }
  }
  // Outside a delivery the frame itself is judged.
  EXPECT_TRUE(m.fcs_ok(data));
  Bytes bad = data;
  bad[3] ^= 1;
  EXPECT_FALSE(m.fcs_ok(bad));
}

// ---- 64-station contended cell (ROADMAP scale open item) ----------------

// Skewed offered load on one shared WiFi medium: a quarter of the stations
// push double bursts of large MSDUs, a quarter trickle small ones, the rest
// run the canonical shape.
scenario::ScenarioSpec skewed_64_station_cell(u64 seed) {
  scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::contended_wifi_cell(64, seed,
                                                  /*msdus_per_station=*/1);
  auto& stations = spec.cells[0].stations;
  for (std::size_t i = 0; i < stations.size(); ++i) {
    auto& t = stations[i].traffic[0];
    if (i % 4 == 0) {
      t.msdu_min_bytes = 700;
      t.msdu_max_bytes = 1100;
      t.burst_len = 2;
    } else if (i % 4 == 1) {
      t.msdu_min_bytes = 96;
      t.msdu_max_bytes = 160;
      t.burst_len = 1;
    }
  }
  spec.max_cycles = 900'000'000;
  return spec;
}

TEST(ContendedCell, SixtyFourStationsDrainWithContention) {
  const scenario::FleetStats serial =
      scenario::ScenarioEngine(skewed_64_station_cell(9)).run();
  EXPECT_TRUE(serial.all_drained);
  ASSERT_EQ(serial.devices.size(), 64u);
  ASSERT_EQ(serial.cells.size(), 1u);
  EXPECT_EQ(serial.cells[0].stations, 64u);
  // A 64-deep cell must actually contend...
  EXPECT_GT(serial.total_collisions(), 0u);
  EXPECT_GT(serial.total_defers(), 64u);
  // ...and still complete every station's workload through retry/CW growth.
  for (const scenario::DeviceStats& ds : serial.devices) {
    EXPECT_EQ(ds.completed[0], ds.offered[0]) << "station " << ds.station_id;
  }
  // One scheduler ticking 64 full SoCs is exactly where the ROADMAP said
  // per-cycle ticking becomes intractable; the quiescence scheduler must be
  // doing the heavy lifting here. Idle-skip and worker-pool digest
  // equivalence are pinned at smaller scale (scenario_test), where the
  // every-tick reference run is affordable; a single-cell fleet is one
  // MultiScheduler lane, so a worker-pool rerun would not add coverage.
  EXPECT_GT(serial.skip_ratio(), 10.0);
}

// ---- Hidden-node cells: NAV + RTS/CTS (ROADMAP PR-2 follow-ups) ---------

TEST(HiddenNodeCell, ExplicitAllOnesMatrixReproducesTrivialDigests) {
  // The acceptance pin for the per-listener machinery: an explicit all-ones
  // matrix routes every query through jam masks and footprint filters and
  // must reproduce the historic single-viewpoint digests bit-for-bit.
  scenario::ScenarioSpec trivial = scenario::ScenarioSpec::contended_wifi_cell(4, 1, 3);
  scenario::ScenarioSpec all_ones = trivial;
  all_ones.cells[0].contention.audibility = AudibilityMatrix::full(4);
  const scenario::FleetStats a = scenario::ScenarioEngine(trivial).run();
  const scenario::FleetStats b = scenario::ScenarioEngine(all_ones).run();
  EXPECT_EQ(a.full_digest(), b.full_digest());
  EXPECT_EQ(a.report(), b.report());
  EXPECT_GT(a.total_collisions(), 0u);  // Same physics, same contention.
}

scenario::FleetStats run_hidden_pair(u32 rts_threshold, unsigned workers,
                                     bool idle_skip) {
  scenario::ScenarioSpec spec = scenario::ScenarioSpec::contended_wifi_topology(
      2, scenario::ScenarioSpec::Reach::kHiddenPair, /*seed=*/7,
      /*msdus_per_station=*/6, rts_threshold);
  spec.worker_threads = workers;
  spec.idle_skip = idle_skip;
  return scenario::ScenarioEngine(std::move(spec)).run();
}

TEST(HiddenNodeCell, RtsCtsRescuesTheHiddenPair) {
  // The textbook result. Without the handshake two mutually-deaf stations
  // carrier-sense nothing and pile their aligned bursts onto each other at
  // the AP; with every MSDU RTS-protected, only the short RTS frames risk
  // colliding and the AP's CTS arms the other station's NAV across the
  // protected exchange.
  const scenario::FleetStats off = run_hidden_pair(/*rts_threshold=*/0, 1, true);
  const scenario::FleetStats on = run_hidden_pair(/*rts_threshold=*/1, 1, true);
  ASSERT_TRUE(off.all_drained);
  ASSERT_TRUE(on.all_drained);
  EXPECT_GT(off.total_collisions(), 0u) << "hidden pair must collide without RTS";
  EXPECT_GE(off.total_collisions(), 5 * on.total_collisions())
      << "RTS/CTS must cut collisions at least 5x (off=" << off.total_collisions()
      << " on=" << on.total_collisions() << ")";
  // The rescue mechanism itself: overheard CTS durations armed the NAV and
  // the access RFU deferred on it with silent CCA.
  EXPECT_GT(on.total_nav_defers(), 0u);
  // Every MSDU still completes (retry/CW machinery recovers the losses).
  for (const scenario::DeviceStats& ds : off.devices) {
    EXPECT_EQ(ds.completed[0], ds.offered[0]) << "station " << ds.station_id;
  }
  for (const scenario::DeviceStats& ds : on.devices) {
    EXPECT_EQ(ds.completed[0], ds.offered[0]) << "station " << ds.station_id;
  }
  // With the handshake on, the protected data frames get through: higher
  // success rate than the unprotected pile-up.
  u64 ok_on = 0, ok_off = 0;
  for (const auto& ds : on.devices) ok_on += ds.tx_ok[0];
  for (const auto& ds : off.devices) ok_off += ds.tx_ok[0];
  EXPECT_GE(ok_on, ok_off);
}

TEST(HiddenNodeCell, DigestsInvariantAcrossWorkersAndIdleSkip) {
  // The NAV wake edges and per-listener sleep bounds ride the PR-3
  // quiescence contract: worker pools and idle-skip must not perturb a
  // hidden-node cell's timeline.
  const scenario::FleetStats serial = run_hidden_pair(1, 1, true);
  const scenario::FleetStats pool = run_hidden_pair(1, 0, true);
  const scenario::FleetStats ticked = run_hidden_pair(1, 1, false);
  EXPECT_EQ(serial.full_digest(), pool.full_digest());
  EXPECT_EQ(serial.full_digest(), ticked.full_digest());
  EXPECT_EQ(serial.report(), ticked.report());
}

// ---- Asymmetric audibility (ROADMAP: "A hears B, B deaf to A") ----------

TEST(AudibilityMatrix, AsymmetricPairIsOneWay) {
  const AudibilityMatrix m = AudibilityMatrix::asymmetric_pair(3, 0, 1);
  EXPECT_FALSE(m.hears(1, 0)) << "the deaf side cannot hear the heard side";
  EXPECT_TRUE(m.hears(0, 1)) << "the heard side still hears the deaf side";
  EXPECT_TRUE(m.hears(1, 1)) << "the diagonal must stay 1";
  EXPECT_TRUE(m.hears(2, 0));
  EXPECT_TRUE(m.hears(2, 1));
}

scenario::FleetStats run_asymmetric(u32 rts_threshold, bool eifs, bool deliver_garbled) {
  scenario::ScenarioSpec spec = scenario::ScenarioSpec::contended_wifi_topology(
      2, scenario::ScenarioSpec::Reach::kAsymmetric, /*seed=*/7,
      /*msdus_per_station=*/6, rts_threshold);
  spec.cells[0].contention.deliver_garbled = deliver_garbled;
  for (auto& d : spec.cells[0].stations) {
    d.cfg.modes[0].ident.eifs_enabled = eifs;
  }
  return scenario::ScenarioEngine(std::move(spec)).run();
}

TEST(AsymmetricCell, DeafSideCollidesAndRtsCtsRecovers) {
  // Station 1 is deaf to station 0: its CCA runs straight through 0's
  // frames and it transmits over them — one-way hidden-node damage the
  // symmetric hidden pair cannot express. The AP's CTS is omnidirectional,
  // so the RTS/CTS handshake arms the deaf side's NAV and recovers it.
  const scenario::FleetStats off = run_asymmetric(/*rts_threshold=*/0, false, false);
  const scenario::FleetStats on = run_asymmetric(/*rts_threshold=*/1, false, false);
  ASSERT_TRUE(off.all_drained);
  ASSERT_TRUE(on.all_drained);
  EXPECT_GT(off.total_collisions(), 0u) << "the one-way gap must collide";
  EXPECT_GT(off.total_collisions(), 2 * on.total_collisions())
      << "RTS/CTS must recover the asymmetric link (off=" << off.total_collisions()
      << " on=" << on.total_collisions() << ")";
  EXPECT_GT(on.total_nav_defers(), 0u)
      << "the rescue must come through the deaf side's NAV";
  for (const scenario::DeviceStats& ds : off.devices) {
    EXPECT_EQ(ds.completed[0], ds.offered[0]) << "station " << ds.station_id;
  }
}

TEST(AsymmetricCell, EifsEngagesOnTheGarbledPileUps) {
  // With garbled delivery the hearing station receives the pile-ups as
  // FCS-failed frames; honouring EIFS it backs off the extra SIFS + ACK
  // air before re-contending. The workload must still drain.
  const scenario::FleetStats fs =
      run_asymmetric(/*rts_threshold=*/0, /*eifs=*/true, /*deliver_garbled=*/true);
  ASSERT_TRUE(fs.all_drained);
  EXPECT_GT(fs.total_collisions(), 0u);
  EXPECT_GT(fs.total_eifs_waits(), 0u)
      << "garbled receptions must stretch some pre-contention waits";
}

// ---- Perishable-response expiries must never strand a NAV ---------------

TEST(ExpiredResponses, ExpiriesAreCountedByKindAndStrandNoNav) {
  // Crossed grants on the mirrored pair (both stations RTS at once, both
  // answer CTS) are where perishable responses actually die: the exchange
  // falls back to the initiator's timeout, and any reservation the dead
  // response's exchange armed must simply run out — never outlive the
  // largest announceable Duration.
  // Two stations, seed 7, six 1-fragment MSDUs each, RTS before every MSDU.
  scenario::ScenarioSpec spec = scenario::ScenarioSpec::contended_wifi_cell(2, 7, 6, 1);
  spec.cells[0].access_point = false;  // Mirrored two-device topology.
  for (auto& d : spec.cells[0].stations) {
    d.cfg.modes[0].ident.nav_enabled = true;
    d.traffic[0].msdu_min_bytes = 700;
    d.traffic[0].msdu_max_bytes = 1000;
    d.traffic[0].burst_len = 1;
    d.traffic[0].max_inflight = 1;
    d.traffic[0].interval_us = 20'000.0;
  }
  const scenario::FleetStats fs = scenario::ScenarioEngine(std::move(spec)).run();
  ASSERT_TRUE(fs.all_drained)
      << "expired responses must leave recovery to the timeout machinery, "
         "not wedge the exchange";
  const sim::TimeBase tb(200e6);
  const Cycle max_reservation = tb.us_to_cycles(65535.0);
  for (const scenario::DeviceStats& ds : fs.devices) {
    EXPECT_EQ(ds.frames_expired,
              ds.expired_acks + ds.expired_ctss + ds.expired_sifs_data)
        << "station " << ds.station_id << ": the by-kind split must cover "
        << "every expiry";
    EXPECT_LE(ds.nav_hangover, max_reservation)
        << "station " << ds.station_id
        << ": a reservation outlived the largest announceable Duration";
    EXPECT_EQ(ds.completed[0], ds.offered[0]) << "station " << ds.station_id;
  }
}

}  // namespace
}  // namespace drmp::net
