#include <stdexcept>

#include <gtest/gtest.h>

#include "canbus/arbitration.hpp"
#include "canbus/crc15.hpp"
#include "canbus/frame.hpp"
#include "canbus/j1939.hpp"
#include "canbus/scheduler.hpp"
#include "canbus/stuffing.hpp"
#include "oracles.hpp"

namespace {

using canbus::BitVector;
using canbus::DataFrame;
using canbus::J1939Id;

TEST(J1939, PackUnpackRoundTrip) {
  const J1939Id id{3, 0xF004, 0x17};
  EXPECT_EQ(oracle::unpack_j1939(id.pack()), id);
}

TEST(J1939, FieldPlacementMatchesFig24) {
  // priority | 18-bit PGN | 8-bit SA.
  const J1939Id id{7, 0x3FFFF, 0xFF};
  EXPECT_EQ(id.pack(), 0x1FFFFFFFu);
  const J1939Id sa_only{0, 0, 0xAB};
  EXPECT_EQ(sa_only.pack(), 0xABu);
  const J1939Id prio_only{1, 0, 0};
  EXPECT_EQ(prio_only.pack(), 1u << 26);
}

TEST(J1939, RejectsOversizedFields) {
  EXPECT_THROW((J1939Id{8, 0, 0}).pack(), std::invalid_argument);
  EXPECT_THROW((J1939Id{0, 0x40000, 0}).pack(), std::invalid_argument);
}

TEST(Crc15, EmptyInputIsZero) { EXPECT_EQ(canbus::crc15({}), 0u); }

TEST(Crc15, SingleOneBit) {
  // LFSR: one '1' bit shifts in polynomial 0x4599.
  EXPECT_EQ(canbus::crc15({true}), 0x4599u);
}

TEST(Crc15, DetectsSingleBitFlips) {
  BitVector bits(64, false);
  for (std::size_t i = 0; i < bits.size(); i += 7) bits[i] = true;
  const auto crc = canbus::crc15(bits);
  for (std::size_t flip = 0; flip < bits.size(); ++flip) {
    BitVector corrupted = bits;
    corrupted[flip] = !corrupted[flip];
    EXPECT_NE(canbus::crc15(corrupted), crc) << "missed flip at " << flip;
  }
}

TEST(Crc15, AppendWritesFifteenBits) {
  BitVector bits = {true, false, true};
  BitVector out;
  canbus::append_crc15(bits, out);
  EXPECT_EQ(out.size(), 15u);
}

TEST(Stuffing, InsertsAfterFiveEqualBits) {
  const BitVector in(5, false);
  const BitVector out = canbus::stuff(in);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_TRUE(out[5]);  // complement inserted
}

TEST(Stuffing, StuffBitStartsNewRun) {
  // 5 zeros + stuff(1) + 4 ones would make a run of 5 ones with the stuff
  // bit; the 5th consecutive '1' then triggers another stuff bit.
  BitVector in(5, false);
  for (int i = 0; i < 4; ++i) in.push_back(true);
  const BitVector out = canbus::stuff(in);
  // 0,0,0,0,0,S(1),1,1,1,1 -> the stuff bit plus 4 ones is a run of 5
  // => one more stuff bit (0) appended.
  ASSERT_EQ(out.size(), 11u);
  EXPECT_FALSE(out[10]);
}

TEST(Stuffing, RoundTripsRandomPayloads) {
  std::mt19937 gen(3);
  for (int trial = 0; trial < 200; ++trial) {
    BitVector in(1 + gen() % 120);
    for (auto&& b : in) b = (gen() & 1) != 0;
    const auto out = oracle::destuff(canbus::stuff(in));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, in);
  }
}

TEST(Stuffing, DestuffRejectsSixEqualBits) {
  EXPECT_FALSE(oracle::destuff(BitVector(6, true)).has_value());
}

TEST(Stuffing, CountMatchesSizeDelta) {
  // 17 equal bits: a stuff bit after each of the first three runs of five.
  const BitVector in(17, false);
  EXPECT_EQ(canbus::stuff(in).size() - in.size(), 3u);
}

TEST(Frame, UnstuffedLayoutMatchesTable21) {
  DataFrame f;
  f.id = J1939Id{0, 0, 0};
  f.payload = {};
  const BitVector bits = canbus::build_unstuffed_bits(f);
  namespace fb = canbus::frame_bits;
  EXPECT_FALSE(bits[fb::kSof.value()]);
  EXPECT_TRUE(bits[fb::kSrr.value()]);
  EXPECT_TRUE(bits[fb::kIde.value()]);
  EXPECT_FALSE(bits[fb::kRtr.value()]);
  // Empty payload: SOF..CRC is 39+15 bits, plus the 10-bit tail.
  EXPECT_EQ(bits.size(), 39u + 15u + 10u);
  // EOF: last 7 bits recessive.
  for (std::size_t i = bits.size() - 7; i < bits.size(); ++i) {
    EXPECT_TRUE(bits[i]);
  }
}

TEST(Frame, SourceAddressOccupiesBits24To31) {
  // SA = last 8 bits of the 29-bit ID = unstuffed bits 24..31, MSB first.
  DataFrame f;
  f.id = J1939Id{0, 0, 0xA5};
  const BitVector bits = canbus::build_unstuffed_bits(f);
  std::uint32_t sa = 0;
  for (std::size_t i = canbus::frame_bits::kSourceAddrFirst.value();
       i <= canbus::frame_bits::kSourceAddrLast.value(); ++i) {
    sa = (sa << 1) | (bits[i] ? 1u : 0u);
  }
  EXPECT_EQ(sa, 0xA5u);
}

TEST(Frame, DlcEncodesPayloadLength) {
  DataFrame f;
  f.id = J1939Id{0, 0, 0};
  f.payload = {1, 2, 3};
  const BitVector bits = canbus::build_unstuffed_bits(f);
  std::uint32_t dlc = 0;
  for (std::size_t i = canbus::frame_bits::kDlcFirst.value();
       i < (canbus::frame_bits::kDlcFirst+4).value(); ++i) {
    dlc = (dlc << 1) | (bits[i] ? 1u : 0u);
  }
  EXPECT_EQ(dlc, 3u);
}

TEST(Frame, RejectsOversizedPayload) {
  DataFrame f;
  f.payload.resize(9);
  EXPECT_THROW(canbus::build_wire_bits(f), std::invalid_argument);
}

TEST(Frame, WireRoundTripsRandomFrames) {
  std::mt19937 gen(17);
  for (int trial = 0; trial < 300; ++trial) {
    DataFrame f;
    f.id = J1939Id{static_cast<std::uint8_t>(gen() % 8),
                   static_cast<std::uint32_t>(gen() % 0x40000),
                   static_cast<std::uint8_t>(gen() % 256)};
    f.payload.resize(gen() % 9);
    for (auto& b : f.payload) b = static_cast<std::uint8_t>(gen() % 256);
    const auto parsed = oracle::parse_wire_bits(canbus::build_wire_bits(f));
    ASSERT_TRUE(parsed.has_value()) << "trial " << trial;
    EXPECT_EQ(*parsed, f);
  }
}

TEST(Frame, ParseRejectsCorruptedCrc) {
  DataFrame f;
  f.id = J1939Id{3, 1234, 56};
  f.payload = {0xDE, 0xAD};
  BitVector wire = canbus::build_wire_bits(f);
  // Flip a payload bit (inside the stuffed region, before the tail).
  wire[45] = !wire[45];
  EXPECT_FALSE(oracle::parse_wire_bits(wire).has_value());
}

TEST(Frame, ParseRejectsTruncation) {
  DataFrame f;
  f.id = J1939Id{3, 1234, 56};
  f.payload = {1};
  BitVector wire = canbus::build_wire_bits(f);
  wire.resize(wire.size() / 2);
  EXPECT_FALSE(oracle::parse_wire_bits(wire).has_value());
}

TEST(Frame, WireBitCountIncludesStuffingAndTail) {
  DataFrame f;
  f.id = J1939Id{0, 0, 0};  // long runs of zeros => stuff bits
  f.payload = {};
  const std::size_t unstuffed = canbus::build_unstuffed_bits(f).size();
  EXPECT_GT(canbus::wire_bit_count(f), unstuffed);
}

TEST(Arbitration, LowestIdWins) {
  DataFrame hi;
  hi.id = J1939Id{0, 0, 1};  // numerically smaller => dominant earlier
  DataFrame lo;
  lo.id = J1939Id{7, 0x3FFFF, 0xFF};
  const auto result = canbus::arbitrate({lo, hi});
  EXPECT_EQ(result.winner, 1u);
}

TEST(Arbitration, PriorityFieldDecidesFirst) {
  DataFrame a;
  a.id = J1939Id{2, 0, 0xFF};
  DataFrame b;
  b.id = J1939Id{3, 0, 0x00};
  EXPECT_EQ(canbus::arbitrate({a, b}).winner, 0u);
}

TEST(Arbitration, LoserRecordsBackOffBit) {
  DataFrame a;
  a.id = J1939Id{0, 0, 0};
  DataFrame b;
  b.id = J1939Id{0, 0, 1};  // differs only in the last SA bit
  const auto result = canbus::arbitrate({a, b});
  EXPECT_EQ(result.winner, 0u);
  // SA LSB is unstuffed bit 31; the loser backs off exactly there.
  EXPECT_EQ(result.lost_at_bit[1], 31u);
  EXPECT_GT(result.lost_at_bit[0], result.lost_at_bit[1]);
}

TEST(Arbitration, SingleContenderWins) {
  DataFrame a;
  a.id = J1939Id{1, 2, 3};
  EXPECT_EQ(canbus::arbitrate({a}).winner, 0u);
}

TEST(Arbitration, ManyContendersAgreeWithNumericOrder) {
  std::vector<DataFrame> frames;
  for (int sa_value : {0x44, 0x11, 0x99, 0x22}) {
    const auto sa = static_cast<std::uint8_t>(sa_value);
    DataFrame f;
    f.id = J1939Id{3, 100, sa};
    frames.push_back(f);
  }
  EXPECT_EQ(canbus::arbitrate(frames).winner, 1u);  // sa 0x11
}

TEST(Arbitration, RejectsDuplicatesAndEmpty) {
  DataFrame a;
  a.id = J1939Id{1, 2, 3};
  EXPECT_THROW(canbus::arbitrate({}), std::invalid_argument);
  EXPECT_THROW(canbus::arbitrate({a, a}), std::invalid_argument);
}

TEST(Scheduler, ProducesRequestedCount) {
  canbus::PeriodicMessage m;
  m.id = J1939Id{3, 10, 1};
  m.period_s = 0.01;
  canbus::Scheduler sched({m}, units::BitRateBps{250e3}, stats::Rng(1));
  EXPECT_EQ(sched.run(100).size(), 100u);
}

TEST(Scheduler, TimestampsMonotonicallyIncrease) {
  canbus::PeriodicMessage a;
  a.id = J1939Id{3, 10, 1};
  a.period_s = 0.01;
  canbus::PeriodicMessage b;
  b.id = J1939Id{6, 20, 2};
  b.period_s = 0.013;
  b.node = 1;
  canbus::Scheduler sched({a, b}, units::BitRateBps{250e3}, stats::Rng(2));
  const auto txs = sched.run(200);
  for (std::size_t i = 1; i < txs.size(); ++i) {
    EXPECT_GE(txs[i].start_s, txs[i - 1].start_s);
  }
}

TEST(Scheduler, MessageMixTracksPeriodRatio) {
  canbus::PeriodicMessage fast;
  fast.id = J1939Id{3, 10, 1};
  fast.period_s = 0.01;
  canbus::PeriodicMessage slow;
  slow.id = J1939Id{6, 20, 2};
  slow.period_s = 0.1;
  slow.node = 1;
  canbus::Scheduler sched({fast, slow}, units::BitRateBps{250e3},
                          stats::Rng(3));
  const auto txs = sched.run(1100);
  std::size_t fast_count = 0;
  for (const auto& tx : txs) fast_count += (tx.node == 0);
  // 10:1 period ratio => ~10/11 of messages from the fast sender.
  EXPECT_NEAR(static_cast<double>(fast_count) /
                  static_cast<double>(txs.size()),
              10.0 / 11.0,
              0.05);
}

TEST(Scheduler, HigherPriorityWinsContention) {
  // Two messages always released together: the lower ID must never starve
  // behind the higher one (arbitration decides, then the loser retries).
  canbus::PeriodicMessage hi;
  hi.id = J1939Id{0, 0, 0};
  hi.period_s = 0.005;
  canbus::PeriodicMessage lo;
  lo.id = J1939Id{7, 0x3FFFF, 0xFF};
  lo.period_s = 0.005;
  lo.node = 1;
  canbus::Scheduler sched({hi, lo}, units::BitRateBps{250e3}, stats::Rng(4));
  const auto txs = sched.run(100);
  std::size_t hi_count = 0;
  for (const auto& tx : txs) hi_count += (tx.node == 0);
  EXPECT_GT(hi_count, 30u);
  EXPECT_LT(hi_count, 70u);  // both still get through
}

TEST(Scheduler, ValidatesConfiguration) {
  canbus::PeriodicMessage m;
  m.id = J1939Id{3, 10, 1};
  m.period_s = 0.0;
  EXPECT_THROW(canbus::Scheduler({}, units::BitRateBps{250e3}, stats::Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(canbus::Scheduler({m}, units::BitRateBps{250e3}, stats::Rng(1)),
               std::invalid_argument);
  m.period_s = 0.1;
  EXPECT_THROW(canbus::Scheduler({m}, units::BitRateBps{0.0}, stats::Rng(1)),
               std::invalid_argument);
  m.payload_len = 9;
  EXPECT_THROW(canbus::Scheduler({m}, units::BitRateBps{250e3}, stats::Rng(1)),
               std::invalid_argument);
}

TEST(Scheduler, DeterministicWithSameSeed) {
  canbus::PeriodicMessage m;
  m.id = J1939Id{3, 10, 1};
  m.period_s = 0.01;
  m.jitter_s = 0.001;
  canbus::Scheduler s1({m}, units::BitRateBps{250e3}, stats::Rng(42));
  canbus::Scheduler s2({m}, units::BitRateBps{250e3}, stats::Rng(42));
  const auto a = s1.run(50);
  const auto b = s2.run(50);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].start_s, b[i].start_s);
    EXPECT_EQ(a[i].frame, b[i].frame);
  }
}

}  // namespace
