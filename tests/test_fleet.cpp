// Unit and negative-path fuzz tests for the fleet layer: the hardened
// wire codec (torn / truncated / corrupted chunks must surface as counted
// errors, never as crashes or over-reads) and the FleetService bulkheads
// (dedup, quarantine → revival → eviction, checkpoint layout).
// The long-running containment scenarios live in test_fleet_chaos.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/extractor.hpp"
#include "core/trainer.hpp"
#include "dsp/trace.hpp"
#include "faults/fault.hpp"
#include "fleet/fleet_service.hpp"
#include "fleet/wire.hpp"
#include "io/checksum.hpp"
#include "io/json.hpp"
#include "linalg/simd_dispatch.hpp"
#include "linalg/simd_kernels.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/supervisor.hpp"
#include "sim/attack.hpp"
#include "sim/presets.hpp"
#include "sim/vehicle.hpp"

namespace {

using fleet::wire::Decoder;
using fleet::wire::DecodeError;
using fleet::wire::Frame;
using fleet::wire::FrameKind;
using fleet::wire::SampleFormat;

// ---------------------------------------------------------------------------
// Wire codec helpers.

Frame make_frame(std::string tenant, std::uint64_t seq, std::size_t samples) {
  Frame f;
  f.kind = FrameKind::kData;
  f.tenant = std::move(tenant);
  f.seq = seq;
  for (std::size_t i = 0; i < samples; ++i) {
    f.samples.push_back(static_cast<double>(i) * 1.5 +
                        static_cast<double>(seq) * 0.25);
  }
  return f;
}

/// Integral ADC codes in [0, 65535]: the frame a real digitizer sends,
/// which ships as u16.
Frame make_code_frame(std::string tenant, std::uint64_t seq,
                      std::size_t samples) {
  Frame f = make_frame(std::move(tenant), seq, 0);
  for (std::size_t i = 0; i < samples; ++i) {
    f.samples.push_back(static_cast<double>((i * 9973 + seq * 31) % 65536));
  }
  return f;
}

/// make_frame's fractional samples ship as f64; make_code_frame's as u16.
/// The fuzz tests below run once per encoding.
constexpr SampleFormat kFormats[] = {SampleFormat::kU16, SampleFormat::kF64};

Frame make_frame_as(SampleFormat format, std::string tenant, std::uint64_t seq,
                    std::size_t samples) {
  return format == SampleFormat::kU16
             ? make_code_frame(std::move(tenant), seq, samples)
             : make_frame(std::move(tenant), seq, samples);
}

const char* format_name(SampleFormat format) {
  return format == SampleFormat::kU16 ? "u16" : "f64";
}

/// Encoded size of `f` when its samples ship at `width` bytes each:
/// header 8, fixed payload fields 16, tenant, samples, CRC 4.
std::size_t encoded_size(const Frame& f, std::size_t width) {
  return 8 + 16 + f.tenant.size() + f.samples.size() * width + 4;
}

/// Wraps a hand-built payload in magic, length prefix and a valid CRC.
std::string wrap_payload(const std::string& payload,
                         const unsigned char* magic = fleet::wire::kMagic) {
  std::string bytes(reinterpret_cast<const char*>(magic), 4);
  for (int shift = 0; shift < 32; shift += 8) {
    bytes.push_back(static_cast<char>((payload.size() >> shift) & 0xFF));
  }
  bytes += payload;
  const std::uint32_t crc = io::crc32(payload);
  for (int shift = 0; shift < 32; shift += 8) {
    bytes.push_back(static_cast<char>((crc >> shift) & 0xFF));
  }
  return bytes;
}

/// A hand-built VPW2 payload, wrapped with a valid CRC: the fields a
/// corrupter controls, each defaulting to a consistent u16 frame.
struct HandPayload {
  std::uint8_t kind = static_cast<std::uint8_t>(FrameKind::kData);
  std::string tenant = "truck-9";
  std::optional<std::size_t> tenant_len = {};  // default: tenant.size()
  std::uint8_t format = static_cast<std::uint8_t>(SampleFormat::kU16);
  std::size_t count = 0;
  std::size_t sample_bytes = 0;
  std::optional<std::size_t> cut_to = {};  // truncate the payload here

  std::string bytes() const {
    const std::size_t len = tenant_len.value_or(tenant.size());
    std::string p;
    p.push_back(static_cast<char>(kind));
    p.push_back(static_cast<char>(len & 0xFF));
    p.push_back(static_cast<char>((len >> 8) & 0xFF));
    p += tenant;
    p.append(8, '\0');  // seq
    p.push_back(static_cast<char>(format));
    for (int shift = 0; shift < 32; shift += 8) {
      p.push_back(static_cast<char>((count >> shift) & 0xFF));
    }
    p.append(sample_bytes, '\x01');
    if (cut_to.has_value()) p.resize(*cut_to);
    return wrap_payload(p);
  }
};

std::vector<Decoder::Event> pump(Decoder& decoder) {
  std::vector<Decoder::Event> events;
  while (auto ev = decoder.next()) events.push_back(std::move(*ev));
  return events;
}

std::size_t count_frames(const std::vector<Decoder::Event>& events) {
  std::size_t n = 0;
  for (const auto& ev : events) {
    if (ev.frame.has_value()) ++n;
  }
  return n;
}

bool frames_equal(const Frame& a, const Frame& b) {
  if (a.kind != b.kind || a.tenant != b.tenant || a.seq != b.seq ||
      a.samples.size() != b.samples.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    // Bit-pattern comparison, so NaNs and signed zeros round-trip too.
    std::uint64_t lhs = 0;
    std::uint64_t rhs = 0;
    std::memcpy(&lhs, &a.samples[i], sizeof(lhs));
    std::memcpy(&rhs, &b.samples[i], sizeof(rhs));
    if (lhs != rhs) return false;
  }
  return true;
}

/// Encodes and decodes `f`, expects it back bit-identical, and returns
/// the sample format the encoder chose.
SampleFormat round_trip_format(const Frame& f) {
  const std::string bytes = fleet::wire::encode(f);
  Decoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  const auto events = pump(decoder);
  EXPECT_EQ(events.size(), 1u);
  if (events.size() != 1 || !events[0].frame.has_value()) {
    ADD_FAILURE() << "frame did not decode";
    return SampleFormat::kF64;
  }
  EXPECT_TRUE(frames_equal(*events[0].frame, f));
  const bool f64 = decoder.stats().f64_frames == 1;
  EXPECT_EQ(bytes.size(), encoded_size(f, f64 ? 8 : 2));
  return f64 ? SampleFormat::kF64 : SampleFormat::kU16;
}

TEST(Wire, RoundTripPreservesBitPatterns) {
  Frame f = make_frame("truck-7", 42, 0);
  f.samples = {0.0, -0.0, 1.5, -1e300, 5e-324,
               std::numeric_limits<double>::infinity(),
               -std::numeric_limits<double>::infinity(),
               std::numeric_limits<double>::quiet_NaN()};
  const std::string bytes = fleet::wire::encode(f);
  ASSERT_FALSE(bytes.empty());

  Decoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  const auto events = pump(decoder);
  ASSERT_EQ(events.size(), 1u);
  ASSERT_TRUE(events[0].frame.has_value());
  EXPECT_EQ(events[0].error, DecodeError::kNone);
  EXPECT_TRUE(frames_equal(*events[0].frame, f));
  EXPECT_EQ(events[0].claimed_tenant, "truck-7");
  EXPECT_EQ(decoder.stats().frames_decoded, 1u);
  EXPECT_EQ(decoder.stats().errors, 0u);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Wire, DrainFrameRoundTrips) {
  Frame f;
  f.kind = FrameKind::kDrain;
  f.tenant = "bus.0";
  f.seq = 9;
  Decoder decoder;
  const std::string bytes = fleet::wire::encode(f);
  decoder.feed(bytes.data(), bytes.size());
  const auto events = pump(decoder);
  ASSERT_EQ(events.size(), 1u);
  ASSERT_TRUE(events[0].frame.has_value());
  EXPECT_EQ(events[0].frame->kind, FrameKind::kDrain);
  EXPECT_TRUE(events[0].frame->samples.empty());
}

TEST(Wire, EncodeRefusesOverCeilingInputs) {
  Frame huge_tenant = make_frame(std::string(fleet::wire::kMaxTenantBytes + 1,
                                             't'),
                                 0, 1);
  EXPECT_TRUE(fleet::wire::encode(huge_tenant).empty());

  Frame empty_tenant = make_frame("", 0, 1);
  EXPECT_TRUE(fleet::wire::encode(empty_tenant).empty());

  Frame huge_trace = make_frame("t", 0, 0);
  huge_trace.samples.assign(fleet::wire::kMaxSamples + 1, 0.0);
  EXPECT_TRUE(fleet::wire::encode(huge_trace).empty());
}

// The core torn-uplink property: a valid frame truncated at EVERY byte
// offset must never decode, never throw and never over-read; feeding the
// remaining suffix afterwards must always produce exactly the original
// frame (per-connection reassembly).
TEST(Wire, TruncationAtEveryByteOffsetThenReassembly) {
  for (const SampleFormat format : kFormats) {
    SCOPED_TRACE(format_name(format));
    const Frame f = make_frame_as(format, "truck-1", 3, 5);
    ASSERT_EQ(round_trip_format(f), format);
    const std::string bytes = fleet::wire::encode(f);

    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      Decoder decoder;
      decoder.feed(bytes.data(), cut);
      const auto before = pump(decoder);
      EXPECT_EQ(count_frames(before), 0u) << "cut=" << cut;

      decoder.feed(bytes.data() + cut, bytes.size() - cut);
      const auto after = pump(decoder);
      ASSERT_EQ(count_frames(after), 1u) << "cut=" << cut;
      for (const auto& ev : after) {
        if (ev.frame.has_value()) {
          EXPECT_TRUE(frames_equal(*ev.frame, f));
        }
      }
      EXPECT_EQ(decoder.buffered(), 0u) << "cut=" << cut;
    }
  }
}

// A connection that dies mid-frame and never comes back must leave the
// decoder waiting or erroring — not producing a phantom frame.
TEST(Wire, TruncatedTailAloneNeverDecodes) {
  const Frame f = make_frame("truck-1", 7, 4);
  const std::string bytes = fleet::wire::encode(f);
  for (std::size_t cut = 0; cut + 1 < bytes.size(); ++cut) {
    Decoder decoder;
    decoder.feed(bytes.data(), cut);
    const auto events = pump(decoder);
    EXPECT_EQ(count_frames(events), 0u) << "cut=" << cut;
    EXPECT_EQ(decoder.stats().frames_decoded, 0u) << "cut=" << cut;
  }
}

// Flipping any byte of the length prefix must never yield the original
// frame; the decoder either reports an error or keeps waiting for the
// (hostile) longer length, and never crashes.
TEST(Wire, FlippedLengthPrefixNeverYieldsFrame) {
  const Frame f0 = make_frame("truck-1", 0, 4);
  const Frame f1 = make_frame("truck-1", 1, 4);
  const std::string b0 = fleet::wire::encode(f0);
  const std::string b1 = fleet::wire::encode(f1);

  const unsigned char masks[] = {0x01, 0x80, 0xFF};
  for (std::size_t byte = 4; byte < 8; ++byte) {  // u32 after the magic
    for (const unsigned char mask : masks) {
      std::string corrupted = b0;
      corrupted[byte] = static_cast<char>(
          static_cast<unsigned char>(corrupted[byte]) ^ mask);
      Decoder decoder;
      decoder.feed(corrupted.data(), corrupted.size());
      decoder.feed(b1.data(), b1.size());
      const auto events = pump(decoder);
      for (const auto& ev : events) {
        if (ev.frame.has_value()) {
          EXPECT_NE(ev.frame->seq, 0u)
              << "byte=" << byte << " mask=" << int{mask};
        }
      }
      // Either the corruption surfaced as a counted error, or the decoder
      // is still (safely) waiting for the inflated length.
      EXPECT_TRUE(decoder.stats().errors >= 1 || decoder.buffered() > 0)
          << "byte=" << byte << " mask=" << int{mask};
    }
  }
}

// A flipped payload byte is caught by the CRC; the following pristine
// frame always decodes (consume-and-continue, not connection death).
TEST(Wire, FlippedPayloadByteAtEveryOffsetIsCaughtByCrc) {
  for (const SampleFormat format : kFormats) {
    SCOPED_TRACE(format_name(format));
    const Frame f0 = make_frame_as(format, "truck-1", 0, 3);
    const Frame f1 = make_frame_as(format, "truck-1", 1, 3);
    ASSERT_EQ(round_trip_format(f0), format);
    const std::string b0 = fleet::wire::encode(f0);
    const std::string b1 = fleet::wire::encode(f1);
    const std::size_t payload_len = b0.size() - 8 - 4;
    const std::size_t tenant_end = 8 + 1 + 2 + f0.tenant.size();

    for (std::size_t off = 8; off < 8 + payload_len; ++off) {
      std::string corrupted = b0;
      corrupted[off] = static_cast<char>(
          static_cast<unsigned char>(corrupted[off]) ^ 0x20);
      Decoder decoder;
      decoder.feed(corrupted.data(), corrupted.size());
      decoder.feed(b1.data(), b1.size());
      const auto events = pump(decoder);
      ASSERT_EQ(events.size(), 2u) << "off=" << off;
      EXPECT_EQ(events[0].error, DecodeError::kBadCrc) << "off=" << off;
      if (off >= tenant_end) {
        // Flips outside the identity fields still attribute the error to
        // the claimed tenant — that is what drives quarantine.
        EXPECT_EQ(events[0].claimed_tenant, "truck-1") << "off=" << off;
      }
      ASSERT_TRUE(events[1].frame.has_value()) << "off=" << off;
      EXPECT_TRUE(frames_equal(*events[1].frame, f1));
    }
  }
}

// Flipping CRC trailer bytes must also surface as kBadCrc.
TEST(Wire, FlippedCrcTrailerIsRejected) {
  const Frame f = make_frame("truck-1", 5, 2);
  const std::string bytes = fleet::wire::encode(f);
  for (std::size_t i = 0; i < 4; ++i) {
    std::string corrupted = bytes;
    const std::size_t off = bytes.size() - 4 + i;
    corrupted[off] = static_cast<char>(
        static_cast<unsigned char>(corrupted[off]) ^ 0x01);
    Decoder decoder;
    decoder.feed(corrupted.data(), corrupted.size());
    const auto events = pump(decoder);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].error, DecodeError::kBadCrc);
    EXPECT_EQ(events[0].claimed_tenant, "truck-1");
  }
}

TEST(Wire, GarbagePrefixResynchronizes) {
  const Frame f = make_frame("truck-2", 11, 3);
  const std::string bytes = fleet::wire::encode(f);
  std::string stream(64, static_cast<char>(0xAA));
  stream += bytes;

  Decoder decoder;
  decoder.feed(stream.data(), stream.size());
  const auto events = pump(decoder);
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events[0].error, DecodeError::kBadMagic);
  ASSERT_TRUE(events.back().frame.has_value());
  EXPECT_TRUE(frames_equal(*events.back().frame, f));
  EXPECT_GE(decoder.stats().resyncs, 1u);
  EXPECT_GE(decoder.stats().bytes_skipped, 64u);
}

TEST(Wire, MagicSplitAcrossFeedsStillDecodes) {
  const Frame f = make_frame("truck-3", 0, 2);
  const std::string bytes = fleet::wire::encode(f);
  Decoder decoder;
  // Garbage, then the first half of the magic: the partial magic at the
  // tail must be kept across the resync, not discarded.
  const std::string junk(16, static_cast<char>(0x11));
  decoder.feed(junk.data(), junk.size());
  decoder.feed(bytes.data(), 2);
  auto events = pump(decoder);
  EXPECT_EQ(count_frames(events), 0u);
  decoder.feed(bytes.data() + 2, bytes.size() - 2);
  events = pump(decoder);
  ASSERT_EQ(count_frames(events), 1u);
  for (const auto& ev : events) {
    if (ev.frame.has_value()) {
      EXPECT_TRUE(frames_equal(*ev.frame, f));
    }
  }
}

// A hostile length prefix beyond the ceiling must be rejected immediately
// (no multi-gigabyte buffering) and the stream must recover.
TEST(Wire, OversizedLengthPrefixIsRejectedAndRecovers) {
  std::string hostile(reinterpret_cast<const char*>(fleet::wire::kMagic), 4);
  const std::uint64_t huge = fleet::wire::kMaxPayloadBytes + 1;
  for (int shift = 0; shift < 32; shift += 8) {
    hostile.push_back(static_cast<char>((huge >> shift) & 0xFF));
  }
  hostile += "some trailing garbage";
  const Frame f = make_frame("truck-4", 2, 3);
  hostile += fleet::wire::encode(f);

  Decoder decoder;
  decoder.feed(hostile.data(), hostile.size());
  const auto events = pump(decoder);
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events[0].error, DecodeError::kOversized);
  ASSERT_TRUE(events.back().frame.has_value());
  EXPECT_TRUE(frames_equal(*events.back().frame, f));
}

// A frame whose CRC is valid but whose internals are inconsistent (bad
// kind byte, unknown sample format, sample count × width disagreeing
// with the length) is kBadPayload with tenant attribution.
TEST(Wire, InternallyInconsistentPayloadIsRejectedWithAttribution) {
  const std::uint8_t u16 = static_cast<std::uint8_t>(SampleFormat::kU16);
  const std::uint8_t f64 = static_cast<std::uint8_t>(SampleFormat::kF64);
  const std::string cases[] = {
      HandPayload{.kind = 9}.bytes(),  // no such FrameKind
      HandPayload{.format = 0, .count = 2, .sample_bytes = 4}.bytes(),
      HandPayload{.format = 3, .count = 2, .sample_bytes = 4}.bytes(),
      HandPayload{.format = 0xFF}.bytes(),  // unknown even with no samples
      HandPayload{.count = 3, .sample_bytes = 4}.bytes(),  // count × 2 > len
      HandPayload{.count = 2, .sample_bytes = 5}.bytes(),  // count × 2 < len
      HandPayload{.format = f64, .count = 2, .sample_bytes = 4}.bytes(),
      HandPayload{.format = u16, .count = 1, .sample_bytes = 8}.bytes(),
      HandPayload{.count = fleet::wire::kMaxSamples + 1}.bytes(),
      HandPayload{.cut_to = 1 + 2 + 7 + 8}.bytes(),  // fields cut short
  };
  for (const std::string& bytes : cases) {
    Decoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    const auto events = pump(decoder);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].error, DecodeError::kBadPayload);
    EXPECT_EQ(events[0].claimed_tenant, "truck-9");
    EXPECT_EQ(decoder.stats().errors, 1u);
    EXPECT_EQ(decoder.stats().frames_decoded, 0u);
  }
  // A consistent hand-built payload decodes, so each case above fails on
  // the field it names and not on how HandPayload lays out the rest.
  const std::string ok = HandPayload{.count = 2, .sample_bytes = 4}.bytes();
  Decoder decoder;
  decoder.feed(ok.data(), ok.size());
  EXPECT_EQ(count_frames(pump(decoder)), 1u);
}

TEST(Wire, ChunkedDeliveryMatchesSingleFeed) {
  for (const SampleFormat format : kFormats) {
    SCOPED_TRACE(format_name(format));
    std::string stream;
    std::vector<Frame> frames;
    for (std::uint64_t seq = 0; seq < 12; ++seq) {
      frames.push_back(make_frame_as(format, "truck-5", seq, 7));
      stream += fleet::wire::encode(frames.back());
    }
    for (const std::size_t chunk : {1u, 3u, 13u, 64u}) {
      Decoder decoder;
      std::vector<Decoder::Event> events;
      for (std::size_t off = 0; off < stream.size(); off += chunk) {
        const std::size_t n = std::min(chunk, stream.size() - off);
        decoder.feed(stream.data() + off, n);
        for (auto ev = decoder.next(); ev.has_value(); ev = decoder.next()) {
          events.push_back(std::move(*ev));
        }
      }
      ASSERT_EQ(events.size(), frames.size()) << "chunk=" << chunk;
      for (std::size_t i = 0; i < frames.size(); ++i) {
        ASSERT_TRUE(events[i].frame.has_value());
        EXPECT_TRUE(frames_equal(*events[i].frame, frames[i]));
      }
      EXPECT_EQ(decoder.stats().errors, 0u);
      EXPECT_EQ(decoder.stats().f64_frames,
                format == SampleFormat::kF64 ? frames.size() : 0u);
    }
  }
}

// The lossless rule: a frame ships as u16 exactly when every sample is an
// integral code in [0, 65535] that converts back to the same bit pattern.
TEST(Wire, LosslessCodesShipAsU16) {
  Frame f = make_frame("truck-6", 0, 0);
  f.samples = {0.0, 65535.0};
  EXPECT_EQ(round_trip_format(f), SampleFormat::kU16);
  EXPECT_EQ(round_trip_format(make_code_frame("truck-6", 1, 6000)),
            SampleFormat::kU16);
}

TEST(Wire, NonCodeSamplesFallBackToF64) {
  const double kInf = std::numeric_limits<double>::infinity();
  for (const double odd : {65536.0, -1.0, 0.5, -0.0,
                           std::numeric_limits<double>::quiet_NaN(), kInf,
                           -kInf}) {
    SCOPED_TRACE(odd);
    Frame f = make_code_frame("truck-6", 0, 4);
    f.samples[2] = odd;
    EXPECT_EQ(round_trip_format(f), SampleFormat::kF64);
  }
  // The check runs to the last sample: one fractional code at the very
  // end of a long integral trace still forces f64.
  Frame tail = make_code_frame("truck-6", 2, 6000);
  tail.samples.back() += 0.25;
  EXPECT_EQ(round_trip_format(tail), SampleFormat::kF64);
}

// A CRC-valid payload whose tenant field is out of bounds is kBadPayload
// with no attribution: there is no tenant to quarantine.
TEST(Wire, PayloadWithoutValidTenantIsRejectedUnattributed) {
  const auto over = fleet::wire::kMaxTenantBytes + 1;
  const std::string cases[] = {
      HandPayload{.tenant = ""}.bytes(),
      HandPayload{.tenant = std::string(over, 't')}.bytes(),
      HandPayload{.tenant_len = 40}.bytes(),  // runs past the payload
      HandPayload{.cut_to = 2}.bytes(),       // no room for a tenant length
  };
  for (const std::string& bytes : cases) {
    Decoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    const auto events = pump(decoder);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].error, DecodeError::kBadPayload);
    EXPECT_TRUE(events[0].claimed_tenant.empty());
  }
}

// Garbage shorter than a frame header is rejected as soon as it disagrees
// with the magic, without waiting for more bytes; a partial magic waits.
TEST(Wire, ShortGarbageIsRejectedBeforeAFullHeader) {
  Decoder decoder;
  decoder.feed("\x01\x02\x03", 3);
  auto events = pump(decoder);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].error, DecodeError::kBadMagic);
  EXPECT_EQ(decoder.stats().resyncs, 1u);
  EXPECT_EQ(decoder.stats().bytes_skipped, 3u);
  EXPECT_EQ(decoder.buffered(), 0u);

  decoder.feed(fleet::wire::kMagic, 2);
  EXPECT_TRUE(pump(decoder).empty());
  EXPECT_EQ(decoder.buffered(), 2u);
}

// VPW1 is not decoded: its chunk is skipped in one counted resync and the
// VPW2 frame after it decodes.
TEST(Wire, Vpw1ChunkResyncsAsBadMagic) {
  const Frame old = make_frame("truck-8", 0, 3);
  std::string payload;
  payload.push_back(static_cast<char>(FrameKind::kData));
  payload.push_back(static_cast<char>(old.tenant.size()));
  payload.push_back(static_cast<char>(0));
  payload += old.tenant;
  payload.append(8, '\0');  // seq 0
  payload.push_back(static_cast<char>(old.samples.size()));
  payload.append(3, '\0');
  for (const double s : old.samples) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &s, sizeof(bits));
    for (int shift = 0; shift < 64; shift += 8) {
      payload.push_back(static_cast<char>((bits >> shift) & 0xFF));
    }
  }
  const unsigned char vpw1[4] = {'V', 'P', 'W', '1'};
  const std::string v1 = wrap_payload(payload, vpw1);
  const Frame next = make_code_frame("truck-8", 1, 3);
  const std::string v2 = fleet::wire::encode(next);

  Decoder decoder;
  decoder.feed(v1.data(), v1.size());
  decoder.feed(v2.data(), v2.size());
  const auto events = pump(decoder);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].error, DecodeError::kBadMagic);
  EXPECT_TRUE(events[0].claimed_tenant.empty());
  ASSERT_TRUE(events[1].frame.has_value());
  EXPECT_TRUE(frames_equal(*events[1].frame, next));
  EXPECT_EQ(decoder.stats().resyncs, 1u);
  EXPECT_EQ(decoder.stats().errors, 1u);
  EXPECT_EQ(decoder.stats().bytes_skipped, v1.size());
  EXPECT_EQ(decoder.stats().frames_decoded, 1u);
}

// Real traffic: simulated captures from both vehicles, clean and under
// the harsh fault profile, come back bit-identical; clean captures are
// integral ADC codes and all take u16.
TEST(Wire, VehicleCapturesRoundTripBitIdentical) {
  for (const bool vehicle_a : {true, false}) {
    sim::Vehicle vehicle(vehicle_a ? sim::vehicle_a() : sim::vehicle_b(), 5);
    const analog::Environment env = analog::Environment::reference();
    faults::FaultInjector harsh(
        faults::harsh_environment(),
        static_cast<double>(vehicle.config().adc.max_code()), 5);
    for (const bool faulted : {false, true}) {
      SCOPED_TRACE(std::string(vehicle_a ? "A" : "B") +
                   (faulted ? " harsh" : " clean"));
      Decoder decoder;
      std::uint64_t seq = 0;
      for (const sim::Capture& cap : vehicle.capture(60, env)) {
        Frame f = make_frame("truck-a", seq++, 0);
        f.samples = faulted ? harsh.apply(cap.codes) : cap.codes;
        const std::string bytes = fleet::wire::encode(f);
        decoder.feed(bytes.data(), bytes.size());
        const auto events = pump(decoder);
        ASSERT_EQ(events.size(), 1u);
        ASSERT_TRUE(events[0].frame.has_value());
        EXPECT_TRUE(frames_equal(*events[0].frame, f));
      }
      EXPECT_EQ(decoder.stats().frames_decoded, 60u);
      EXPECT_EQ(decoder.stats().errors, 0u);
      // Harsh faults resample and add fractional offsets, so that stream
      // exercises the f64 fallback too.
      if (faulted) {
        EXPECT_GT(decoder.stats().f64_frames, 0u);
      } else {
        EXPECT_EQ(decoder.stats().f64_frames, 0u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The codec on both dispatch paths: the AVX2 u16 pack / unpack and the
// carry-less-multiply CRC (where the CPU has them) against the scalar
// loops, in one process.

struct DispatchOverride {
  explicit DispatchOverride(int forced) {
    linalg::simd::set_force_scalar_override(forced);
  }
  ~DispatchOverride() { linalg::simd::set_force_scalar_override(-1); }
};

std::string encode_forced(int forced, const Frame& f) {
  const DispatchOverride scope(forced);
  return fleet::wire::encode(f);
}

/// Decodes one whole frame on the given dispatch path; nullopt if the
/// bytes do not decode to exactly one frame.
std::optional<Frame> decode_forced(int forced, const std::string& bytes,
                                   SampleFormat* format) {
  const DispatchOverride scope(forced);
  Decoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  auto events = pump(decoder);
  if (events.size() != 1 || !events[0].frame.has_value()) return {};
  *format = decoder.stats().f64_frames == 1 ? SampleFormat::kF64
                                            : SampleFormat::kU16;
  return std::move(events[0].frame);
}

/// Encodes `f` on both paths, expects the same bytes, decodes them on
/// both paths, expects `f` back bit for bit, and returns the format.
SampleFormat both_paths_format(const Frame& f) {
  const std::string simd = encode_forced(0, f);
  const std::string scalar = encode_forced(1, f);
  EXPECT_EQ(simd, scalar);
  SampleFormat formats[2] = {SampleFormat::kU16, SampleFormat::kU16};
  for (const int forced : {0, 1}) {
    const auto decoded = decode_forced(forced, scalar, &formats[forced]);
    if (!decoded.has_value()) {
      ADD_FAILURE() << "frame did not decode, forced=" << forced;
      return SampleFormat::kF64;
    }
    EXPECT_TRUE(frames_equal(*decoded, f)) << "forced=" << forced;
  }
  EXPECT_EQ(formats[0], formats[1]);
  return formats[1];
}

// Each class of sample the lossless rule refuses, and the two edge codes
// it accepts, at every index of two full SIMD blocks and the scalar tail:
// both paths choose the same format and write the same bytes.
TEST(Wire, EveryPlacementEncodesTheSameOnBothDispatchPaths) {
  const double kInf = std::numeric_limits<double>::infinity();
  const double refused[] = {-0.0,
                            std::numeric_limits<double>::quiet_NaN(),
                            kInf,
                            -kInf,
                            65536.0,
                            -1.0,
                            0.5,
                            std::numeric_limits<double>::denorm_min()};
  const double accepted[] = {65535.0, 0.0};
  const std::size_t n = 2 * linalg::simd::kU16CodecBlock + 7;
  const Frame base = make_code_frame("truck-5", 3, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const double odd : refused) {
      SCOPED_TRACE(testing::Message() << "refused " << odd << " at " << i);
      Frame f = base;
      f.samples[i] = odd;
      EXPECT_EQ(both_paths_format(f), SampleFormat::kF64);
    }
    for (const double code : accepted) {
      SCOPED_TRACE(testing::Message() << "accepted " << code << " at " << i);
      Frame f = base;
      f.samples[i] = code;
      EXPECT_EQ(both_paths_format(f), SampleFormat::kU16);
    }
  }
}

// Real captures from both vehicles, clean (u16) and under the harsh fault
// profile (mostly f64): the same bytes and the same decoded traces on
// both dispatch paths.
TEST(Wire, VehicleCapturesEncodeTheSameOnBothDispatchPaths) {
  for (const bool vehicle_a : {true, false}) {
    sim::Vehicle vehicle(vehicle_a ? sim::vehicle_a() : sim::vehicle_b(), 9);
    const analog::Environment env = analog::Environment::reference();
    faults::FaultInjector harsh(
        faults::harsh_environment(),
        static_cast<double>(vehicle.config().adc.max_code()), 9);
    std::uint64_t seq = 0;
    std::size_t u16_frames = 0;
    for (const sim::Capture& cap : vehicle.capture(40, env)) {
      for (const bool faulted : {false, true}) {
        SCOPED_TRACE(testing::Message() << (vehicle_a ? "A" : "B") << " seq "
                                        << seq);
        Frame f = make_frame("truck-b", seq++, 0);
        f.samples = faulted ? harsh.apply(cap.codes) : cap.codes;
        if (both_paths_format(f) == SampleFormat::kU16) ++u16_frames;
      }
    }
    EXPECT_GE(u16_frames, 40u);
  }
}

// ---------------------------------------------------------------------------
// FleetService: shared trained world (one model, one benign stream).

constexpr std::uint64_t kSeed = 11;
constexpr std::size_t kTrainCount = 900;
constexpr std::size_t kStreamCount = 220;

struct World {
  std::optional<vprofile::Model> model;
  std::vector<dsp::Trace> traces;
};

const World& world() {
  static const World w = [] {
    World out;
    sim::Vehicle vehicle(sim::vehicle_a(), kSeed);
    const analog::Environment env = analog::Environment::reference();
    const auto extraction = sim::default_extraction(vehicle.config());

    std::vector<vprofile::EdgeSet> training;
    for (const sim::Capture& cap : vehicle.capture(kTrainCount, env)) {
      if (auto es = vprofile::extract_edge_set(cap.codes, extraction)) {
        training.push_back(std::move(*es));
      }
    }
    vprofile::TrainingConfig tc;
    tc.extraction = extraction;
    auto trained =
        vprofile::train_with_database(training, vehicle.database(), tc);
    EXPECT_TRUE(trained.ok()) << trained.error;
    if (!trained.ok()) return out;
    out.model = std::move(*trained.model);

    for (sim::LabeledCapture& lc :
         sim::make_normal_stream(vehicle, kStreamCount, env)) {
      out.traces.push_back(std::move(lc.capture.codes));
    }
    return out;
  }();
  return w;
}

fleet::FleetConfig base_config() {
  fleet::FleetConfig cfg;
  cfg.num_shards = 2;
  cfg.threaded = false;
  cfg.tenant.supervisor.lockstep = true;
  cfg.tenant.supervisor.pipeline.num_workers = 1;
  cfg.tenant.supervisor.online_update = false;
  return cfg;
}

fleet::wire::Decoder::Event error_event(DecodeError error,
                                        std::string claimed) {
  fleet::wire::Decoder::Event ev;
  ev.error = error;
  ev.claimed_tenant = std::move(claimed);
  return ev;
}

TEST(FleetCheckpointLayout, SanitizesAndDisambiguates) {
  const std::string a = fleet::tenant_checkpoint_dir("/tmp/fleet", "a/0");
  const std::string b = fleet::tenant_checkpoint_dir("/tmp/fleet", "a_0");
  EXPECT_NE(a, b);  // sanitization must not alias distinct ids
  // The leaf itself contains no path separators.
  EXPECT_EQ(a.find('/', std::string("/tmp/fleet/").size()), std::string::npos);
  // Stable output for stable input.
  EXPECT_EQ(a, fleet::tenant_checkpoint_dir("/tmp/fleet", "a/0"));
}

TEST(FleetSharding, PinIsStableAndInRange) {
  for (const std::size_t shards : {1u, 2u, 7u}) {
    const std::size_t pin = fleet::shard_of("truck-1", shards);
    EXPECT_LT(pin, shards);
    EXPECT_EQ(pin, fleet::shard_of("truck-1", shards));
  }
  EXPECT_EQ(fleet::shard_of("anything", 1), 0u);
}

TEST(FleetService, RegistrationValidation) {
  const World& w = world();
  ASSERT_TRUE(w.model.has_value());
  fleet::FleetService service(base_config());

  std::string err;
  EXPECT_FALSE(service.register_tenant("", *w.model, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_TRUE(service.register_tenant("truck-1", *w.model));
  EXPECT_FALSE(service.register_tenant("truck-1", *w.model, &err));

  EXPECT_EQ(service.ingest("nobody", w.traces[0]),
            fleet::IngestResult::kUnknownTenant);
  EXPECT_EQ(service.stats().unknown_tenant_frames, 1u);

  service.finish();
  EXPECT_FALSE(service.register_tenant("truck-2", *w.model, &err));
  EXPECT_EQ(service.ingest("truck-1", w.traces[0]),
            fleet::IngestResult::kFinished);
}

TEST(FleetService, ScoresAndDrainsDeterministically) {
  const World& w = world();
  ASSERT_TRUE(w.model.has_value());

  auto run = [&w] {
    fleet::FleetService service(base_config());
    EXPECT_TRUE(service.register_tenant("truck-1", *w.model));
    EXPECT_TRUE(service.register_tenant("truck-2", *w.model));
    for (std::size_t i = 0; i < 64; ++i) {
      EXPECT_EQ(service.ingest("truck-1", w.traces[i]),
                fleet::IngestResult::kAccepted);
      EXPECT_EQ(service.ingest("truck-2", w.traces[i + 64]),
                fleet::IngestResult::kAccepted);
    }
    service.finish();
    return std::make_pair(service.fingerprint(), service.statusz_json());
  };

  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);  // /statusz is byte-stable

  fleet::FleetService service(base_config());
  ASSERT_TRUE(service.register_tenant("truck-1", *w.model));
  for (std::size_t i = 0; i < 8; ++i) {
    service.ingest("truck-1", w.traces[i]);
  }
  service.drain_tenant("truck-1");
  auto snap = service.tenant("truck-1");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, fleet::TenantState::kDrained);
  EXPECT_EQ(snap->supervisor.frames_handled, 8u);
  EXPECT_EQ(service.ingest("truck-1", w.traces[0]),
            fleet::IngestResult::kUnavailable);
  service.finish();
}

// Sync single-shard, sync multi-shard and threaded multi-shard runs must
// produce bit-identical per-tenant fingerprints — the determinism contract
// the chaos harness leans on.
TEST(FleetService, FingerprintStableAcrossShardCountsAndThreading) {
  const World& w = world();
  ASSERT_TRUE(w.model.has_value());

  auto run = [&w](std::size_t shards, bool threaded) {
    fleet::FleetConfig cfg = base_config();
    cfg.num_shards = shards;
    cfg.threaded = threaded;
    fleet::FleetService service(cfg);
    EXPECT_TRUE(service.register_tenant("truck-1", *w.model));
    EXPECT_TRUE(service.register_tenant("truck-2", *w.model));
    EXPECT_TRUE(service.register_tenant("bus/0", *w.model));
    for (std::size_t i = 0; i < 48; ++i) {
      service.ingest("truck-1", w.traces[i]);
      service.ingest("truck-2", w.traces[i + 48]);
      service.ingest("bus/0", w.traces[i + 96]);
    }
    service.finish();
    std::vector<std::uint64_t> prints;
    for (const auto& snap : service.tenants()) {
      prints.push_back(snap.fingerprint);
      EXPECT_NE(snap.fingerprint, 0u) << snap.id;
    }
    prints.push_back(service.fingerprint());
    return prints;
  };

  const auto reference = run(1, false);
  EXPECT_EQ(run(4, false), reference);
  EXPECT_EQ(run(2, true), reference);
  EXPECT_EQ(run(4, true), reference);
}

// Duplicate and reordered wire chunks: duplicates are dropped before
// scoring (the fingerprint must equal exactly-once delivery), gaps are
// counted.
TEST(FleetService, WireDedupKeepsFingerprintAndCountsGaps) {
  const World& w = world();
  ASSERT_TRUE(w.model.has_value());

  auto frame_event = [&w](std::uint64_t seq, std::size_t trace_idx) {
    fleet::wire::Decoder::Event ev;
    Frame f;
    f.tenant = "truck-1";
    f.seq = seq;
    f.samples = w.traces[trace_idx];
    ev.frame = std::move(f);
    ev.claimed_tenant = "truck-1";
    return ev;
  };

  // At-least-once delivery: 0, 1, 1 (redelivered), 3 (2 lost).
  fleet::FleetService dup_service(base_config());
  ASSERT_TRUE(dup_service.register_tenant("truck-1", *w.model));
  dup_service.handle_wire_event(frame_event(0, 0));
  dup_service.handle_wire_event(frame_event(1, 1));
  dup_service.handle_wire_event(frame_event(1, 1));
  dup_service.handle_wire_event(frame_event(3, 3));
  dup_service.finish();

  // Exactly-once reference: 0, 1, 3.
  fleet::FleetService ref_service(base_config());
  ASSERT_TRUE(ref_service.register_tenant("truck-1", *w.model));
  ref_service.handle_wire_event(frame_event(0, 0));
  ref_service.handle_wire_event(frame_event(1, 1));
  ref_service.handle_wire_event(frame_event(3, 3));
  ref_service.finish();

  auto dup_snap = dup_service.tenant("truck-1");
  auto ref_snap = ref_service.tenant("truck-1");
  ASSERT_TRUE(dup_snap.has_value());
  ASSERT_TRUE(ref_snap.has_value());
  EXPECT_EQ(dup_snap->fingerprint, ref_snap->fingerprint);
  EXPECT_EQ(dup_snap->transport.duplicates_dropped, 1u);
  EXPECT_EQ(dup_snap->transport.gaps_detected, 1u);  // seq 2 missing
  EXPECT_EQ(dup_snap->transport.frames, 3u);
  EXPECT_EQ(dup_service.stats().wire_duplicates, 1u);
  EXPECT_EQ(dup_service.stats().wire_gaps, 1u);
}

TEST(FleetService, WireDrainFrameDrainsTenant) {
  const World& w = world();
  ASSERT_TRUE(w.model.has_value());
  fleet::FleetService service(base_config());
  ASSERT_TRUE(service.register_tenant("truck-1", *w.model));

  fleet::wire::Decoder::Event ev;
  Frame f;
  f.kind = FrameKind::kDrain;
  f.tenant = "truck-1";
  ev.frame = std::move(f);
  ev.claimed_tenant = "truck-1";
  service.handle_wire_event(ev);

  auto snap = service.tenant("truck-1");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, fleet::TenantState::kDrained);
  service.finish();
}

// The full containment arc: decode errors quarantine the tenant, the
// neighbour keeps scoring, a frame-counted backoff revives it from the
// initial model, and a second quarantine past the revival budget evicts
// it for good.
TEST(FleetService, QuarantineReviveThenEvict) {
  const World& w = world();
  ASSERT_TRUE(w.model.has_value());
  fleet::FleetConfig cfg = base_config();
  cfg.tenant.quarantine_decode_errors = 2;
  cfg.tenant.revive_backoff_frames = 3;
  cfg.tenant.revive_max_attempts = 1;
  fleet::FleetService service(cfg);
  ASSERT_TRUE(service.register_tenant("sick", *w.model));
  ASSERT_TRUE(service.register_tenant("healthy", *w.model));

  service.handle_wire_event(error_event(DecodeError::kBadCrc, "sick"));
  service.handle_wire_event(error_event(DecodeError::kBadPayload, "sick"));
  {
    auto snap = service.tenant("sick");
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->state, fleet::TenantState::kQuarantined);
    EXPECT_EQ(snap->transport.decode_errors, 2u);
  }
  EXPECT_EQ(service.stats().quarantines, 1u);

  // Errors too mangled to attribute only count against the connection.
  service.handle_wire_event(error_event(DecodeError::kBadMagic, ""));
  EXPECT_EQ(service.stats().wire_unattributed_errors, 1u);

  // Quarantined frames are dropped until the backoff elapses...
  std::size_t offers = 0;
  while (offers < 16) {
    const auto r = service.ingest("sick", w.traces[offers % 8]);
    ++offers;
    if (r == fleet::IngestResult::kUnavailable) continue;
    break;
  }
  auto revived = service.tenant("sick");
  ASSERT_TRUE(revived.has_value());
  EXPECT_EQ(revived->state, fleet::TenantState::kActive);
  EXPECT_EQ(revived->reason, "revived from initial model");
  EXPECT_EQ(revived->revive_attempts, 1u);
  EXPECT_EQ(revived->generations, 2u);
  EXPECT_EQ(service.stats().revivals, 1u);

  // The neighbour never noticed.
  EXPECT_EQ(service.ingest("healthy", w.traces[0]),
            fleet::IngestResult::kAccepted);

  // Second quarantine: the revival budget (1) is exhausted → eviction.
  service.handle_wire_event(error_event(DecodeError::kBadCrc, "sick"));
  service.handle_wire_event(error_event(DecodeError::kBadCrc, "sick"));
  {
    auto snap = service.tenant("sick");
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->state, fleet::TenantState::kQuarantined);
  }
  for (std::size_t i = 0; i < 8; ++i) {
    service.ingest("sick", w.traces[i % 8]);
  }
  auto evicted = service.tenant("sick");
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->state, fleet::TenantState::kEvicted);
  EXPECT_EQ(service.stats().evictions, 1u);
  EXPECT_EQ(service.ingest("sick", w.traces[0]),
            fleet::IngestResult::kUnavailable);

  service.finish();
  auto healthy = service.tenant("healthy");
  ASSERT_TRUE(healthy.has_value());
  EXPECT_EQ(healthy->state, fleet::TenantState::kDrained);
}

// Revival reads the tenant's own checkpoint directory; when the newest
// checkpoint is corrupt the CRC footer rejects it and revival falls back
// to the last-good file, reporting the degraded state.
TEST(FleetService, RevivalRecoversLastGoodCheckpoint) {
  const World& w = world();
  ASSERT_TRUE(w.model.has_value());
  const std::string root = ::testing::TempDir() + "fleet_revival_ckpt";

  fleet::FleetConfig cfg = base_config();
  cfg.checkpoint_root = root;
  cfg.tenant.supervisor.checkpoint_every = 8;
  cfg.tenant.quarantine_decode_errors = 1;
  cfg.tenant.revive_backoff_frames = 2;
  cfg.tenant.revive_max_attempts = 2;
  fleet::FleetService service(cfg);
  ASSERT_TRUE(service.register_tenant("truck-1", *w.model));

  for (std::size_t i = 0; i < 24; ++i) {
    ASSERT_EQ(service.ingest("truck-1", w.traces[i]),
              fleet::IngestResult::kAccepted);
  }
  {
    auto snap = service.tenant("truck-1");
    ASSERT_TRUE(snap.has_value());
    ASSERT_GE(snap->supervisor.checkpoints_committed, 2u);
  }

  // Quarantine first (retiring the supervisor commits its final
  // checkpoint), then rot the newest file on disk — the gap between a
  // tenant's death and its revival is exactly when checkpoints rot.
  service.handle_wire_event(error_event(DecodeError::kBadCrc, "truck-1"));
  {
    auto snap = service.tenant("truck-1");
    ASSERT_TRUE(snap.has_value());
    ASSERT_EQ(snap->state, fleet::TenantState::kQuarantined);
  }
  runtime::CheckpointStore store(fleet::tenant_checkpoint_dir(root, "truck-1"));
  ASSERT_TRUE(store.has_checkpoint());
  {
    std::fstream f(store.current_path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    char byte = 0;
    f.seekg(12);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(12);
    f.write(&byte, 1);
  }

  for (std::size_t i = 0; i < 4; ++i) {
    service.ingest("truck-1", w.traces[i]);
  }
  auto snap = service.tenant("truck-1");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, fleet::TenantState::kDegraded);
  EXPECT_EQ(snap->reason, "revived from last-good checkpoint");
  EXPECT_TRUE(snap->recovered_last_good);

  // The revived tenant keeps scoring.
  EXPECT_EQ(service.ingest("truck-1", w.traces[30]),
            fleet::IngestResult::kAccepted);
  service.finish();
}

TEST(FleetService, StatuszJsonCarriesTenantTable) {
  const World& w = world();
  ASSERT_TRUE(w.model.has_value());
  fleet::FleetService service(base_config());
  ASSERT_TRUE(service.register_tenant("truck-1", *w.model));
  for (std::size_t i = 0; i < 4; ++i) {
    service.ingest("truck-1", w.traces[i]);
  }
  service.finish();
  const std::string json = service.statusz_json();
  EXPECT_NE(json.find("\"fleet\""), std::string::npos);
  EXPECT_NE(json.find("\"tenants\""), std::string::npos);
  EXPECT_NE(json.find("\"truck-1\""), std::string::npos);
  EXPECT_NE(json.find("\"fingerprint\""), std::string::npos);
}

TEST(FleetService, StatuszJsonEscapesHostileTenantIds) {
  // Tenant ids come off the wire: quotes, backslashes and control bytes
  // must come back out of /statusz as valid JSON holding the same bytes.
  const World& w = world();
  ASSERT_TRUE(w.model.has_value());
  fleet::FleetService service(base_config());
  const std::string id = std::string("tr\"uck\\1\r\n") + '\x01' + "end";
  ASSERT_TRUE(service.register_tenant(id, *w.model));
  service.ingest(id, w.traces[0]);
  service.finish();

  io::json::Value root;
  std::string err;
  ASSERT_TRUE(io::json::parse(service.statusz_json(), &root, &err)) << err;
  const io::json::Value* tenants = io::json::get(&root, "tenants");
  ASSERT_NE(tenants, nullptr);
  ASSERT_TRUE(tenants->is_array());
  ASSERT_EQ(tenants->array.size(), 1u);
  const io::json::Value* parsed = io::json::get(&tenants->array[0], "id");
  ASSERT_NE(parsed, nullptr);
  ASSERT_TRUE(parsed->is_string());
  EXPECT_EQ(parsed->string, id);
}

}  // namespace
