// Hardened length-prefixed binary wire format for fleet trace ingest.
//
// One backend serving thousands of vehicle×bus tenants cannot trust its
// transport: a truck-side uplink reconnecting mid-frame delivers torn
// bytes, a flaky relay duplicates or reorders chunks, and a hostile peer
// sends garbage dressed up as length prefixes.  The codec therefore
// treats every byte as adversarial.  Each frame (format VPW2) is:
//
//   magic "VPW2" | u32 payload_len | payload | u32 crc32(payload)
//
// with the payload carrying the tenant identity, a per-tenant sequence
// number and the raw ADC trace:
//
//   u8 kind | u16 tenant_len | tenant bytes | u64 seq
//   | u8 sample_format | u32 sample_count | sample_count × sample
//
// A trace holds the digitizer's integer codes as doubles.  The encoder
// ships it as u16 codes when that is lossless — every sample converts
// to a u16 and back to the same f64 bit pattern, i.e. it is an integral
// code in [0, 65535] and not -0.0 — and as f64 bit patterns otherwise
// (NaN, ±inf, -0.0, fractional or out-of-range samples, e.g. from a
// resampling fault profile).  The rule is a property of the format, not
// a setting: a decoded trace is always bit-identical to the encoded one,
// so wire verdicts equal in-process verdicts.  u16 frames are a quarter
// of the bytes.
//
// VPW1 (f64 only) is not decoded: nothing persists wire bytes and every
// sender goes through encode(), so a VPW1 chunk resyncs as kBadMagic.
// The CRC is the zlib-compatible CRC-32 of io::crc32.
//
// Decoding never throws and never reads past the fed bytes.  A frame
// whose magic, lengths, CRC or internal consistency fail is *skipped*:
// the decoder discards bytes until the next plausible magic and reports
// the error with whatever tenant attribution the payload still supports,
// so the service can quarantine the offending tenant instead of dying —
// per-connection resynchronization is the transport-level bulkhead.
//
// All integers are little-endian on the wire; encoding and decoding go
// through explicit byte shifts, so the format is host-endianness-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "dsp/trace.hpp"

namespace fleet::wire {

/// First bytes of every frame ("VPW2" in ASCII order on the wire).
inline constexpr unsigned char kMagic[4] = {'V', 'P', 'W', '2'};

/// Hard ceilings a hostile length prefix cannot talk the decoder out of.
inline constexpr std::size_t kMaxTenantBytes = 256;
inline constexpr std::size_t kMaxSamples = 1u << 20;
inline constexpr std::size_t kMaxPayloadBytes =
    1 + 2 + kMaxTenantBytes + 8 + 1 + 4 + kMaxSamples * 8;

/// Frame kinds.  kData carries a trace; kDrain asks the service to finish
/// the tenant's in-flight work (used by clients that want a synchronous
/// hand-off before disconnecting).
enum class FrameKind : std::uint8_t {
  kData = 1,
  kDrain = 2,
};

/// How a frame's samples travel: each format's value is its wire byte.
enum class SampleFormat : std::uint8_t {
  kF64 = 1,  // IEEE-754 bit patterns, 8 bytes per sample
  kU16 = 2,  // ADC codes, 2 bytes per sample
};

/// One decoded frame.
struct Frame {
  FrameKind kind = FrameKind::kData;
  std::string tenant;
  /// Per-tenant monotone sequence number assigned by the sender; the
  /// service uses it to drop duplicates and to detect gaps.
  std::uint64_t seq = 0;
  dsp::Trace samples;
};

/// Why a chunk of bytes failed to decode as a frame.
enum class DecodeError : std::uint8_t {
  kNone = 0,
  kBadMagic,       // resynchronized past garbage bytes
  kOversized,      // length prefix beyond kMaxPayloadBytes
  kBadCrc,         // payload checksum mismatch (torn or corrupted frame)
  kBadPayload,     // lengths inconsistent with payload_len, bad kind or
                   // unknown sample format
};

const char* to_string(DecodeError error);

/// Serializes one frame, as u16 samples when that is lossless and as f64
/// otherwise (always valid output; inputs beyond the ceilings are
/// clamped by the caller's contract — encode() returns "" when `tenant`
/// or `samples` exceed the wire ceilings instead of producing an
/// undecodable frame).
std::string encode(const Frame& frame);

/// Incremental per-connection decoder.  Feed bytes as they arrive, then
/// pull events until kNeedMore.  The decoder owns a bounded reassembly
/// buffer: bytes for a frame larger than the ceiling are discarded during
/// resync, so a hostile peer cannot balloon memory.
class Decoder {
 public:
  struct Stats {
    std::uint64_t frames_decoded = 0;
    std::uint64_t bytes_consumed = 0;
    std::uint64_t resyncs = 0;          // garbage runs skipped
    std::uint64_t bytes_skipped = 0;    // bytes discarded resynchronizing
    std::uint64_t errors = 0;           // frames rejected (crc/length/...)
    std::uint64_t f64_frames = 0;       // decoded frames that paid 8-byte
                                        // samples (not lossless as u16)
  };

  /// One decode event: either a frame, or an error with best-effort
  /// tenant attribution (the claimed tenant string when the payload's
  /// tenant field still parsed within bounds — enough to quarantine a
  /// tenant that keeps sending corrupt chunks, while a frame too mangled
  /// to attribute only counts against the connection).
  struct Event {
    DecodeError error = DecodeError::kNone;
    std::optional<Frame> frame;        // set when error == kNone
    std::string claimed_tenant;        // may be empty on errors
  };

  /// Appends received bytes to the reassembly buffer.
  void feed(const void* data, std::size_t len);

  /// Next decode event, or std::nullopt when more bytes are needed.
  /// Never throws; never reads outside the fed bytes.
  std::optional<Event> next();

  const Stats& stats() const { return stats_; }
  std::size_t buffered() const { return buffer_.size() - cursor_; }

 private:
  /// Drops `n` bytes from the front of the logical buffer.
  void consume(std::size_t n);
  /// Scans forward for the next magic; returns bytes skipped.
  std::size_t resync();

  std::string buffer_;
  std::size_t cursor_ = 0;
  Stats stats_;
};

}  // namespace fleet::wire
