#include "fleet/wire.hpp"

#include <bit>
#include <cstring>

#include "io/checksum.hpp"
#include "linalg/simd_dispatch.hpp"
#include "linalg/simd_kernels.hpp"

namespace fleet::wire {

namespace {

constexpr std::size_t kHeaderBytes = 4 + 4;  // magic + payload_len
constexpr std::size_t kTrailerBytes = 4;     // crc32
/// Payload bytes between the tenant and the samples: seq, sample_format,
/// sample_count.
constexpr std::size_t kAfterTenantBytes = 8 + 1 + 4;
/// Payload bytes around the tenant and the samples: kind and tenant_len,
/// then the fields above.
constexpr std::size_t kFixedPayloadBytes = 1 + 2 + kAfterTenantBytes;

// Fixed-width little-endian stores and loads into a sized buffer.  The
// byte shifts are spelled out so that compilers fuse each one into a
// single move on little-endian hosts (a shift loop defeats that).
void put_u16(unsigned char* p, std::uint16_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
}

void put_u32(unsigned char* p, std::uint32_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
  p[2] = static_cast<unsigned char>(v >> 16);
  p[3] = static_cast<unsigned char>(v >> 24);
}

void put_u64(unsigned char* p, std::uint64_t v) {
  put_u32(p, static_cast<std::uint32_t>(v));
  put_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint16_t get_u16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | p[1] << 8);
}

std::uint32_t get_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t get_u64(const unsigned char* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         static_cast<std::uint64_t>(get_u32(p + 4)) << 32;
}

std::size_t sample_width(std::uint8_t format) {
  switch (static_cast<SampleFormat>(format)) {
    case SampleFormat::kF64:
      return 8;
    case SampleFormat::kU16:
      return 2;
  }
  return 0;
}

/// Samples the AVX2 codec kernels take: every whole kU16CodecBlock when
/// the dispatch chose AVX2, else 0 (and the kernels must not be called).
/// The scalar loops below do the rest.
std::size_t avx2_codec_samples(std::size_t count) {
  if (linalg::simd::resolve(linalg::simd::Backend::kAuto) !=
      linalg::simd::Backend::kAvx2) {
    return 0;
  }
  return count - count % linalg::simd::kU16CodecBlock;
}

/// Writes every sample as a u16 code, in one pass that checks each one
/// converts back to the same f64 bit pattern.  Returns false at the
/// first sample that does not (NaN, ±inf, -0.0, fractional or out of
/// range); `out` then holds a partial write the caller overwrites.
///
/// The conversion adds 2^52: in [2^52, 2^53) the ulp is 1, so the sum is
/// an integer whose value sits in the low mantissa bits and the code is
/// its bit-pattern distance from 2^52.  Subtracting 2^52 again is the
/// conversion back.  Whatever the rounding, a sample passes only if it
/// equals that code exactly, and the loop needs no float-to-integer
/// conversion instruction, the slow part of a plain cast.  The AVX2
/// kernel applies the same rule to the whole blocks, so both paths accept
/// the same frames and write the same bytes.
bool put_u16_codes(const dsp::Trace& samples, unsigned char* out) {
  constexpr double kTwo52 = 4503599627370496.0;
  constexpr std::uint64_t kTwo52Bits = std::bit_cast<std::uint64_t>(kTwo52);
  const std::size_t body = avx2_codec_samples(samples.size());
  if (body > 0 &&
      !linalg::simd::pack_u16_codes_avx2(samples.data(), body, out)) {
    return false;
  }
  out += body * 2;
  for (std::size_t i = body; i < samples.size(); ++i) {
    const double s = samples[i];
    const double shifted = s + kTwo52;
    // Negative, NaN, infinite and large samples land far outside 16 bits.
    const std::uint64_t code =
        std::bit_cast<std::uint64_t>(shifted) - kTwo52Bits;
    if (code > 0xFFFF || std::bit_cast<std::uint64_t>(shifted - kTwo52) !=
                             std::bit_cast<std::uint64_t>(s)) {
      return false;
    }
    put_u16(out, static_cast<std::uint16_t>(code));
    out += 2;
  }
  return true;
}

/// Reads the tenant field, the identity a rejected frame can still be
/// attributed to.  Returns the payload offset just past it, or 0 when
/// the field is out of bounds (`tenant` is then left untouched).
std::size_t parse_tenant(const unsigned char* p, std::size_t len,
                         std::string* tenant) {
  if (len < 1 + 2) return 0;
  const std::size_t tenant_len = get_u16(p + 1);
  if (tenant_len == 0 || tenant_len > kMaxTenantBytes ||
      len < 1 + 2 + tenant_len) {
    return 0;
  }
  tenant->assign(reinterpret_cast<const char*>(p + 3), tenant_len);
  return 1 + 2 + tenant_len;
}

/// Parses the payload body into a frame.  Returns kNone on success; on
/// failure `out->tenant` still holds the tenant string when the tenant
/// field itself was within bounds (best-effort attribution).
DecodeError parse_payload(const unsigned char* p, std::size_t len,
                          Frame* out, SampleFormat* format) {
  // One reject per line, so line coverage shows each one is reached.
  const std::size_t tenant_end = parse_tenant(p, len, &out->tenant);
  if (tenant_end == 0) {
    return DecodeError::kBadPayload;
  }
  const std::uint8_t kind = p[0];
  if (kind != static_cast<std::uint8_t>(FrameKind::kData) &&
      kind != static_cast<std::uint8_t>(FrameKind::kDrain)) {
    return DecodeError::kBadPayload;
  }
  if (len < tenant_end + kAfterTenantBytes) {
    return DecodeError::kBadPayload;
  }
  const unsigned char* cursor = p + tenant_end;
  const std::uint64_t seq = get_u64(cursor);
  const std::uint8_t format_byte = cursor[8];
  const std::size_t sample_count = get_u32(cursor + 9);
  cursor += kAfterTenantBytes;
  const std::size_t width = sample_width(format_byte);
  if (width == 0) {
    return DecodeError::kBadPayload;
  }
  if (sample_count > kMaxSamples) {
    return DecodeError::kBadPayload;
  }
  // The declared lengths must tile the payload exactly: a frame whose
  // sample count disagrees with its length prefix is corrupt even when
  // the CRC (computed by the corrupter) checks out.
  if (tenant_end + kAfterTenantBytes + sample_count * width != len) {
    return DecodeError::kBadPayload;
  }
  out->kind = static_cast<FrameKind>(kind);
  out->seq = seq;
  *format = static_cast<SampleFormat>(format_byte);
  out->samples.resize(sample_count);
  double* samples = out->samples.data();
  if (*format == SampleFormat::kU16) {
    const std::size_t body = avx2_codec_samples(sample_count);
    if (body > 0) linalg::simd::unpack_u16_codes_avx2(cursor, body, samples);
    for (std::size_t i = body; i < sample_count; ++i) {
      samples[i] = static_cast<double>(get_u16(cursor + i * 2));
    }
  } else {
    for (std::size_t i = 0; i < sample_count; ++i) {
      samples[i] = std::bit_cast<double>(get_u64(cursor + i * 8));
    }
  }
  return DecodeError::kNone;
}

}  // namespace

const char* to_string(DecodeError error) {
  switch (error) {
    case DecodeError::kNone:
      return "none";
    case DecodeError::kBadMagic:
      return "bad_magic";
    case DecodeError::kOversized:
      return "oversized";
    case DecodeError::kBadCrc:
      return "bad_crc";
    case DecodeError::kBadPayload:
      return "bad_payload";
  }
  return "unknown";
}

std::string encode(const Frame& frame) {
  if (frame.tenant.empty() || frame.tenant.size() > kMaxTenantBytes ||
      frame.samples.size() > kMaxSamples) {
    return {};
  }
  const std::size_t count = frame.samples.size();
  const std::size_t fixed = kFixedPayloadBytes + frame.tenant.size();
  // Sized for u16 samples; the f64 fallback grows it once.
  std::string out(kHeaderBytes + fixed + count * 2 + kTrailerBytes, '\0');
  auto* p = reinterpret_cast<unsigned char*>(out.data());
  std::memcpy(p, kMagic, sizeof(kMagic));
  unsigned char* cursor = p + kHeaderBytes;
  *cursor++ = static_cast<unsigned char>(frame.kind);
  put_u16(cursor, static_cast<std::uint16_t>(frame.tenant.size()));
  cursor += 2;
  std::memcpy(cursor, frame.tenant.data(), frame.tenant.size());
  cursor += frame.tenant.size();
  put_u64(cursor, frame.seq);
  cursor += 8;
  const std::size_t format_at = static_cast<std::size_t>(cursor - p);
  ++cursor;
  put_u32(cursor, static_cast<std::uint32_t>(count));
  cursor += 4;

  SampleFormat format = SampleFormat::kU16;
  if (!put_u16_codes(frame.samples, cursor)) {
    format = SampleFormat::kF64;
    const std::size_t samples_at = static_cast<std::size_t>(cursor - p);
    out.resize(kHeaderBytes + fixed + count * 8 + kTrailerBytes);
    p = reinterpret_cast<unsigned char*>(out.data());
    cursor = p + samples_at;
    for (const double sample : frame.samples) {
      put_u64(cursor, std::bit_cast<std::uint64_t>(sample));
      cursor += 8;
    }
  }
  p[format_at] = static_cast<unsigned char>(format);
  const std::size_t payload_len = out.size() - kHeaderBytes - kTrailerBytes;
  put_u32(p + 4, static_cast<std::uint32_t>(payload_len));
  put_u32(p + kHeaderBytes + payload_len,
          io::crc32(p + kHeaderBytes, payload_len));
  return out;
}

void Decoder::feed(const void* data, std::size_t len) {
  // Drop the consumed prefix before appending, so long-lived connections
  // don't accrete every byte they ever received and the copy moves only
  // unread bytes: none when whole frames arrive back to back, fewer than
  // the dead prefix once it dominates.
  if (cursor_ == buffer_.size()) {
    buffer_.clear();
    cursor_ = 0;
  } else if (cursor_ > 4096 && cursor_ > buffer_.size() / 2) {
    buffer_.erase(0, cursor_);
    cursor_ = 0;
  }
  buffer_.append(static_cast<const char*>(data), len);
}

void Decoder::consume(std::size_t n) {
  cursor_ += n;
  stats_.bytes_consumed += n;
}

std::size_t Decoder::resync() {
  // Skip at least one byte, then stop at the next full magic.  A partial
  // magic at the buffer tail is kept: the rest may still arrive.
  const std::size_t start = cursor_;
  std::size_t pos = cursor_ + 1;
  while (pos < buffer_.size()) {
    const std::size_t avail = buffer_.size() - pos;
    const std::size_t window = avail < sizeof(kMagic) ? avail : sizeof(kMagic);
    if (std::memcmp(buffer_.data() + pos, kMagic, window) == 0) break;
    ++pos;
  }
  const std::size_t skipped = pos - start;
  consume(skipped);
  stats_.bytes_skipped += skipped;
  return skipped;
}

std::optional<Decoder::Event> Decoder::next() {
  for (;;) {
    const std::size_t avail = buffer_.size() - cursor_;
    if (avail < kHeaderBytes) {
      // A buffered prefix that already disagrees with the magic is
      // garbage now, not a frame waiting for more bytes.
      if (avail > 0 &&
          std::memcmp(buffer_.data() + cursor_, kMagic,
                      avail < sizeof(kMagic) ? avail : sizeof(kMagic)) != 0) {
        ++stats_.resyncs;
        ++stats_.errors;
        resync();
        Event ev;
        ev.error = DecodeError::kBadMagic;
        return ev;
      }
      return std::nullopt;
    }
    const auto* head =
        reinterpret_cast<const unsigned char*>(buffer_.data() + cursor_);
    if (std::memcmp(head, kMagic, sizeof(kMagic)) != 0) {
      ++stats_.resyncs;
      ++stats_.errors;
      resync();
      Event ev;
      ev.error = DecodeError::kBadMagic;
      return ev;
    }
    const std::size_t payload_len = get_u32(head + 4);
    if (payload_len > kMaxPayloadBytes) {
      // A hostile length prefix must not make us wait for (or buffer)
      // gigabytes; drop the magic and rescan.
      ++stats_.errors;
      ++stats_.resyncs;
      resync();
      Event ev;
      ev.error = DecodeError::kOversized;
      return ev;
    }
    const std::size_t total = kHeaderBytes + payload_len + kTrailerBytes;
    if (avail < total) return std::nullopt;  // incomplete: wait for bytes

    const unsigned char* payload = head + kHeaderBytes;
    const std::uint32_t stored_crc = get_u32(payload + payload_len);
    Event ev;
    if (io::crc32(payload, payload_len) != stored_crc) {
      // Best-effort attribution: a bit flip in the samples leaves the
      // tenant field intact often enough to be worth reporting.  The
      // samples of a corrupt frame are never decoded.
      ev.error = DecodeError::kBadCrc;
      parse_tenant(payload, payload_len, &ev.claimed_tenant);
      ++stats_.errors;
      consume(total);
      return ev;
    }
    Frame frame;
    SampleFormat format = SampleFormat::kU16;
    const DecodeError err =
        parse_payload(payload, payload_len, &frame, &format);
    consume(total);
    if (err != DecodeError::kNone) {
      ev.error = err;
      ev.claimed_tenant = std::move(frame.tenant);
      ++stats_.errors;
      return ev;
    }
    ++stats_.frames_decoded;
    if (format == SampleFormat::kF64) ++stats_.f64_frames;
    ev.frame = std::move(frame);
    ev.claimed_tenant = ev.frame->tenant;
    return ev;
  }
}

}  // namespace fleet::wire
