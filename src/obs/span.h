// Deterministic trace/span identity for cross-process causal tracing
// (DESIGN.md §15).
//
// Every net::Message that matters causally (shuffle deliveries, acks,
// ctrl dispatch/result) is stamped with a (trace, span) pair at
// the send site; the receive site echoes the span into its own kMsgRecv
// event, so a merged trace pairs the two ends without any shared state. Span
// ids are a pure hash of the message's exactly-once identity under the job's
// trace id — re-running a job with the same seed reproduces the same ids,
// which is what lets golden merged traces exist at all.
#ifndef ITASK_OBS_SPAN_H_
#define ITASK_OBS_SPAN_H_

#include <cstdint>

namespace itask::obs {

// FNV-1a 64 over a fixed-width packing of the identity fields. Never returns
// 0 (0 means "unstamped" on the wire).
inline std::uint64_t SpanId(std::uint64_t trace_id, std::uint8_t msg_kind,
                            std::int32_t src, std::int32_t dst,
                            std::int64_t split, std::uint32_t epoch,
                            std::uint64_t seq) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ (v & 0xff)) * 1099511628211ULL;
      v >>= 8;
    }
  };
  mix(trace_id);
  mix(msg_kind);
  mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(src)));
  mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(dst)));
  mix(static_cast<std::uint64_t>(split));
  mix(epoch);
  mix(seq);
  return h == 0 ? 1 : h;
}

// A trace id derived from the job seed (splitmix finalizer), so two jobs with
// the same seed — a driver's reference run and a daemon's re-run — agree on
// every span id they both produce.
inline std::uint64_t TraceIdFromSeed(std::uint64_t seed) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

}  // namespace itask::obs

#endif  // ITASK_OBS_SPAN_H_
