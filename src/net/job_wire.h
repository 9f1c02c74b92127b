// Serialized job description for control-plane dispatch (DESIGN.md §13).
//
// A JobSpec is the portable subset of AppConfig plus the cluster shape the
// daemon should stand up. It rides in the kDispatch payload; versioned so a
// driver and daemon from slightly different builds fail loudly instead of
// misparsing.
#ifndef ITASK_NET_JOB_WIRE_H_
#define ITASK_NET_JOB_WIRE_H_

#include <cstdint>
#include <stdexcept>

#include "common/byte_buffer.h"
#include "serde/serializer.h"

namespace itask::net {

// Kept free of apps/ types — net sits below apps in the layering; the tools
// on either end translate JobSpec <-> apps::AppConfig themselves.
struct JobSpec {
  int nodes = 2;
  std::uint64_t heap_kb = 64 << 10;
  std::uint64_t dataset_kb = 256;
  double tpch_scale = 0.2;
  int max_workers = 4;
  std::uint64_t granularity_bytes = 16 << 10;
  std::uint64_t seed = 42;
  double deadline_ms = 60000.0;
  bool fault_tolerance = false;
};

inline constexpr std::uint32_t kJobSpecVersion = 3;

inline void EncodeJobSpec(const JobSpec& spec, common::ByteBuffer* out) {
  serde::Writer w(out);
  w.WriteVarint(kJobSpecVersion);
  w.WriteVarint(static_cast<std::uint64_t>(spec.nodes));
  w.WriteVarint(spec.heap_kb);
  w.WriteVarint(spec.dataset_kb);
  w.WriteDouble(spec.tpch_scale);
  w.WriteVarint(static_cast<std::uint64_t>(spec.max_workers));
  w.WriteVarint(spec.granularity_bytes);
  w.WriteVarint(spec.seed);
  w.WriteDouble(spec.deadline_ms);
  w.WriteU8(spec.fault_tolerance ? 1 : 0);
}

inline JobSpec DecodeJobSpec(common::ByteBuffer* buf) {
  serde::Reader r(buf);
  const std::uint64_t version = r.ReadVarint();
  if (version != kJobSpecVersion) {
    throw std::runtime_error("net: job spec version mismatch");
  }
  JobSpec spec;
  spec.nodes = static_cast<int>(r.ReadVarint());
  spec.heap_kb = r.ReadVarint();
  spec.dataset_kb = r.ReadVarint();
  spec.tpch_scale = r.ReadDouble();
  spec.max_workers = static_cast<int>(r.ReadVarint());
  spec.granularity_bytes = r.ReadVarint();
  spec.seed = r.ReadVarint();
  spec.deadline_ms = r.ReadDouble();
  spec.fault_tolerance = r.ReadU8() != 0;
  return spec;
}

}  // namespace itask::net

#endif  // ITASK_NET_JOB_WIRE_H_
