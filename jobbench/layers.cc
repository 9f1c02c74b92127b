// Traced-run layer timings: each function below times calls into one
// module's public functions on inputs made by the workload's own generator
// with the run's input seed. The end-to-end jobs never run this code.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/frame_codec.h"
#include "itask/job_state.h"
#include "itask/partition_queue.h"
#include "itask/recovery.h"
#include "itask/typed_partition.h"
#include "jobbench.h"
#include "memsim/managed_heap.h"
#include "net/message.h"
#include "net/shuffle_fabric.h"
#include "net/transport.h"
#include "serde/serializer.h"
#include "serde/spill_manager.h"
#include "workloads/graph.h"
#include "workloads/text.h"

namespace jobbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Tuple layouts of the two apps' input partitions (the apps keep theirs
// private): a document is a string, a sort key a 64-bit integer, each
// charged with the apps' managed-object overhead.
struct DocTraits {
  using Tuple = std::string;
  static std::uint64_t SizeOf(const Tuple& t) { return t.size() + 48; }
  static void Write(itask::serde::Writer& w, const Tuple& t) { w.WriteString(t); }
  static Tuple Read(itask::serde::Reader& r) { return r.ReadString(); }
};
struct KeyTraits {
  using Tuple = std::uint64_t;
  static std::uint64_t SizeOf(const Tuple&) { return 48; }
  static void Write(itask::serde::Writer& w, const Tuple& t) { w.WriteU64(t); }
  static Tuple Read(itask::serde::Reader& r) { return r.ReadU64(); }
};

// The first |prefix_bytes| of the workload's input. The generators stream,
// so a shorter target yields exactly the prefix of the full input.
std::vector<std::string> InputDocs(const Workload& w, std::uint64_t seed, std::uint64_t prefix_bytes) {
  itask::workloads::TextConfig tc = WordCountInput(w.input_bytes, seed);
  tc.target_bytes = prefix_bytes;
  std::vector<std::string> docs;
  itask::workloads::ForEachDocument(tc, [&](const std::string& d) { docs.push_back(d); });
  return docs;
}

std::vector<std::uint64_t> InputKeys(const Workload& w, std::uint64_t seed, std::uint64_t prefix_bytes) {
  itask::workloads::GraphConfig gc = HeapSortInput(w.input_bytes, seed);
  gc.num_edges = std::min<std::uint64_t>(gc.num_edges, prefix_bytes / sizeof(itask::workloads::Edge));
  std::vector<std::uint64_t> keys;
  itask::workloads::ForEachEdge(gc, [&](const itask::workloads::Edge& e) { keys.push_back(SortKey(e)); });
  return keys;
}

// Workload input partitions of the app's granularity, built on |heap|.
std::vector<itask::core::PartitionPtr> InputPartitions(const Workload& w, std::uint64_t seed,
                                                      std::uint64_t prefix_bytes,
                                                      itask::memsim::ManagedHeap* heap,
                                                      itask::serde::SpillManager* spill) {
  std::vector<itask::core::PartitionPtr> parts;
  const itask::core::TypeId type = itask::core::TypeIds::Get("jobbench.in");
  const auto fill = [&](auto traits_tag, const auto& tuples) {
    using Traits = decltype(traits_tag);
    std::shared_ptr<itask::core::VectorPartition<Traits>> cur;
    std::uint64_t bytes = 0;
    for (const auto& t : tuples) {
      if (cur == nullptr) {
        cur = std::make_shared<itask::core::VectorPartition<Traits>>(type, heap, spill);
      }
      cur->Append(t);
      bytes += Traits::SizeOf(t);
      if (bytes >= w.granularity_bytes) {
        parts.push_back(std::move(cur));
        cur.reset();
        bytes = 0;
      }
    }
    if (cur != nullptr) {
      parts.push_back(std::move(cur));
    }
  };
  if (w.app == "HS") {
    fill(KeyTraits{}, InputKeys(w, seed, prefix_bytes));
  } else {
    fill(DocTraits{}, InputDocs(w, seed, prefix_bytes));
  }
  return parts;
}

std::vector<itask::common::ByteBuffer> Serialized(const std::vector<itask::core::PartitionPtr>& parts) {
  std::vector<itask::common::ByteBuffer> blocks(parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    itask::serde::Writer writer(&blocks[i]);
    parts[i]->SerializeTo(writer);
  }
  return blocks;
}

constexpr std::uint64_t kPrefixBytes = 2 << 20;  // Input prefix the timings use.
constexpr int kReps = 5;

// workloads: the generator alone, over one job's whole input.
Metric GeneratorSeconds(const Workload& w, std::uint64_t seed) {
  std::vector<double> v;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t sink = 0;  // Consumes every tuple, so none is optimized away.
    const Clock::time_point t0 = Clock::now();
    if (w.app == "HS") {
      itask::workloads::ForEachEdge(HeapSortInput(w.input_bytes, seed),
                                    [&](const itask::workloads::Edge& e) { sink += e.dst; });
    } else {
      itask::workloads::ForEachDocument(WordCountInput(w.input_bytes, seed),
                                        [&](const std::string& d) { sink += d.size(); });
    }
    v.push_back(SecondsSince(t0));
    if (sink == 0) {
      throw std::runtime_error("workload generator produced no input");
    }
  }
  return Metric{"workloads.gen_s", Median(v), "s", v.size()};
}

// memsim: one Allocate + Free pair of an input tuple's managed size, on a
// heap of the workload's capacity. Collections are accounted, not spun.
Metric AllocFreeNanos(const Workload& w, std::uint64_t seed) {
  std::vector<std::uint64_t> sizes;
  if (w.app == "HS") {
    sizes.assign(4096, KeyTraits::SizeOf(0));
  } else {
    for (const std::string& d : InputDocs(w, seed, 256 << 10)) {
      sizes.push_back(DocTraits::SizeOf(d));
    }
  }
  itask::memsim::HeapConfig hc;
  hc.capacity_bytes = w.heap_bytes;
  hc.real_pauses = false;
  itask::memsim::ManagedHeap heap(hc);
  constexpr std::size_t kPairs = 200'000;
  std::vector<double> v;
  for (int rep = 0; rep < kReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < kPairs; ++i) {
      const std::uint64_t bytes = sizes[i % sizes.size()];
      heap.Allocate(bytes);
      heap.Free(bytes);
    }
    v.push_back(SecondsSince(t0) * 1e9 / kPairs);
  }
  return Metric{"memsim.alloc_free_ns", Median(v), "ns", v.size()};
}

// itask: one PartitionQueue Push + PopOne of a resident input partition.
Metric QueueNanos(const Workload& w, std::uint64_t seed, const std::string& workdir) {
  itask::memsim::HeapConfig hc;
  hc.capacity_bytes = 1ULL << 30;
  hc.real_pauses = false;
  itask::memsim::ManagedHeap heap(hc);
  itask::serde::SpillManager spill(workdir, "jobbench-queue");
  const std::vector<itask::core::PartitionPtr> parts =
      InputPartitions(w, seed, 512 << 10, &heap, &spill);
  itask::core::JobState state;
  itask::core::PartitionQueue queue(&state);
  const itask::core::TypeId type = parts.front()->type();
  constexpr int kRounds = 2'000;
  std::vector<double> v;
  for (int rep = 0; rep < kReps; ++rep) {
    std::size_t ops = 0;
    const Clock::time_point t0 = Clock::now();
    for (int round = 0; round < kRounds; ++round) {
      for (const itask::core::PartitionPtr& p : parts) {
        queue.Push(p);
      }
      while (queue.PopOne(type) != nullptr) {
        ++ops;
      }
    }
    v.push_back(SecondsSince(t0) * 1e9 / static_cast<double>(ops));
  }
  return Metric{"itask.queue_ns", Median(v), "ns", v.size()};
}

// io: FrameCodec Encode + Decode of serialized input blocks.
Metric CodecMegabytesPerSecond(const Workload& w, std::uint64_t seed, const std::string& workdir) {
  itask::memsim::HeapConfig hc;
  hc.capacity_bytes = 1ULL << 30;
  hc.real_pauses = false;
  itask::memsim::ManagedHeap heap(hc);
  itask::serde::SpillManager spill(workdir, "jobbench-codec");
  const std::vector<itask::common::ByteBuffer> blocks =
      Serialized(InputPartitions(w, seed, kPrefixBytes, &heap, &spill));
  std::vector<double> v;
  for (int rep = 0; rep < kReps; ++rep) {
    std::uint64_t raw_bytes = 0;
    const Clock::time_point t0 = Clock::now();
    for (const itask::common::ByteBuffer& raw : blocks) {
      itask::common::ByteBuffer framed;
      itask::common::ByteBuffer back;
      itask::io::FrameCodec::Encode(raw, &framed, /*compress=*/true);
      itask::io::FrameCodec::Decode(framed, &back);
      raw_bytes += back.size();
    }
    v.push_back(static_cast<double>(raw_bytes) / (1024.0 * 1024.0) / SecondsSince(t0));
  }
  return Metric{"io.codec_mb_per_s", Median(v), "MiB/s", v.size()};
}

// net: one shuffle-sized message over loopback TCP and its ack back, stop
// and wait, as the fault-tolerant shuffle sends them.
Metric SendAckMicros(const Workload& w, std::uint64_t seed, const std::string& workdir) {
  itask::memsim::HeapConfig hc;
  hc.capacity_bytes = 1ULL << 30;
  hc.real_pauses = false;
  itask::memsim::ManagedHeap heap(hc);
  itask::serde::SpillManager spill(workdir, "jobbench-net");
  const std::vector<itask::common::ByteBuffer> blocks =
      Serialized(InputPartitions(w, seed, 512 << 10, &heap, &spill));

  // Declared before the transport, so its threads are gone before these are.
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t acked = 0;  // Guarded by mu.
  itask::net::NetConfig nc;
  nc.kind = itask::net::TransportKind::kTcp;
  std::unique_ptr<itask::net::Transport> transport = itask::net::MakeTransport(nc);
  transport->RegisterEndpoint(0, [&](itask::net::Message&& msg) {
    itask::net::Message ack;
    ack.kind = itask::net::MsgKind::kShuffleAck;
    ack.src = 0;
    ack.dst = msg.src;
    ack.seq = msg.seq;
    transport->Send(std::move(ack));
  });
  transport->RegisterEndpoint(1, [&](itask::net::Message&& msg) {
    std::lock_guard lock(mu);
    acked = std::max(acked, msg.seq);
    cv.notify_all();
  });
  constexpr int kMessages = 600;
  std::vector<double> v;
  for (int i = 1; i <= kMessages; ++i) {
    itask::net::Message msg;
    msg.kind = itask::net::MsgKind::kShuffleData;
    msg.src = 1;
    msg.dst = 0;
    msg.seq = static_cast<std::uint64_t>(i);
    msg.payload = blocks[static_cast<std::size_t>(i) % blocks.size()];
    const Clock::time_point t0 = Clock::now();
    if (!transport->Send(std::move(msg))) {
      break;
    }
    std::unique_lock lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(2),
                     [&] { return acked >= static_cast<std::uint64_t>(i); })) {
      break;
    }
    v.push_back(SecondsSince(t0) * 1e6);
  }
  transport->CloseEndpoint(1);
  transport->CloseEndpoint(0);
  return Metric{"net.send_ack_us", Median(v), "us", v.size()};
}

// itask.recovery: CommitEpoch of one input split with one staged shuffle
// output, delivered over a loopback-TCP shuffle fabric and acked.
Metric CommitMicros(const Workload& w, std::uint64_t seed, const std::string& workdir) {
  itask::memsim::HeapConfig hc;
  hc.capacity_bytes = 1ULL << 30;
  hc.real_pauses = false;
  itask::memsim::ManagedHeap heap(hc);
  itask::serde::SpillManager spill(workdir, "jobbench-commit");
  std::vector<itask::core::PartitionPtr> parts = InputPartitions(w, seed, 4 << 20, &heap, &spill);

  itask::core::RecoveryContext rec(itask::core::RecoveryConfig{}, /*num_nodes=*/2);
  const itask::core::TypeId type = parts.front()->type();
  if (w.app == "HS") {
    rec.RegisterFactory(type, [type](itask::memsim::ManagedHeap* h, itask::serde::SpillManager* s) {
      return std::make_shared<itask::core::VectorPartition<KeyTraits>>(type, h, s);
    });
  } else {
    rec.RegisterFactory(type, [type](itask::memsim::ManagedHeap* h, itask::serde::SpillManager* s) {
      return std::make_shared<itask::core::VectorPartition<DocTraits>>(type, h, s);
    });
  }
  for (int node = 0; node < 2; ++node) {
    itask::core::RecoveryNodeHooks hooks;
    hooks.heap = &heap;
    hooks.spill = &spill;
    hooks.push = [](itask::core::PartitionPtr p) { p->DropPayload(); };
    hooks.sink = [](itask::core::PartitionPtr p) { p->DropPayload(); };
    rec.SetNodeHooks(node, std::move(hooks));
  }
  itask::net::NetConfig nc;
  nc.kind = itask::net::TransportKind::kTcp;
  itask::net::ShuffleFabric fabric(nc, &rec, /*num_nodes=*/2);

  // Each input partition is registered as a split on node 0; the next one
  // stands in for its map output, homed on node 1.
  std::vector<double> v;
  for (std::size_t i = 0; i + 1 < parts.size(); i += 2) {
    const std::int64_t split = rec.RegisterSplit(*parts[i], 0);
    parts[i + 1]->set_origin(split, 0);
    if (!rec.StageShuffle(0, 1, parts[i + 1])) {
      break;
    }
    const Clock::time_point t0 = Clock::now();
    rec.CommitEpoch(0, split, 0);
    v.push_back(SecondsSince(t0) * 1e6);
    parts[i]->DropPayload();
  }
  return Metric{"itask.recovery.commit_us", Median(v), "us", v.size()};
}

}  // namespace

std::vector<Metric> MeasureLayers(const Workload& w, std::uint64_t seed, const std::string& workdir) {
  const std::filesystem::path dir = std::filesystem::path(workdir) / "layers";
  std::filesystem::create_directories(dir);
  std::vector<Metric> out;
  out.push_back(GeneratorSeconds(w, seed));
  out.push_back(AllocFreeNanos(w, seed));
  out.push_back(QueueNanos(w, seed, dir.string()));
  out.push_back(CodecMegabytesPerSecond(w, seed, dir.string()));
  out.push_back(SendAckMicros(w, seed, dir.string()));
  out.push_back(CommitMicros(w, seed, dir.string()));
  std::filesystem::remove_all(dir);
  return out;
}

}  // namespace jobbench
