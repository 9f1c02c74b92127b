#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/byte_buffer.h"
#include "common/rng.h"
#include "serde/serializer.h"
#include "serde/spill_manager.h"

namespace itask::serde {
namespace {

TEST(SerializerTest, VarintRoundTrip) {
  common::ByteBuffer buf;
  Writer w(&buf);
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 1ULL << 20, 1ULL << 40, ~0ULL};
  for (auto v : values) {
    w.WriteVarint(v);
  }
  Reader r(&buf);
  for (auto v : values) {
    EXPECT_EQ(r.ReadVarint(), v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializerTest, VarintRoundTripRandomized) {
  common::Rng rng(1234);
  common::ByteBuffer buf;
  Writer w(&buf);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 10'000; ++i) {
    // Mix of magnitudes.
    const int shift = static_cast<int>(rng.NextBelow(64));
    values.push_back(rng.NextU64() >> shift);
    w.WriteVarint(values.back());
  }
  Reader r(&buf);
  for (auto v : values) {
    ASSERT_EQ(r.ReadVarint(), v);
  }
}

TEST(SerializerTest, ZigZagRoundTrip) {
  const std::int64_t values[] = {0, -1, 1, -1000, 1000, INT64_MIN, INT64_MAX};
  for (auto v : values) {
    EXPECT_EQ(Reader::UnZigZag(Writer::ZigZag(v)), v);
  }
}

TEST(SerializerTest, SignedRoundTrip) {
  common::ByteBuffer buf;
  Writer w(&buf);
  w.WriteI64(-42);
  w.WriteI64(42);
  Reader r(&buf);
  EXPECT_EQ(r.ReadI64(), -42);
  EXPECT_EQ(r.ReadI64(), 42);
}

TEST(SerializerTest, StringRoundTrip) {
  common::ByteBuffer buf;
  Writer w(&buf);
  w.WriteString("");
  w.WriteString("hello");
  w.WriteString(std::string(10'000, 'z'));
  Reader r(&buf);
  EXPECT_EQ(r.ReadString(), "");
  EXPECT_EQ(r.ReadString(), "hello");
  EXPECT_EQ(r.ReadString().size(), 10'000u);
}

TEST(SerializerTest, MixedPayloadRoundTrip) {
  common::ByteBuffer buf;
  Writer w(&buf);
  w.WriteU8(7);
  w.WriteU32(0xdeadbeef);
  w.WriteU64(1ULL << 50);
  w.WriteDouble(2.718);
  w.WriteString("key");
  Reader r(&buf);
  EXPECT_EQ(r.ReadU8(), 7);
  EXPECT_EQ(r.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadU64(), 1ULL << 50);
  EXPECT_EQ(r.ReadDouble(), 2.718);
  EXPECT_EQ(r.ReadString(), "key");
}

class SpillManagerTest : public ::testing::Test {
 protected:
  SpillManagerTest() : spill_(std::filesystem::temp_directory_path(), "test") {}
  SpillManager spill_;
};

TEST_F(SpillManagerTest, SpillLoadRoundTrip) {
  common::ByteBuffer buf;
  Writer w(&buf);
  w.WriteString("payload");
  w.WriteU64(99);
  const auto id = spill_.Spill(buf);
  common::ByteBuffer loaded = spill_.LoadAndRemove(id);
  Reader r(&loaded);
  EXPECT_EQ(r.ReadString(), "payload");
  EXPECT_EQ(r.ReadU64(), 99u);
}

TEST_F(SpillManagerTest, StatsTrackBytes) {
  common::ByteBuffer buf;
  buf.bytes().resize(1000, 0x5a);
  const auto id1 = spill_.Spill(buf);
  const auto id2 = spill_.Spill(buf);
  auto stats = spill_.Stats();
  EXPECT_EQ(stats.spilled_bytes, 2000u);
  EXPECT_EQ(stats.live_files, 2u);
  spill_.LoadAndRemove(id1);
  spill_.Remove(id2);
  stats = spill_.Stats();
  EXPECT_EQ(stats.loaded_bytes, 1000u);
  EXPECT_EQ(stats.live_files, 0u);
  EXPECT_EQ(stats.live_file_bytes, 0u);
}

TEST_F(SpillManagerTest, LoadUnknownIdThrows) {
  EXPECT_THROW(spill_.LoadAndRemove(12345), std::runtime_error);
}

TEST_F(SpillManagerTest, LoadedFileIsRemovedFromDisk) {
  common::ByteBuffer buf;
  buf.bytes().resize(10, 1);
  const auto id = spill_.Spill(buf);
  spill_.LoadAndRemove(id);
  EXPECT_THROW(spill_.LoadAndRemove(id), std::runtime_error);
}

TEST(SpillManagerLifetimeTest, DirectoryRemovedOnDestruction) {
  std::filesystem::path dir;
  {
    SpillManager spill(std::filesystem::temp_directory_path(), "lifetime");
    dir = spill.directory();
    EXPECT_TRUE(std::filesystem::exists(dir));
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
}

// ---- The spill log: segment rotation, reclaim, failures, concurrency ----

// A payload whose every byte depends on |tag|, so a load that returns another
// spill's bytes (or stale bytes of a reused range) shows.
common::ByteBuffer TaggedPayload(std::uint64_t tag, std::size_t size) {
  common::Rng rng(tag * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<std::uint8_t> data(size);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng.NextBelow(256));
  }
  return common::ByteBuffer(std::move(data));
}

std::size_t SegmentFiles(const std::filesystem::path& dir) {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    n += entry.is_regular_file() ? 1 : 0;
  }
  return n;
}

TEST(SpillLogTest, SpillLoadRemoveAcrossSegmentRotation) {
  SpillManager spill(std::filesystem::temp_directory_path(), "log-rotate");
  // Five spills of a third of a segment need at least two segments.
  const std::size_t size = SpillManager::kSegmentBytes / 3 + 7;
  std::vector<SpillManager::SpillId> ids;
  for (std::uint64_t tag = 0; tag < 5; ++tag) {
    ids.push_back(spill.Spill(TaggedPayload(tag, size)));
  }
  EXPECT_GE(SegmentFiles(spill.directory()), 2u);
  EXPECT_EQ(spill.LoadAndRemove(ids[3]).bytes(), TaggedPayload(3, size).bytes());
  spill.Remove(ids[1]);
  EXPECT_EQ(spill.LoadAndRemove(ids[0]).bytes(), TaggedPayload(0, size).bytes());
  // A spill larger than a segment gets one to itself.
  const auto big = spill.Spill(TaggedPayload(9, SpillManager::kSegmentBytes + 11));
  EXPECT_EQ(spill.LoadAndRemove(ids[4]).bytes(), TaggedPayload(4, size).bytes());
  EXPECT_EQ(spill.LoadAndRemove(big).bytes(),
            TaggedPayload(9, SpillManager::kSegmentBytes + 11).bytes());
  EXPECT_EQ(spill.LoadAndRemove(ids[2]).bytes(), TaggedPayload(2, size).bytes());
  const SpillStats stats = spill.Stats();
  EXPECT_EQ(stats.spill_count, 6u);
  EXPECT_EQ(stats.load_count, 5u);
  EXPECT_EQ(stats.live_files, 0u);
}

TEST(SpillLogTest, DrainedLogKeepsAtMostOneSegment) {
  SpillManager spill(std::filesystem::temp_directory_path(), "log-reclaim");
  std::vector<SpillManager::SpillId> ids;
  for (std::uint64_t tag = 0; tag < 40; ++tag) {
    ids.push_back(spill.Spill(TaggedPayload(tag, SpillManager::kSegmentBytes / 8 + tag)));
  }
  EXPECT_GE(SegmentFiles(spill.directory()), 5u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i % 2 == 0) {
      spill.LoadAndRemove(ids[i]);
    } else {
      spill.Remove(ids[i]);
    }
  }
  SpillStats stats = spill.Stats();
  EXPECT_EQ(stats.live_files, 0u);
  EXPECT_EQ(stats.live_file_bytes, 0u);
  EXPECT_LE(SegmentFiles(spill.directory()), 1u);

  // The emptied active segment is reused in place: a second round of small
  // spills creates no file and does not grow the one that is left.
  const auto active = std::filesystem::directory_iterator(spill.directory())->path();
  const auto active_size = std::filesystem::file_size(active);
  for (std::uint64_t tag = 100; tag < 110; ++tag) {
    const auto id = spill.Spill(TaggedPayload(tag, 4096));
    EXPECT_EQ(spill.LoadAndRemove(id).bytes(), TaggedPayload(tag, 4096).bytes());
  }
  EXPECT_EQ(SegmentFiles(spill.directory()), 1u);
  EXPECT_EQ(std::filesystem::file_size(active), active_size);
  stats = spill.Stats();
  EXPECT_EQ(stats.live_files, 0u);
}

TEST(SpillLogTest, InjectedWriteFailureMidSegmentKeepsNeighboursLoadable) {
  SpillManager spill(std::filesystem::temp_directory_path(), "log-fail");
  SpillFailureInjection inject;
  inject.every_nth = 3;  // The third op (a spill) fails.
  spill.SetFailureInjection(inject);
  const auto a = spill.Spill(TaggedPayload(1, 5000));
  const auto b = spill.Spill(TaggedPayload(2, 6000));
  EXPECT_THROW(spill.Spill(TaggedPayload(3, 7000)), std::runtime_error);
  const auto d = spill.Spill(TaggedPayload(4, 8000));
  spill.SetFailureInjection({});

  SpillStats stats = spill.Stats();
  EXPECT_EQ(stats.injected_failures, 1u);
  EXPECT_EQ(stats.spill_count, 3u);
  EXPECT_EQ(stats.spilled_bytes, 5000u + 6000u + 8000u);
  EXPECT_EQ(stats.live_files, 3u);
  EXPECT_EQ(spill.LoadAndRemove(d).bytes(), TaggedPayload(4, 8000).bytes());
  EXPECT_EQ(spill.LoadAndRemove(a).bytes(), TaggedPayload(1, 5000).bytes());
  EXPECT_EQ(spill.LoadAndRemove(b).bytes(), TaggedPayload(2, 6000).bytes());
  EXPECT_EQ(spill.Stats().live_files, 0u);
  EXPECT_LE(SegmentFiles(spill.directory()), 1u);
}

TEST(SpillLogTest, ShortReadThrowsAndKeepsTheSpill) {
  SpillManager spill(std::filesystem::temp_directory_path(), "log-short");
  const auto id = spill.Spill(TaggedPayload(5, 4096));
  for (const auto& entry : std::filesystem::directory_iterator(spill.directory())) {
    std::filesystem::resize_file(entry.path(), 100);
  }
  EXPECT_THROW(spill.LoadAndRemove(id), std::runtime_error);
  EXPECT_EQ(spill.Stats().live_files, 1u);
  EXPECT_EQ(spill.Stats().load_count, 0u);
  spill.Remove(id);
  EXPECT_EQ(spill.Stats().live_files, 0u);
}

TEST(SpillLogStressTest, ConcurrentSpillLoadRemoveAcrossRotation) {
  SpillManager spill(std::filesystem::temp_directory_path(), "log-stress");
  constexpr int kThreads = 4;
  constexpr int kOps = 300;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&spill, &mismatches, t] {
      common::Rng rng(static_cast<std::uint64_t>(t) + 77);
      struct Held {
        SpillManager::SpillId id;
        std::uint64_t tag;
        std::size_t size;
      };
      std::vector<Held> held;
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t tag = static_cast<std::uint64_t>(t) * 100000 + i;
        // Mostly workload-sized spills, now and then one of 256 KiB.
        const std::size_t size = rng.NextBelow(8) == 0 ? (256 << 10) : 1 + rng.NextBelow(16 << 10);
        held.push_back({spill.Spill(TaggedPayload(tag, size)), tag, size});
        while (held.size() > 8 || (!held.empty() && rng.NextBelow(3) == 0)) {
          const std::size_t pick = rng.NextBelow(held.size());
          const Held h = held[pick];
          held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
          if (rng.NextBelow(4) == 0) {
            spill.Remove(h.id);
          } else if (spill.LoadAndRemove(h.id).bytes() != TaggedPayload(h.tag, h.size).bytes()) {
            ++mismatches[static_cast<std::size_t>(t)];
          }
        }
      }
      for (const Held& h : held) {
        if (spill.LoadAndRemove(h.id).bytes() != TaggedPayload(h.tag, h.size).bytes()) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
  const SpillStats stats = spill.Stats();
  EXPECT_EQ(stats.spill_count, static_cast<std::uint64_t>(kThreads * kOps));
  EXPECT_EQ(stats.live_files, 0u);
  EXPECT_EQ(stats.live_file_bytes, 0u);
  EXPECT_LE(SegmentFiles(spill.directory()), 1u);
}

}  // namespace
}  // namespace itask::serde
