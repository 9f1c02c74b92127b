#include "serde/spill_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include "common/logging.h"
#include "common/spin.h"

namespace itask::serde {
namespace {

// Calls |op(done)| (one pread or pwrite of the bytes not yet moved) until |n|
// bytes moved, retrying EINTR. Returns the bytes moved: fewer than |n| on end
// of file or an error, and then errno says which.
template <class Op>
std::uint64_t TransferAll(std::uint64_t n, Op op) {
  std::uint64_t done = 0;
  while (done < n) {
    const ssize_t r = op(done);
    if (r < 0 && errno == EINTR) {
      continue;
    }
    if (r <= 0) {
      break;
    }
    done += static_cast<std::uint64_t>(r);
  }
  return done;
}

}  // namespace

SpillManager::SpillManager(const std::filesystem::path& root, const std::string& node_name) {
  static std::atomic<std::uint64_t> instances{0};
  dir_ = root / ("itask-spill-" + node_name + "-" + std::to_string(::getpid()) + "-" +
                 std::to_string(instances.fetch_add(1, std::memory_order_relaxed)));
  std::filesystem::create_directories(dir_);
}

SpillManager::~SpillManager() {
  for (const auto& [index, segment] : segments_) {
    ::close(segment->fd);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
  if (ec) {
    LOG_WARN() << "failed to remove spill dir " << dir_.string() << ": " << ec.message();
  }
}

std::filesystem::path SpillManager::SegmentPath(std::uint64_t index) const {
  return dir_ / ("seg-" + std::to_string(index) + ".log");
}

std::unique_ptr<SpillManager::Segment> SpillManager::OpenSegment() {
  auto segment = std::make_unique<Segment>();
  segment->index = next_segment_.fetch_add(1, std::memory_order_relaxed);
  const std::filesystem::path path = SegmentPath(segment->index);
  segment->fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0600);
  if (segment->fd < 0) {
    throw std::runtime_error("SpillManager: cannot create " + path.string() + ": " +
                             std::strerror(errno));
  }
  return segment;
}

void SpillManager::CloseSegment(std::unique_ptr<Segment> segment) const {
  if (segment == nullptr) {
    return;
  }
  ::close(segment->fd);
  ::unlink(SegmentPath(segment->index).c_str());
}

bool SpillManager::ReserveLocked(std::uint64_t bytes, std::unique_ptr<Segment>* fresh,
                                 Extent* extent) {
  // An empty active segment takes a spill of any size.
  const bool fits =
      active_ != nullptr && (active_->end == 0 || active_->end + bytes <= kSegmentBytes);
  if (!fits) {
    if (*fresh == nullptr) {
      return false;
    }
    // Seal the active segment. It is not empty, so it has live extents, and
    // the last of them to die unlinks it.
    active_ = fresh->get();
    segments_.emplace(active_->index, std::move(*fresh));
  }
  extent->segment = active_;
  extent->offset = active_->end;
  extent->bytes = bytes;
  active_->end += bytes;
  ++active_->live;
  return true;
}

std::unique_ptr<SpillManager::Segment> SpillManager::DropExtentLocked(Segment* segment) {
  if (--segment->live != 0) {
    return nullptr;
  }
  if (segment == active_) {
    segment->end = 0;  // Empty: reuse its blocks in place.
    return nullptr;
  }
  auto it = segments_.find(segment->index);
  std::unique_ptr<Segment> dead = std::move(it->second);
  segments_.erase(it);
  return dead;
}

void SpillManager::SetFailureInjection(const SpillFailureInjection& injection) {
  std::lock_guard lock(mu_);
  inject_ = injection;
  inject_ops_.store(0, std::memory_order_relaxed);
  inject_rng_.store(injection.seed != 0 ? injection.seed : 0x5eedf00dULL,
                    std::memory_order_relaxed);
}

void SpillManager::MaybeInjectFailure(bool is_write) {
  SpillFailureInjection inject;
  {
    std::lock_guard lock(mu_);
    inject = inject_;
  }
  if (!inject.enabled()) {
    return;
  }
  bool fail = false;
  if (inject.every_nth != 0) {
    const std::uint64_t op = inject_ops_.fetch_add(1, std::memory_order_relaxed) + 1;
    fail = (op % inject.every_nth) == 0;
  }
  const double prob = is_write ? inject.write_probability : inject.read_probability;
  if (!fail && prob > 0.0) {
    // Private xorshift64* stream: deterministic for a fixed seed and op order.
    std::uint64_t x = inject_rng_.load(std::memory_order_relaxed);
    std::uint64_t next;
    do {
      next = x;
      next ^= next >> 12;
      next ^= next << 25;
      next ^= next >> 27;
    } while (!inject_rng_.compare_exchange_weak(x, next, std::memory_order_relaxed));
    const double draw =
        static_cast<double>((next * 0x2545F4914F6CDD1DULL) >> 11) / static_cast<double>(1ULL << 53);
    fail = draw < prob;
  }
  if (fail) {
    {
      std::lock_guard lock(mu_);
      ++stats_.injected_failures;
    }
    throw std::runtime_error(std::string("SpillManager: injected ") +
                             (is_write ? "write" : "read") + " failure");
  }
}

SpillManager::SpillId SpillManager::Spill(const common::ByteBuffer& buffer, int /*priority*/) {
  common::Stopwatch watch;
  const std::uint64_t bytes = buffer.size();
  SpillId id = 0;
  Extent extent;
  std::unique_ptr<Segment> fresh;
  while (true) {
    {
      std::lock_guard lock(mu_);
      if (ReserveLocked(bytes, &fresh, &extent)) {
        id = next_id_++;
        break;
      }
    }
    fresh = OpenSegment();  // Rotation: create the next segment with no lock held.
  }
  CloseSegment(std::move(fresh));  // Non-null only if another writer rotated first.

  // A failed write burns only its reserved range: it records no extent and
  // leaves stats untouched.
  const auto burn = [&] {
    std::unique_ptr<Segment> dead;
    {
      std::lock_guard lock(mu_);
      dead = DropExtentLocked(extent.segment);
    }
    CloseSegment(std::move(dead));
  };
  try {
    MaybeInjectFailure(/*is_write=*/true);
  } catch (...) {
    burn();
    throw;
  }
  const int fd = extent.segment->fd;
  const std::uint64_t written = TransferAll(bytes, [&](std::uint64_t done) {
    return ::pwrite(fd, buffer.data() + done, bytes - done,
                    static_cast<off_t>(extent.offset + done));
  });
  if (written != bytes) {
    const std::string what = "SpillManager: write failed for " +
                             SegmentPath(extent.segment->index).string() + ": " +
                             std::strerror(errno);
    burn();
    throw std::runtime_error(what);
  }
  {
    std::lock_guard lock(mu_);
    extents_.emplace(id, extent);
    stats_.spilled_bytes += bytes;
    ++stats_.spill_count;
    ++stats_.live_files;
    stats_.live_file_bytes += bytes;
    stats_.write_ms += watch.ElapsedMs();
  }
  if (tracer_ != nullptr) {
    tracer_->Emit(obs::EventKind::kSpillWrite, trace_node_, bytes);
  }
  return id;
}

common::ByteBuffer SpillManager::LoadAndRemove(SpillId id) {
  common::Stopwatch watch;
  {
    std::lock_guard lock(mu_);
    if (extents_.find(id) == extents_.end()) {
      throw std::runtime_error("SpillManager: unknown spill id " + std::to_string(id));
    }
  }
  // Injected read failures fire before any state changes, so the spill
  // stays loadable on retry.
  MaybeInjectFailure(/*is_write=*/false);
  Extent extent;
  {
    std::lock_guard lock(mu_);
    auto it = extents_.find(id);
    if (it == extents_.end()) {
      throw std::runtime_error("SpillManager: spill id " + std::to_string(id) +
                               " removed while loading");
    }
    // Claim the extent: a concurrent Remove of |id| now no-ops, and the
    // segment's live count keeps the blocks from reuse until the read ends.
    extent = it->second;
    extents_.erase(it);
  }
  std::vector<std::uint8_t> data(extent.bytes);
  const int fd = extent.segment->fd;
  const std::uint64_t read = TransferAll(extent.bytes, [&](std::uint64_t done) {
    return ::pread(fd, data.data() + done, extent.bytes - done,
                   static_cast<off_t>(extent.offset + done));
  });
  if (read != extent.bytes) {
    {
      std::lock_guard lock(mu_);
      extents_.emplace(id, extent);  // Still loadable.
    }
    throw std::runtime_error("SpillManager: short read from " +
                             SegmentPath(extent.segment->index).string());
  }
  std::unique_ptr<Segment> dead;
  {
    std::lock_guard lock(mu_);
    --stats_.live_files;
    stats_.live_file_bytes -= extent.bytes;
    stats_.loaded_bytes += extent.bytes;
    ++stats_.load_count;
    stats_.read_ms += watch.ElapsedMs();
    dead = DropExtentLocked(extent.segment);
  }
  CloseSegment(std::move(dead));
  if (tracer_ != nullptr) {
    tracer_->Emit(obs::EventKind::kSpillRead, trace_node_, extent.bytes);
  }
  return common::ByteBuffer(std::move(data));
}

void SpillManager::Remove(SpillId id) {
  std::unique_ptr<Segment> dead;
  {
    std::lock_guard lock(mu_);
    auto it = extents_.find(id);
    if (it == extents_.end()) {
      return;
    }
    const Extent extent = it->second;
    extents_.erase(it);
    --stats_.live_files;
    stats_.live_file_bytes -= extent.bytes;
    dead = DropExtentLocked(extent.segment);
  }
  CloseSegment(std::move(dead));
}

std::future<common::ByteBuffer> SpillManager::LoadAsync(SpillId id, int /*priority*/) {
  std::promise<common::ByteBuffer> promise;
  std::future<common::ByteBuffer> future = promise.get_future();
  try {
    promise.set_value(LoadAndRemove(id));
  } catch (...) {
    promise.set_exception(std::current_exception());
  }
  return future;
}

SpillStats SpillManager::Stats() const {
  std::lock_guard lock(mu_);
  SpillStats stats = stats_;
  stats.load_retries = load_retries_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace itask::serde
