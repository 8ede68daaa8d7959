#include "reservoir/chunk_cache.h"

#include <algorithm>
#include <iterator>

namespace railgun::reservoir {

namespace {

// How far the next reader of `seq` trails it, in chunks: the nearest
// reader strictly behind. UINT64_MAX when no reader trails it.
uint64_t NextReaderLag(ChunkSeq seq, const std::vector<ChunkSeq>& readers) {
  auto it = std::lower_bound(readers.begin(), readers.end(), seq);
  if (it == readers.begin()) return UINT64_MAX;
  return seq - *std::prev(it);
}

}  // namespace

void ChunkCache::EvictOneLocked(const std::vector<ChunkSeq>& readers) {
  // Walk from the LRU end, so that the least recent of equal lags wins.
  auto victim = lru_.rbegin();
  uint64_t victim_lag = 0;
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    const uint64_t lag = NextReaderLag(*it, readers);
    if (lag > victim_lag) {
      victim = it;
      victim_lag = lag;
      if (lag == UINT64_MAX) break;  // Never read again: nothing beats it.
    }
  }
  map_.erase(*victim);
  lru_.erase(std::next(victim).base());
  ++stats_.evictions;
}

void ChunkCache::Insert(const std::shared_ptr<Chunk>& chunk,
                        const std::vector<ChunkSeq>& readers) {
  MutexLock lock(&mu_);
  const ChunkSeq seq = chunk->seq();
  auto it = map_.find(seq);
  if (it != map_.end()) {
    lru_.erase(it->second.lru_pos);
    lru_.push_front(seq);
    it->second.lru_pos = lru_.begin();
    it->second.chunk = chunk;
    return;
  }
  while (map_.size() >= capacity_ && !lru_.empty()) {
    EvictOneLocked(readers);
  }
  lru_.push_front(seq);
  map_[seq] = Entry{chunk, lru_.begin()};
  ++stats_.inserts;
}

std::shared_ptr<Chunk> ChunkCache::Get(ChunkSeq seq) {
  MutexLock lock(&mu_);
  auto it = map_.find(seq);
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.erase(it->second.lru_pos);
  lru_.push_front(seq);
  it->second.lru_pos = lru_.begin();
  return it->second.chunk;
}

bool ChunkCache::Contains(ChunkSeq seq) const {
  MutexLock lock(&mu_);
  return map_.count(seq) > 0;
}

size_t ChunkCache::size() const {
  MutexLock lock(&mu_);
  return map_.size();
}

ChunkCache::Stats ChunkCache::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

}  // namespace railgun::reservoir
