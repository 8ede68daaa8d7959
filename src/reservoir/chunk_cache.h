// Cache of decoded chunks, sized in chunk elements (paper §5.2 used
// 220). Iterators hold shared_ptr pins, so an evicted-but-iterated chunk
// stays alive; eviction only drops the cache's reference. Tracks the hit
// and miss statistics that drive the Figure 9(b) analysis.
//
// Eviction looks ahead to the next reader. Window iterators only move
// forward, so the next lookup of a resident chunk comes from the
// nearest iterator positioned strictly behind it (one positioned in the
// chunk already pins it). A full cache evicts a chunk no iterator
// trails first, and otherwise the chunk whose next reader is farthest
// behind; recency breaks ties, so with no readers this is plain LRU.
#ifndef RAILGUN_RESERVOIR_CHUNK_CACHE_H_
#define RAILGUN_RESERVOIR_CHUNK_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "reservoir/chunk.h"

namespace railgun::reservoir {

class ChunkCache {
 public:
  explicit ChunkCache(size_t capacity) : capacity_(capacity) {}

  // Inserts (or refreshes) a chunk. A full cache first evicts one entry
  // by the rule above; `readers` lists the chunk each live iterator is
  // positioned in, sorted ascending (duplicates allowed).
  void Insert(const std::shared_ptr<Chunk>& chunk,
              const std::vector<ChunkSeq>& readers = {});

  // Returns the chunk or nullptr; a hit refreshes recency.
  std::shared_ptr<Chunk> Get(ChunkSeq seq);

  bool Contains(ChunkSeq seq) const;

  size_t size() const;
  size_t capacity() const { return capacity_; }

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t inserts = 0;
  };
  Stats stats() const;

 private:
  void EvictOneLocked(const std::vector<ChunkSeq>& readers) REQUIRES(mu_);

  mutable Mutex mu_{kRankStorageChunkCache};
  size_t capacity_;
  // MRU at front.
  std::list<ChunkSeq> lru_ GUARDED_BY(mu_);
  struct Entry {
    std::shared_ptr<Chunk> chunk;
    std::list<ChunkSeq>::iterator lru_pos;
  };
  std::unordered_map<ChunkSeq, Entry> map_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace railgun::reservoir

#endif  // RAILGUN_RESERVOIR_CHUNK_CACHE_H_
