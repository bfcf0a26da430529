// Content-addressed cache of encoded wire frames.
//
// The delivery server encodes every (step, tier, kind) once per step and
// fans the bytes out, so a live run never asks for the same frame twice.
// Repeated visualization sessions of the SAME run do (a scientist scrubbing
// back to the wavefront arrival, a class of viewers replaying the canonical
// dataset): they re-render and re-encode frames whose bytes are fully
// determined by inputs already seen. This cache closes that loop: wire
// frames are stored under a content address — SHA-256 over everything that
// determines the bytes (dataset id, timestep, camera hash,
// transfer-function hash, tier, kind) — so a hit in the replay harness
// (stream/replay.hpp) serves the stored shared buffer with no render and no
// encode.
//
// Policy:
//  * Strict LRU over a byte budget. get() promotes to most-recently-used;
//    put() evicts from the LRU tail until the new entry fits. An entry
//    larger than the whole budget is rejected outright (never evicts the
//    world for an entry that cannot be admitted).
//  * KEYFRAMES ONLY. A cached delta would be decodable only by a client
//    holding the exact reference frame, i.e. only inside the encoder-bank
//    chain that produced it — caching it across sessions would either
//    corrupt decoders or demand the cache track chain state. Keyframes are
//    self-contained, so their bytes depend on nothing but the address
//    fields. The replayer requests keyframes only.
//  * The trust contract: the address MUST cover every input that affects
//    the rendered pixels. Callers build a CacheIdentity from the dataset
//    and view parameters; two runs that produce the same address are
//    asserted (in the replay harness, verified byte-for-byte) to produce
//    the same wire.
//
// Thread-safe: a single mutex guards the map + LRU list. Entries are
// immutable shared_ptr buffers, so readers hold them with no lock.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "stream/frame_codec.hpp"

namespace qv::stream {

// Everything run-scoped that determines a frame's pixels. The per-frame
// fields (step, tier, kind) are passed to content_address separately.
struct CacheIdentity {
  std::string dataset_id;        // dataset dir / synthetic source name
  std::uint64_t camera_hash = 0; // view: projection, orbit, size, variable
  std::uint64_t tf_hash = 0;     // transfer function + value range
};

// Convenience for building identity hashes: SHA-256 of a descriptor string,
// folded to 64 bits. Collision-safe enough for an address *component*; the
// full 32-byte address keeps the real margin.
std::uint64_t hash64(const std::string& descriptor);

struct CacheKey {
  std::array<std::uint8_t, 32> addr{};
  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const {
    // The address is itself a cryptographic hash: any 8 bytes are uniform.
    std::size_t h;
    static_assert(sizeof(h) <= 32);
    __builtin_memcpy(&h, k.addr.data(), sizeof(h));
    return h;
  }
};

// SHA-256 over the identity fields plus (step, tier, kind), each length- or
// width-delimited so field boundaries can't alias.
CacheKey content_address(const CacheIdentity& id, int step, int tier,
                         FrameKind kind);

struct CacheConfig {
  std::size_t capacity_bytes = 64u << 20;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t oversize_rejects = 0;
  std::size_t bytes = 0;    // resident payload bytes
  std::size_t entries = 0;  // resident entry count
};

class FrameCache {
 public:
  using Wire = std::shared_ptr<const std::vector<std::uint8_t>>;

  explicit FrameCache(CacheConfig cfg);

  // The stored wire for `key`, promoted to most-recently-used — or nullptr.
  // Counts a hit or a miss (here and in the stream.cache.* metrics).
  Wire get(const CacheKey& key);

  // Insert `wire` under `key`, evicting LRU entries until it fits. A wire
  // larger than the whole budget is rejected (counted, nothing evicted);
  // re-inserting a resident key refreshes recency but keeps the original
  // bytes (content-addressing makes them identical by contract).
  void put(const CacheKey& key, Wire wire);

  CacheStats stats() const;
  std::size_t bytes() const;
  std::size_t entries() const;
  std::size_t capacity_bytes() const { return cfg_.capacity_bytes; }

 private:
  struct Entry {
    CacheKey key;
    Wire wire;
  };

  void evict_until_fits(std::size_t incoming);  // mu_ held

  CacheConfig cfg_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent, back = eviction candidate
  std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash> map_;
  CacheStats stats_;
};

}  // namespace qv::stream
