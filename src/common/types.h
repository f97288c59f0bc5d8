// Core identifier and version types shared by every Walter module.
//
// Terminology follows the paper (SOSP'11, Sections 4-5):
//  - A *site* is a data center running one Walter server.
//  - Objects live in *containers*; all objects of a container share a preferred
//    site and a replica set.
//  - A *version* is the pair <site, seqno> assigned to a transaction at commit.
//  - A *vector timestamp* represents a snapshot: for each site, how many of that
//    site's transactions are reflected in the snapshot.
#ifndef SRC_COMMON_TYPES_H_
#define SRC_COMMON_TYPES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace walter {

// Identifies a site (data center). Sites are numbered 0..num_sites-1.
using SiteId = uint32_t;

// Sentinel for "no site".
inline constexpr SiteId kNoSite = static_cast<SiteId>(-1);

// Identifies a container: a group of objects sharing a preferred site and
// replica set (Section 4.1).
using ContainerId = uint64_t;

// Distinguishes objects within a container.
using LocalId = uint64_t;

// Globally unique transaction id.
using TxId = uint64_t;

// Per-transaction consistency level (docs/CONSISTENCY.md). kPsi is the
// paper's protocol and the default; the other two are opt-in per transaction:
//  - kNmsi weakens PSI by dropping the cross-shard/cross-site visibility
//    waits (non-monotonic snapshots: a read may return an older committed
//    version instead of parking for propagation).
//  - kSerializable strengthens PSI with commit-time read-set validation
//    (backward OCC): the transaction's read set joins its write set in the
//    2PC conflict check, so write skew between serializable transactions
//    aborts instead of committing.
enum class ConsistencyMode : uint8_t {
  kPsi = 0,
  kNmsi = 1,
  kSerializable = 2,
};

inline const char* ConsistencyModeName(ConsistencyMode m) {
  switch (m) {
    case ConsistencyMode::kPsi:
      return "psi";
    case ConsistencyMode::kNmsi:
      return "nmsi";
    case ConsistencyMode::kSerializable:
      return "ser";
  }
  return "unknown";
}

// Object id: container id plus a local id. The container id is embedded in the
// object id, so an object's container (and hence preferred site) never changes.
struct ObjectId {
  ContainerId container = 0;
  LocalId local = 0;

  friend bool operator==(const ObjectId&, const ObjectId&) = default;
  friend auto operator<=>(const ObjectId&, const ObjectId&) = default;

  std::string ToString() const;
};

// Version number <site, seqno> assigned to a transaction when it commits
// (Section 5.2). seqno orders all transactions executed at `site`.
struct Version {
  SiteId site = kNoSite;
  uint64_t seqno = 0;

  friend bool operator==(const Version&, const Version&) = default;
  friend auto operator<=>(const Version&, const Version&) = default;

  std::string ToString() const;
};

// A vector timestamp represents a snapshot: entry s is the number of
// transactions from site s included in the snapshot (Section 5.2).
class VectorTimestamp {
 public:
  VectorTimestamp() = default;
  explicit VectorTimestamp(size_t num_sites) : counts_(num_sites, 0) {}
  explicit VectorTimestamp(std::vector<uint64_t> counts) : counts_(std::move(counts)) {}

  size_t num_sites() const { return counts_.size(); }

  uint64_t at(SiteId s) const { return s < counts_.size() ? counts_[s] : 0; }
  void set(SiteId s, uint64_t v);

  // Increments entry s by one and returns the new value.
  uint64_t Advance(SiteId s);

  // True if version v is visible to this snapshot: v.seqno <= counts[v.site].
  bool Sees(const Version& v) const { return v.site != kNoSite && v.seqno <= at(v.site); }

  // Entry-wise maximum (least upper bound of the two snapshots).
  void MergeMax(const VectorTimestamp& other);

  // Entry-wise minimum (greatest lower bound; missing entries count as 0).
  // The pointwise min of causally-closed snapshots is causally closed, which
  // is what makes the GC stability frontier safe to fold histories at.
  void MergeMin(const VectorTimestamp& other);

  // True if every entry of this is >= the corresponding entry of other, i.e.
  // this snapshot includes everything other does.
  bool Covers(const VectorTimestamp& other) const;

  const std::vector<uint64_t>& counts() const { return counts_; }

  friend bool operator==(const VectorTimestamp&, const VectorTimestamp&) = default;

  std::string ToString() const;

 private:
  std::vector<uint64_t> counts_;
};

// Hash support so ids can key unordered containers.
struct ObjectIdHash {
  size_t operator()(const ObjectId& id) const {
    // 64-bit mix of the two halves; splitmix-style finalizer.
    uint64_t x = id.container * 0x9e3779b97f4a7c15ULL ^ (id.local + 0xbf58476d1ce4e5b9ULL);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};

}  // namespace walter

template <>
struct std::hash<walter::ObjectId> {
  size_t operator()(const walter::ObjectId& id) const { return walter::ObjectIdHash{}(id); }
};

#endif  // SRC_COMMON_TYPES_H_
