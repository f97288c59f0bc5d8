// Tests for object histories, the WAL (framing, torn-tail recovery) and Store
// checkpoint/recovery.
#include <gtest/gtest.h>

#include "src/storage/object_history.h"
#include "src/storage/store.h"
#include "src/storage/wal.h"

namespace walter {
namespace {

ObjectId Oid(uint64_t c, uint64_t l) { return ObjectId{c, l}; }

VectorTimestamp Vts(std::vector<uint64_t> counts) { return VectorTimestamp(std::move(counts)); }

TxRecord MakeTx(TxId tid, SiteId origin, uint64_t seqno, std::vector<ObjectUpdate> updates,
                VectorTimestamp start = {}) {
  TxRecord rec;
  rec.tid = tid;
  rec.origin = origin;
  rec.version = Version{origin, seqno};
  rec.start_vts = start.num_sites() ? start : VectorTimestamp(2);
  rec.updates = std::move(updates);
  return rec;
}

// --- ObjectHistory ---------------------------------------------------------

TEST(ObjectHistoryTest, ReadsLatestVisibleVersion) {
  ObjectHistory h;
  h.Append(Version{0, 1}, ObjectUpdate::Data(Oid(1, 1), "v1"));
  h.Append(Version{0, 2}, ObjectUpdate::Data(Oid(1, 1), "v2"));
  EXPECT_EQ(h.ReadRegular(Vts({1, 0})), "v1");
  EXPECT_EQ(h.ReadRegular(Vts({2, 0})), "v2");
  EXPECT_EQ(h.ReadRegular(Vts({0, 0})), std::nullopt);
}

TEST(ObjectHistoryTest, SnapshotIgnoresInvisibleRemoteVersions) {
  ObjectHistory h;
  h.Append(Version{0, 1}, ObjectUpdate::Data(Oid(1, 1), "local"));
  h.Append(Version{1, 5}, ObjectUpdate::Data(Oid(1, 1), "remote"));
  EXPECT_EQ(h.ReadRegular(Vts({1, 0})), "local");
  EXPECT_EQ(h.ReadRegular(Vts({1, 5})), "remote");
}

TEST(ObjectHistoryTest, UnmodifiedSince) {
  ObjectHistory h;
  h.Append(Version{0, 3}, ObjectUpdate::Data(Oid(1, 1), "x"));
  EXPECT_TRUE(h.UnmodifiedSince(Vts({3, 0})));
  EXPECT_FALSE(h.UnmodifiedSince(Vts({2, 0})));
}

// Regression: after GC folds a conflicting write into the base, the fast-commit
// conflict check must still see it. An old snapshot that predates the folded
// write is modified-since, even though entries_ is empty — otherwise a fast
// commit against that snapshot silently loses the folded update.
TEST(ObjectHistoryTest, UnmodifiedSinceSeesFoldedBase) {
  ObjectHistory h;
  h.Append(Version{0, 3}, ObjectUpdate::Data(Oid(1, 1), "conflict"));
  h.GarbageCollect(Vts({3, 0}));  // folds the write into base_version_ = (0,3)
  ASSERT_EQ(h.entry_count(), 0u);
  EXPECT_TRUE(h.UnmodifiedSince(Vts({3, 0})));
  EXPECT_FALSE(h.UnmodifiedSince(Vts({2, 0})));  // fails before the base check
}

TEST(ObjectHistoryTest, CsetFoldsVisibleOps) {
  ObjectHistory h;
  h.Append(Version{0, 1}, ObjectUpdate::Add(Oid(1, 1), Oid(9, 1)));
  h.Append(Version{1, 1}, ObjectUpdate::Add(Oid(1, 1), Oid(9, 1)));
  h.Append(Version{0, 2}, ObjectUpdate::Del(Oid(1, 1), Oid(9, 1)));
  EXPECT_EQ(h.ReadCset(Vts({1, 0})).Count(Oid(9, 1)), 1);
  EXPECT_EQ(h.ReadCset(Vts({1, 1})).Count(Oid(9, 1)), 2);
  EXPECT_EQ(h.ReadCset(Vts({2, 1})).Count(Oid(9, 1)), 1);
}

TEST(ObjectHistoryTest, GarbageCollectFoldsRegularBase) {
  ObjectHistory h;
  h.Append(Version{0, 1}, ObjectUpdate::Data(Oid(1, 1), "v1"));
  h.Append(Version{0, 2}, ObjectUpdate::Data(Oid(1, 1), "v2"));
  h.Append(Version{0, 3}, ObjectUpdate::Data(Oid(1, 1), "v3"));
  EXPECT_EQ(h.GarbageCollect(Vts({2, 0})), 2u);
  EXPECT_EQ(h.entry_count(), 1u);
  // Snapshots at/above the frontier still read correctly.
  EXPECT_EQ(h.ReadRegular(Vts({2, 0})), "v2");
  EXPECT_EQ(h.ReadRegular(Vts({3, 0})), "v3");
}

TEST(ObjectHistoryTest, GarbageCollectFoldsCsetBase) {
  ObjectHistory h;
  for (uint64_t i = 1; i <= 10; ++i) {
    h.Append(Version{0, i}, ObjectUpdate::Add(Oid(1, 1), Oid(9, i % 3)));
  }
  h.GarbageCollect(Vts({6, 0}));
  CountingSet full = h.ReadCset(Vts({10, 0}));
  int64_t total = 0;
  for (const auto& e : full.NonZeroElements()) {
    total += full.Count(e);
  }
  EXPECT_EQ(total, 10);
}

TEST(ObjectHistoryTest, RemoveVersionsFromDiscardsFailedSiteTail) {
  ObjectHistory h;
  h.Append(Version{1, 1}, ObjectUpdate::Data(Oid(1, 1), "keep"));
  h.Append(Version{1, 2}, ObjectUpdate::Data(Oid(1, 1), "drop"));
  h.Append(Version{0, 1}, ObjectUpdate::Data(Oid(1, 1), "other"));
  EXPECT_EQ(h.RemoveVersionsFrom(1, 1), 1u);
  EXPECT_EQ(h.entry_count(), 2u);
  EXPECT_EQ(h.ReadRegular(Vts({1, 2})), "other");
}

TEST(ObjectHistoryTest, SerializationRoundTrip) {
  ObjectHistory h;
  h.Append(Version{0, 1}, ObjectUpdate::Data(Oid(1, 1), "v1"));
  h.Append(Version{1, 1}, ObjectUpdate::Add(Oid(1, 1), Oid(9, 1)));
  h.GarbageCollect(Vts({1, 0}));
  ByteWriter w;
  h.Serialize(&w);
  ByteReader r(w.data());
  ObjectHistory restored = ObjectHistory::Deserialize(&r);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(restored.ReadRegular(Vts({1, 0})), "v1");
  EXPECT_EQ(restored.ReadCset(Vts({1, 1})).Count(Oid(9, 1)), 1);
}

// --- WAL --------------------------------------------------------------------

TEST(WalTest, AppendReplayRoundTrip) {
  Wal wal;
  wal.Append(MakeTx(1, 0, 1, {ObjectUpdate::Data(Oid(1, 1), "a")}));
  wal.Append(MakeTx(2, 0, 2, {ObjectUpdate::Add(Oid(1, 2), Oid(9, 9))}));
  auto replay = wal.ReplaySelf();
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[0].tid, 1u);
  EXPECT_EQ(replay.records[1].updates[0].kind, UpdateKind::kAdd);
}

TEST(WalTest, TornTailStopsAtLastGoodRecord) {
  Wal wal;
  wal.Append(MakeTx(1, 0, 1, {ObjectUpdate::Data(Oid(1, 1), "a")}));
  wal.Append(MakeTx(2, 0, 2, {ObjectUpdate::Data(Oid(1, 1), "b")}));
  std::string bytes = wal.bytes();
  // Chop the final record mid-frame.
  std::string torn = bytes.substr(0, bytes.size() - 5);
  auto replay = Wal::Replay(torn);
  EXPECT_TRUE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].tid, 1u);
}

TEST(WalTest, CorruptPayloadDetectedByCrc) {
  Wal wal;
  wal.Append(MakeTx(1, 0, 1, {ObjectUpdate::Data(Oid(1, 1), "aaaa")}));
  std::string bytes = wal.bytes();
  bytes[bytes.size() - 2] ^= 0xff;  // flip a payload byte
  auto replay = Wal::Replay(bytes);
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_TRUE(replay.records.empty());
}

TEST(WalTest, BadMagicRejected) {
  std::string garbage = "this is not a wal frame at all.....";
  auto replay = Wal::Replay(garbage);
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_TRUE(replay.records.empty());
}

TEST(WalTest, TruncatePrefixKeepsLogicalOffsets) {
  Wal wal;
  size_t off1 = wal.Append(MakeTx(1, 0, 1, {ObjectUpdate::Data(Oid(1, 1), "a")}));
  size_t off2 = wal.Append(MakeTx(2, 0, 2, {ObjectUpdate::Data(Oid(1, 1), "b")}));
  EXPECT_EQ(off1, 0u);
  wal.TruncatePrefix(off2);
  EXPECT_EQ(wal.base(), off2);
  auto replay = wal.ReplaySelf();
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].tid, 2u);
}

TEST(WalTest, Crc32KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE).
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
}

// Exhaustive truncation matrix: cut the log at EVERY byte offset inside the
// last frame. Replay must always keep the intact prefix, flag the tear except
// at exact frame boundaries, and report valid_bytes at the boundary.
TEST(WalTest, TruncationAtEveryByteOffsetOfLastFrame) {
  Wal wal;
  wal.Append(MakeTx(1, 0, 1, {ObjectUpdate::Data(Oid(1, 1), "first")}));
  size_t first_len = wal.Append(MakeTx(2, 0, 2, {ObjectUpdate::Data(Oid(1, 1), "second")}));
  std::string bytes = wal.bytes();
  ASSERT_GT(bytes.size(), first_len);

  for (size_t cut = first_len; cut <= bytes.size(); ++cut) {
    auto replay = Wal::Replay(bytes.substr(0, cut));
    if (cut == bytes.size()) {
      EXPECT_FALSE(replay.torn_tail) << "cut=" << cut;
      ASSERT_EQ(replay.records.size(), 2u) << "cut=" << cut;
      EXPECT_EQ(replay.valid_bytes, bytes.size());
      continue;
    }
    ASSERT_EQ(replay.records.size(), 1u) << "cut=" << cut;
    EXPECT_EQ(replay.records[0].tid, 1u) << "cut=" << cut;
    EXPECT_EQ(replay.valid_bytes, first_len) << "cut=" << cut;
    if (cut == first_len) {
      EXPECT_FALSE(replay.torn_tail) << "an exact frame boundary is not a tear";
    } else {
      EXPECT_TRUE(replay.torn_tail) << "cut=" << cut;
    }
  }
}

// Exhaustive single-bit corruption matrix over the last frame: every bit of
// the magic, length, CRC and payload fields. Replay must stop at the previous
// frame boundary every time — CRC-32 catches all single-bit payload errors,
// and header damage reads as a bad magic / impossible length / CRC mismatch.
TEST(WalTest, BitFlipAnywhereInLastFrameStopsReplayAtBoundary) {
  Wal wal;
  wal.Append(MakeTx(1, 0, 1, {ObjectUpdate::Data(Oid(1, 1), "keep")}));
  size_t first_len = wal.Append(MakeTx(2, 0, 2, {ObjectUpdate::Data(Oid(1, 1), "rot")}));
  std::string bytes = wal.bytes();

  for (size_t pos = first_len; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string rotted = bytes;
      rotted[pos] = static_cast<char>(rotted[pos] ^ (1 << bit));
      auto replay = Wal::Replay(rotted);
      EXPECT_TRUE(replay.torn_tail) << "pos=" << pos << " bit=" << bit;
      ASSERT_EQ(replay.records.size(), 1u) << "pos=" << pos << " bit=" << bit;
      EXPECT_EQ(replay.records[0].tid, 1u);
      EXPECT_EQ(replay.valid_bytes, first_len) << "pos=" << pos << " bit=" << bit;
    }
  }
}

// Regression for the per-origin minimum index: OldestSeqno must stay correct
// (without scanning) as records append, the prefix truncates in steps, and the
// log is reseeded wholesale for recovery.
TEST(WalTest, OldestSeqnoTracksTruncationAndReseeding) {
  Wal wal;
  std::vector<size_t> offs;
  // Interleaved origins: (0,1) (1,5) (0,2) (1,6) (0,3).
  offs.push_back(wal.Append(MakeTx(1, 0, 1, {ObjectUpdate::Data(Oid(1, 1), "a")})));
  offs.push_back(wal.Append(MakeTx(2, 1, 5, {ObjectUpdate::Data(Oid(2, 1), "b")})));
  offs.push_back(wal.Append(MakeTx(3, 0, 2, {ObjectUpdate::Data(Oid(1, 1), "c")})));
  offs.push_back(wal.Append(MakeTx(4, 1, 6, {ObjectUpdate::Data(Oid(2, 1), "d")})));
  offs.push_back(wal.Append(MakeTx(5, 0, 3, {ObjectUpdate::Data(Oid(1, 1), "e")})));
  EXPECT_EQ(wal.OldestSeqno(0), 1u);
  EXPECT_EQ(wal.OldestSeqno(1), 5u);
  EXPECT_EQ(wal.OldestSeqno(2), std::nullopt);

  wal.TruncatePrefix(offs[1]);  // drops (0,1)
  EXPECT_EQ(wal.OldestSeqno(0), 2u);
  EXPECT_EQ(wal.OldestSeqno(1), 5u);

  wal.TruncatePrefix(offs[3]);  // drops (1,5) and (0,2)
  EXPECT_EQ(wal.OldestSeqno(0), 3u);
  EXPECT_EQ(wal.OldestSeqno(1), 6u);

  wal.TruncatePrefix(wal.base() + wal.size());  // empty log
  EXPECT_EQ(wal.OldestSeqno(0), std::nullopt);
  EXPECT_EQ(wal.OldestSeqno(1), std::nullopt);

  // SeedForRecovery rebuilds the index from the seeded bytes.
  Wal donor;
  donor.Append(MakeTx(10, 1, 9, {ObjectUpdate::Data(Oid(2, 1), "x")}));
  donor.Append(MakeTx(11, 0, 4, {ObjectUpdate::Data(Oid(1, 1), "y")}));
  donor.Append(MakeTx(12, 1, 10, {ObjectUpdate::Data(Oid(2, 1), "z")}));
  wal.SeedForRecovery(donor.bytes(), 4096);
  EXPECT_EQ(wal.base(), 4096u);
  EXPECT_EQ(wal.OldestSeqno(0), 4u);
  EXPECT_EQ(wal.OldestSeqno(1), 9u);
}

// --- Store: apply/read/checkpoint/recover -----------------------------------

TEST(StoreTest, ApplyAndSnapshotRead) {
  Store store;
  store.Apply(MakeTx(1, 0, 1, {ObjectUpdate::Data(Oid(1, 1), "a")}));
  store.Apply(MakeTx(2, 1, 1, {ObjectUpdate::Data(Oid(1, 1), "b")}));
  EXPECT_EQ(store.ReadRegular(Oid(1, 1), Vts({1, 0})), "a");
  EXPECT_EQ(store.ReadRegular(Oid(1, 1), Vts({1, 1})), "b");
  EXPECT_EQ(store.ReadRegular(Oid(9, 9), Vts({1, 1})), std::nullopt);
}

TEST(StoreTest, CheckpointRestoreRoundTrip) {
  Store store;
  store.Apply(MakeTx(1, 0, 1, {ObjectUpdate::Data(Oid(1, 1), "a")}));
  store.Apply(MakeTx(2, 0, 2, {ObjectUpdate::Add(Oid(1, 2), Oid(9, 1))}));
  std::string checkpoint = store.SerializeCheckpoint();

  Store restored;
  restored.RestoreCheckpoint(checkpoint);
  EXPECT_EQ(restored.ReadRegular(Oid(1, 1), Vts({2, 0})), "a");
  EXPECT_EQ(restored.ReadCset(Oid(1, 2), Vts({2, 0})).Count(Oid(9, 1)), 1);
  EXPECT_EQ(restored.checkpoint_frontier(), store.wal().size());
}

TEST(StoreTest, RecoverReplaysWalTailAfterCheckpoint) {
  Store store;
  store.Apply(MakeTx(1, 0, 1, {ObjectUpdate::Data(Oid(1, 1), "a")}));
  std::string checkpoint = store.SerializeCheckpoint();
  store.Apply(MakeTx(2, 0, 2, {ObjectUpdate::Data(Oid(1, 1), "b")}));

  Store restored;
  auto result = restored.Recover(checkpoint, store.wal().bytes());
  EXPECT_EQ(result.records_replayed, 1u);
  EXPECT_FALSE(result.torn_tail);
  EXPECT_EQ(restored.ReadRegular(Oid(1, 1), Vts({2, 0})), "b");
  EXPECT_EQ(restored.ReadRegular(Oid(1, 1), Vts({1, 0})), "a");
}

TEST(StoreTest, RecoverFromWalOnlyNoCheckpoint) {
  Store store;
  store.Apply(MakeTx(1, 0, 1, {ObjectUpdate::Data(Oid(1, 1), "a")}));
  store.Apply(MakeTx(2, 0, 2, {ObjectUpdate::Data(Oid(1, 2), "b")}));

  Store restored;
  auto result = restored.Recover("", store.wal().bytes());
  EXPECT_EQ(result.records_replayed, 2u);
  EXPECT_EQ(restored.ReadRegular(Oid(1, 2), Vts({2, 0})), "b");
}

TEST(StoreTest, RecoverStopsAtTornTail) {
  Store store;
  store.Apply(MakeTx(1, 0, 1, {ObjectUpdate::Data(Oid(1, 1), "a")}));
  store.Apply(MakeTx(2, 0, 2, {ObjectUpdate::Data(Oid(1, 1), "b")}));
  std::string bytes = store.wal().bytes();
  std::string torn = bytes.substr(0, bytes.size() - 3);

  Store restored;
  auto result = restored.Recover("", torn);
  EXPECT_TRUE(result.torn_tail);
  EXPECT_EQ(result.records_replayed, 1u);
  EXPECT_EQ(restored.ReadRegular(Oid(1, 1), Vts({1, 0})), "a");
}

TEST(StoreTest, GarbageCollectReducesEntries) {
  Store store;
  for (uint64_t i = 1; i <= 20; ++i) {
    store.Apply(MakeTx(i, 0, i, {ObjectUpdate::Data(Oid(1, 1), "v" + std::to_string(i))}));
  }
  size_t folded = store.GarbageCollect(Vts({15, 0}));
  EXPECT_EQ(folded, 15u);
  EXPECT_EQ(store.ReadRegular(Oid(1, 1), Vts({15, 0})), "v15");
  EXPECT_EQ(store.ReadRegular(Oid(1, 1), Vts({20, 0})), "v20");
}

}  // namespace
}  // namespace walter
