// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Crash-recovery proofs for the durability subsystem (core/durability.h,
// storage/{wal,snapshot,fault_fs}.h). The centerpiece is an exhaustive
// crash-point matrix: a deterministic workload runs once crash-free to
// count its durability barriers, then re-runs once per barrier k with
// storage::FaultFs armed to fail exactly the k-th sync point; after every
// simulated power loss the system must recover to a state that is
//   (a) epoch-sound   — the recovered epoch is provable and published,
//   (b) verifiable    — a full sweep of verifying queries accepts,
//   (c) prefix-exact  — differentially equal to a never-crashed twin that
//       applied exactly the updates whose WAL records became durable.
// The one write pipeline (WAL group commit + background checkpointing)
// runs the matrix in BOTH checkpoint schedules: delta chains compacted by
// a full snapshot every third checkpoint, and full snapshots only
// (full_snapshot_every=1) — every barrier of either schedule, including
// the ones inside a background checkpoint write, is a crash point. On top
// of the matrix:
// a WAL-corruption fuzzer (torn tails, bit flips, lying length prefixes),
// snapshot atomicity/fallback checks including a corrupt middle delta
// link, the rollback adversary (an SP restored from an older durable
// chain is rejected by the unmodified client freshness gate as
// kStaleEpoch), the checkpoint image and pending log (every full snapshot
// streamed from the image equals a live capture; a second crash keeps the
// WAL tail the first recovery replayed), and a concurrency suite driving
// many writers through the group-commit pipeline (also the TSan CI
// target).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/sharded_system.h"
#include "core/system.h"
#include "storage/fault_fs.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace sae {
namespace {

using core::DurabilityManager;
using core::DurabilityStats;
using core::SaeSystem;
using core::SnapshotState;
using core::TomSystem;
using core::WalUpdate;
using storage::FaultFs;
using storage::Key;
using storage::Record;
using storage::RecordCodec;
using storage::RecordId;

constexpr Key kMinKey = 0;
constexpr Key kMaxKey = ~Key{0};
constexpr size_t kRecordSize = 64;  // small records keep the matrix fast
constexpr uint64_t kSnapshotInterval = 4;

// Deterministic pseudo-randomness for the fuzzer (no real entropy: every
// failure must replay exactly).
uint64_t NextRand(uint64_t* state) {
  *state = *state * 6364136223846793005ull + 1442695040888963407ull;
  return *state >> 33;
}

// Delta-link file name, as storage/snapshot.cc writes it.
std::string DeltaFileName(uint64_t base, uint64_t epoch) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "delta-%020llu-%020llu",
                static_cast<unsigned long long>(base),
                static_cast<unsigned long long>(epoch));
  return buf;
}

// The default schedule is delta chains: full_snapshot_every=3 makes the
// deterministic workload cross a compaction (delta, delta, full) inside
// the matrix. `full_only` makes every checkpoint a full snapshot
// (full_snapshot_every=1).
template <typename System>
typename System::Options DurableOptions(crypto::HashScheme scheme,
                                        storage::Vfs* vfs,
                                        const std::string& dir,
                                        bool full_only = false) {
  typename System::Options options;
  options.record_size = kRecordSize;
  options.scheme = scheme;
  options.durability.enabled = true;
  options.durability.dir = dir;
  options.durability.vfs = vfs;
  options.durability.snapshot_interval = kSnapshotInterval;
  options.durability.full_snapshot_every = full_only ? 1 : 3;
  return options;
}

std::vector<Record> SeedDataset(const RecordCodec& codec, size_t n) {
  std::vector<Record> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    records.push_back(codec.MakeRecord(RecordId(i + 1), Key(i * 10 + 5)));
  }
  return records;
}

// The deterministic update schedule driven against every system in this
// file: a mix of inserts and deletes, long enough to cross several
// snapshot boundaries at kSnapshotInterval.
struct Op {
  bool insert;
  RecordId id;
  Key key;
};

std::vector<Op> UpdateSchedule() {
  std::vector<Op> ops;
  for (int i = 0; i < 10; ++i) {
    ops.push_back({true, RecordId(100 + i), Key(40 + 7 * i)});
    if (i % 3 == 2) ops.push_back({false, RecordId(i + 1), 0});
  }
  return ops;  // 13 updates -> epochs 2..14, checkpoints at 5, 9, 13
}

// The split leg's schedule, for the 30-record seed under the split
// fanouts: a dozen inserts alternating between keys 100 and 105 (a seed
// key too) split leaves and then internal nodes, each key's run growing
// in DESCENDING id order, twice per checkpoint window — an MB-tree keeps a
// run in insertion order, so recovery must rebuild that order, not sort
// by id. Deletes of seed records 1..6 underflow the leftmost leaves into
// borrows and merges, and a delete + re-insert of id 199 moves it to the
// end of its run. 20 updates -> epochs 2..21, checkpoints every 4.
std::vector<Op> SplitSchedule() {
  std::vector<Op> ops;
  for (int i = 0; i < 12; ++i) {
    ops.push_back({true, RecordId(200 - i), Key(100 + 5 * (i % 2))});
  }
  for (RecordId id = 1; id <= 6; ++id) ops.push_back({false, id, 0});
  ops.push_back({false, RecordId(199), 0});
  ops.push_back({true, RecordId(199), Key(105)});
  return ops;
}

// MB-tree fanouts small enough that 30 records and the split schedule
// split (and merge) leaves and internal nodes: 8 leaves of <= 4 entries
// under internal nodes of <= 4 children.
constexpr size_t kSplitLeaf = 4;
constexpr size_t kSplitInternal = 3;

void ShrinkFanouts(TomSystem::Options* options) {
  options->mb_options.max_leaf_entries = kSplitLeaf;
  options->mb_options.max_internal_keys = kSplitInternal;
}

template <typename System>
Status ApplyOp(System* system, const Op& op, const RecordCodec& codec) {
  return op.insert ? system->Insert(codec.MakeRecord(op.id, op.key))
                   : system->Delete(op.id);
}

// Runs load + schedule, draining the checkpoint queue after every update
// so the barrier sequence is deterministic and a background-checkpoint
// failure surfaces at a fixed point. Stops at the first storage failure
// (the armed crash) and reports how many updates SUCCEEDED before it.
template <typename System>
Status RunWorkload(System* system, const RecordCodec& codec,
                   const std::vector<Op>& ops, size_t* updates_applied) {
  *updates_applied = 0;
  SAE_RETURN_NOT_OK(system->Load(SeedDataset(codec, 30)));
  for (const Op& op : ops) {
    SAE_RETURN_NOT_OK(ApplyOp(system, op, codec));
    ++*updates_applied;
    SAE_RETURN_NOT_OK(system->WaitForCheckpoints());
  }
  return Status::OK();
}

// Builds the never-crashed twin holding the first `updates` entries of
// `ops` (pure in-memory, no durability), configured as `options` is.
template <typename System>
std::unique_ptr<System> BuildTwin(typename System::Options options,
                                  const std::vector<Op>& ops, size_t updates,
                                  const RecordCodec& codec) {
  options.durability = {};
  auto twin = std::make_unique<System>(options);
  EXPECT_TRUE(twin->Load(SeedDataset(codec, 30)).ok());
  for (size_t i = 0; i < updates; ++i) {
    EXPECT_TRUE(ApplyOp(twin.get(), ops[i], codec).ok());
  }
  return twin;
}

// The verifying sweep every recovered system must pass: scans and
// aggregates across the key space, each accepted by the client.
template <typename System>
void VerifySweep(System* system) {
  const dbms::QueryRequest requests[] = {
      dbms::QueryRequest::Scan(kMinKey, kMaxKey),
      dbms::QueryRequest::Scan(40, 120),
      dbms::QueryRequest::Count(kMinKey, kMaxKey),
      dbms::QueryRequest::Sum(0, 200),
      dbms::QueryRequest::Min(50, 300),
      dbms::QueryRequest::Max(kMinKey, kMaxKey),
  };
  for (const dbms::QueryRequest& request : requests) {
    auto outcome = system->Query(request);
    ASSERT_TRUE(outcome.ok()) << outcome.status().message();
    EXPECT_TRUE(outcome.value().verification.ok())
        << outcome.value().verification.message();
  }
}

template <typename System>
std::vector<Record> FullScan(System* system) {
  auto outcome = system->Query(kMinKey, kMaxKey);
  EXPECT_TRUE(outcome.ok());
  return outcome.ok() ? outcome.value().results : std::vector<Record>{};
}

// --- the crash-point matrix --------------------------------------------------

// `split` runs TomSystem with kSplitFanouts through SplitSchedule instead
// of the default fanouts through UpdateSchedule.
template <typename System>
void RunCrashMatrix(crypto::HashScheme scheme, bool full_only,
                    bool split = false) {
  RecordCodec codec(kRecordSize);
  const std::vector<Op> ops = split ? SplitSchedule() : UpdateSchedule();
  auto options_for = [&](FaultFs* fs) {
    auto options = DurableOptions<System>(scheme, fs, "/db", full_only);
    if constexpr (std::is_same_v<System, TomSystem>) {
      if (split) ShrinkFanouts(&options);
    }
    return options;
  };

  // Pass 1: crash-free run counts the barriers and fixes the final state.
  FaultFs clean_fs;
  size_t total_updates = 0;
  {
    auto system = std::make_unique<System>(options_for(&clean_fs));
    size_t applied = 0;
    ASSERT_TRUE(RunWorkload(system.get(), codec, ops, &applied).ok());
    total_updates = applied;
    // The schedule the matrix crashes through: the Load baseline plus one
    // cadence checkpoint per kSnapshotInterval updates, every third of
    // them full (delta, delta, full, ...) or all full.
    const uint64_t cadence = ops.size() / kSnapshotInterval;
    const uint64_t full = 1 + (full_only ? cadence : cadence / 3);
    DurabilityStats stats = system->durability_stats();
    EXPECT_EQ(stats.checkpoints_full, full);
    EXPECT_EQ(stats.checkpoints_delta, 1 + cadence - full);
    if constexpr (std::is_same_v<System, TomSystem>) {
      if (split) {
        // The seed loads 8 leaves under 2 internal nodes; the schedule
        // split both levels.
        btree::TreeShape shape;
        ASSERT_TRUE(system->sp().table().index().Walk(&shape, nullptr).ok());
        ASSERT_EQ(shape.size(), 3u);
        EXPECT_GT(shape[0].size(), 8u);
        EXPECT_GT(shape[1].size(), 2u);
      }
    }
  }
  const uint64_t sync_points = clean_fs.sync_points();
  ASSERT_GT(sync_points, kSnapshotInterval);  // sanity: barriers happened

  // Pass 2: one run per barrier. Between two adjacent barriers every
  // durable state is identical, so this enumerates ALL distinguishable
  // crash outcomes of the workload — WAL commits, checkpoint temp syncs
  // and renames (mid-checkpoint crashes), full and delta alike.
  for (uint64_t k = 1; k <= sync_points; ++k) {
    SCOPED_TRACE("crash at sync point " + std::to_string(k) + ", scheme " +
                 std::to_string(int(scheme)) +
                 (full_only ? ", full only" : ", delta"));
    FaultFs fs;
    fs.CrashAtSyncPoint(k);
    size_t applied = 0;
    {
      auto system = std::make_unique<System>(options_for(&fs));
      Status st = RunWorkload(system.get(), codec, ops, &applied);
      ASSERT_FALSE(st.ok());  // the armed crash must have fired
      ASSERT_TRUE(fs.crashed());
    }
    fs.DropVolatile();  // power loss: volatile bytes are gone

    auto recovered = System::Recover(options_for(&fs));
    if (!recovered.ok()) {
      // Only legitimate before the epoch-1 baseline snapshot is durable:
      // its temp-file sync is barrier 1 and its rename is barrier 2, so
      // from barrier 3 on recovery must always succeed.
      ASSERT_EQ(recovered.status().code(), StatusCode::kNotFound);
      ASSERT_LE(k, 2u);
      continue;
    }
    System& system = *recovered.value();

    // (a) epoch-sound: exactly the updates whose WAL records became
    // durable are recovered. An update's WAL sync is its only barrier
    // between epochs (checkpoints drain before the next update), so the
    // recovered epoch determines the prefix.
    const uint64_t epoch = system.epoch();
    ASSERT_GE(epoch, 1u);
    ASSERT_LE(epoch, 1 + total_updates);
    // The crash lost at most the single in-flight update.
    ASSERT_GE(epoch, 1 + applied);
    ASSERT_LE(epoch, 1 + applied + 1);

    // (b) verifiable as live traffic.
    VerifySweep(&system);

    // (c) differentially equal to the never-crashed twin of that prefix.
    auto twin = BuildTwin<System>(options_for(&fs), ops, size_t(epoch - 1),
                                  codec);
    EXPECT_EQ(twin->epoch(), epoch);
    EXPECT_EQ(FullScan(twin.get()), FullScan(&system));
    if constexpr (std::is_same_v<System, TomSystem>) {
      EXPECT_EQ(twin->owner().signature(), system.owner().signature());
    }

    // The recovered system keeps working: one more durable update.
    ASSERT_TRUE(
        system.Insert(codec.MakeRecord(RecordId(9000 + k), Key(777))).ok());
    EXPECT_EQ(system.epoch(), epoch + 1);
    ASSERT_TRUE(system.WaitForCheckpoints().ok());
  }
}

// The first update on a loaded system does local SP work only: no pass
// over the dataset runs under the writer lock, so the update touches fewer
// SP heap pages than the dataset occupies.
template <typename System>
void ExpectFirstInsertIsLocal(typename System::Options options) {
  options.record_size = kRecordSize;
  System system(options);
  RecordCodec codec(kRecordSize);
  std::vector<Record> records;
  for (uint64_t id = 1; id <= 2000; ++id) {
    records.push_back(codec.MakeRecord(RecordId(id), Key(id * 10)));
  }
  ASSERT_TRUE(system.Load(records).ok());
  size_t dataset_pages = system.sp().HeapStorageBytes() / storage::kPageSize;
  storage::BufferPool::Stats before = system.sp().heap_pool_stats();
  ASSERT_TRUE(system.Insert(codec.MakeRecord(RecordId(5000), Key(12345))).ok());
  uint64_t touched = (system.sp().heap_pool_stats() - before).accesses;
  EXPECT_LT(touched, dataset_pages);
  EXPECT_GT(dataset_pages, 16u);  // the dataset spans many pages
}

TEST(UpdatePipelineTest, SaeFirstInsertTouchesFewSpHeapPages) {
  ExpectFirstInsertIsLocal<SaeSystem>({});
}

TEST(UpdatePipelineTest, TomFirstInsertTouchesFewSpHeapPages) {
  TomSystem::Options options;
  options.rsa_modulus_bits = 512;  // fast for tests
  ExpectFirstInsertIsLocal<TomSystem>(options);
}

TEST(RecoveryMatrix, SaeSha1EveryCrashPointRecovers) {
  RunCrashMatrix<SaeSystem>(crypto::HashScheme::kSha1, /*full_only=*/false);
}

TEST(RecoveryMatrix, SaeSha256EveryCrashPointRecovers) {
  RunCrashMatrix<SaeSystem>(crypto::HashScheme::kSha256Trunc,
                            /*full_only=*/false);
}

TEST(RecoveryMatrix, TomSha1EveryCrashPointRecovers) {
  RunCrashMatrix<TomSystem>(crypto::HashScheme::kSha1, /*full_only=*/false);
}

TEST(RecoveryMatrix, TomSha256EveryCrashPointRecovers) {
  RunCrashMatrix<TomSystem>(crypto::HashScheme::kSha256Trunc,
                            /*full_only=*/false);
}

TEST(RecoveryMatrix, SaeSha1FullSnapshotsOnlyEveryCrashPointRecovers) {
  RunCrashMatrix<SaeSystem>(crypto::HashScheme::kSha1, /*full_only=*/true);
}

TEST(RecoveryMatrix, SaeSha256FullSnapshotsOnlyEveryCrashPointRecovers) {
  RunCrashMatrix<SaeSystem>(crypto::HashScheme::kSha256Trunc,
                            /*full_only=*/true);
}

TEST(RecoveryMatrix, TomSha1FullSnapshotsOnlyEveryCrashPointRecovers) {
  RunCrashMatrix<TomSystem>(crypto::HashScheme::kSha1, /*full_only=*/true);
}

TEST(RecoveryMatrix, TomSha256FullSnapshotsOnlyEveryCrashPointRecovers) {
  RunCrashMatrix<TomSystem>(crypto::HashScheme::kSha256Trunc,
                            /*full_only=*/true);
}

// The TOM split leg: every crash point of a schedule that splits and
// merges leaves and internal nodes must recover the exact signed tree.
TEST(RecoveryMatrix, TomSha1SplitsEveryCrashPointRecovers) {
  RunCrashMatrix<TomSystem>(crypto::HashScheme::kSha1, /*full_only=*/false,
                            /*split=*/true);
}

TEST(RecoveryMatrix, TomSha256SplitsEveryCrashPointRecovers) {
  RunCrashMatrix<TomSystem>(crypto::HashScheme::kSha256Trunc,
                            /*full_only=*/false, /*split=*/true);
}

TEST(RecoveryMatrix, TomSha1SplitsFullSnapshotsOnlyEveryCrashPointRecovers) {
  RunCrashMatrix<TomSystem>(crypto::HashScheme::kSha1, /*full_only=*/true,
                            /*split=*/true);
}

TEST(RecoveryMatrix, TomSha256SplitsFullSnapshotsOnlyEveryCrashPointRecovers) {
  RunCrashMatrix<TomSystem>(crypto::HashScheme::kSha256Trunc,
                            /*full_only=*/true, /*split=*/true);
}

// --- WAL fuzzing -------------------------------------------------------------

std::vector<std::vector<uint8_t>> SampleWalPayloads(size_t n) {
  std::vector<std::vector<uint8_t>> payloads;
  RecordCodec codec(kRecordSize);
  for (size_t i = 0; i < n; ++i) {
    WalUpdate update;
    if (i % 3 == 0) {
      update.op = WalUpdate::kDelete;
      update.id = RecordId(i);
    } else {
      update.op = WalUpdate::kInsert;
      update.record = codec.MakeRecord(RecordId(i), Key(i * 13));
    }
    update.epoch = i + 2;
    payloads.push_back(EncodeWalUpdate(update));
  }
  return payloads;
}

// First (and only) segment of a log written under `dir`.
std::string FirstSegmentPath(const std::string& dir) {
  return dir + "/" + storage::WalSegmentName(1);
}

// Writes `payloads` as a well-formed single-segment log under `dir`.
void WriteWal(FaultFs* fs, const std::string& dir,
              const std::vector<std::vector<uint8_t>>& payloads) {
  auto wal = storage::WriteAheadLog::Open(fs, dir).ValueOrDie();
  for (const auto& payload : payloads) {
    ASSERT_TRUE(wal->Append(payload).ok());
  }
}

// Every mutation of a valid log must scan to a clean PREFIX of the
// original records: never an error, never a record past the mutation.
void ExpectScanIsPrefix(FaultFs* fs, const std::string& path,
                        const std::vector<std::vector<uint8_t>>& originals) {
  auto scanned = storage::ReadLog(fs, path);
  ASSERT_TRUE(scanned.ok()) << scanned.status().message();
  const auto& records = scanned.value().records;
  ASSERT_LE(records.size(), originals.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i], originals[i]) << "record " << i << " mutated";
  }
}

TEST(WalFuzz, TornTailsTruncateToRecordBoundary) {
  FaultFs fs;
  auto payloads = SampleWalPayloads(12);
  WriteWal(&fs, "/db", payloads);
  const std::string path = FirstSegmentPath("/db");
  auto file = fs.Open(path, false).ValueOrDie();
  const uint64_t size = file->Size().ValueOrDie();

  // Cut the log at EVERY byte length; the scan must recover the longest
  // record prefix that still fits.
  std::vector<uint8_t> image(size);
  ASSERT_EQ(file->ReadAt(0, image.data(), size).ValueOrDie(), size);
  for (uint64_t cut = 0; cut <= size; ++cut) {
    ASSERT_TRUE(file->Truncate(cut).ok());
    auto scanned = storage::ReadLog(&fs, path);
    ASSERT_TRUE(scanned.ok());
    uint64_t valid = scanned.value().valid_bytes;
    ASSERT_LE(valid, cut);
    EXPECT_EQ(scanned.value().torn_tail, valid < cut);
    ExpectScanIsPrefix(&fs, path, payloads);
    // restore
    ASSERT_TRUE(file->Truncate(0).ok());
    ASSERT_TRUE(file->WriteAt(0, image.data(), size).ok());
  }
}

TEST(WalFuzz, BitFlipsNeverCrashAndNeverOverReplay) {
  FaultFs fs;
  auto payloads = SampleWalPayloads(12);
  WriteWal(&fs, "/db", payloads);
  const std::string path = FirstSegmentPath("/db");
  auto file = fs.Open(path, false).ValueOrDie();
  const uint64_t size = file->Size().ValueOrDie();
  std::vector<uint8_t> image(size);
  ASSERT_EQ(file->ReadAt(0, image.data(), size).ValueOrDie(), size);

  uint64_t rng = 0x5AEDB;
  for (int trial = 0; trial < 500; ++trial) {
    uint64_t pos = NextRand(&rng) % size;
    uint8_t flipped = image[pos] ^ uint8_t(1u << (NextRand(&rng) % 8));
    ASSERT_TRUE(file->WriteAt(pos, &flipped, 1).ok());
    ExpectScanIsPrefix(&fs, path, payloads);
    ASSERT_TRUE(file->WriteAt(pos, &image[pos], 1).ok());  // restore
  }
}

TEST(WalFuzz, LyingLengthPrefixesEndTheValidPrefix) {
  FaultFs fs;
  auto payloads = SampleWalPayloads(8);
  WriteWal(&fs, "/db", payloads);
  const std::string path = FirstSegmentPath("/db");
  auto file = fs.Open(path, false).ValueOrDie();
  const uint64_t size = file->Size().ValueOrDie();
  std::vector<uint8_t> image(size);
  ASSERT_EQ(file->ReadAt(0, image.data(), size).ValueOrDie(), size);

  // Overwrite each record's length prefix with adversarial values: huge
  // (would allocate GiBs if trusted), just-past-EOF, and maximal.
  const uint32_t lies[] = {storage::kMaxWalPayload + 1, uint32_t(size),
                           0x7FFFFFFFu, 0xFFFFFFFFu};
  uint64_t offset = 0;
  for (const auto& payload : payloads) {
    for (uint32_t lie : lies) {
      uint8_t enc[4];
      EncodeU32(enc, lie);
      ASSERT_TRUE(file->WriteAt(offset, enc, 4).ok());
      ExpectScanIsPrefix(&fs, path, payloads);
      ASSERT_TRUE(file->WriteAt(offset, image.data() + offset, 4).ok());
    }
    offset += storage::kWalRecordHeader + payload.size();
  }
}

TEST(WalFuzz, CrcValidGarbageRecordEndsReplayAtOpen) {
  // A record with a correct checksum but an undecodable payload cannot
  // come from the stage path; DurabilityManager::Open must cut the log
  // there.
  FaultFs fs;
  auto payloads = SampleWalPayloads(4);
  const std::vector<uint8_t> garbage = {0x7F, 0x00, 0x01};  // unknown op
  WriteWal(&fs, "/db", payloads);
  {
    auto wal = storage::WriteAheadLog::Open(&fs, "/db").ValueOrDie();
    ASSERT_TRUE(wal->Append(garbage).ok());
  }
  core::DurabilityOptions options;
  options.enabled = true;
  options.dir = "/db";
  options.vfs = &fs;
  auto mgr = DurabilityManager::Open(options);
  ASSERT_TRUE(mgr.ok()) << mgr.status().message();
  EXPECT_EQ(mgr.value()->recovered().wal_tail.size(), payloads.size());
  EXPECT_TRUE(mgr.value()->recovered().wal_truncated);
  // The cut is durable: a raw re-scan no longer sees the garbage bytes.
  auto rescanned = storage::ReadLog(&fs, FirstSegmentPath("/db"));
  ASSERT_TRUE(rescanned.ok());
  EXPECT_EQ(rescanned.value().records.size(), payloads.size());
  EXPECT_FALSE(rescanned.value().torn_tail);
}

TEST(WalSegments, RotateSealsAndDropRemovesOnlySealedSegments) {
  FaultFs fs;
  auto payloads = SampleWalPayloads(6);
  auto wal = storage::WriteAheadLog::Open(&fs, "/db").ValueOrDie();
  for (size_t i = 0; i < 3; ++i) ASSERT_TRUE(wal->Append(payloads[i]).ok());
  auto sealed = wal->Rotate();
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(sealed.value(), 1u);
  for (size_t i = 3; i < 6; ++i) ASSERT_TRUE(wal->Append(payloads[i]).ok());
  ASSERT_TRUE(fs.Exists(FirstSegmentPath("/db")));
  ASSERT_TRUE(fs.Exists("/db/" + storage::WalSegmentName(2)));
  // Dropping through the sealed sequence removes segment 1 but never the
  // active segment.
  ASSERT_TRUE(wal->DropSegmentsThrough(sealed.value()).ok());
  EXPECT_FALSE(fs.Exists(FirstSegmentPath("/db")));
  EXPECT_TRUE(fs.Exists("/db/" + storage::WalSegmentName(2)));
  // Reopen: the surviving records are exactly the post-rotation suffix.
  wal.reset();
  storage::WalContents contents;
  auto reopened = storage::WriteAheadLog::Open(&fs, "/db", &contents);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(contents.records.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(contents.records[i], payloads[3 + i]);
  }
}

// --- snapshot atomicity and delta chains -------------------------------------

TEST(SnapshotStore, CrashAtEitherBarrierLeavesPreviousSnapshotIntact) {
  const std::vector<uint8_t> payload_a(100, 0xAA);
  const std::vector<uint8_t> payload_b(100, 0xBB);
  for (uint64_t k = 1; k <= 2; ++k) {  // temp sync, rename
    FaultFs fs;
    storage::SnapshotStore store(&fs, "/snaps");
    ASSERT_TRUE(store.Write(7, payload_a).ok());
    fs.CrashAtSyncPoint(k);
    ASSERT_FALSE(store.Write(8, payload_b).ok());
    fs.DropVolatile();
    auto loaded = store.LoadLatest();
    ASSERT_TRUE(loaded.ok()) << "crash at barrier " << k;
    EXPECT_EQ(loaded.value().epoch, 7u);
    EXPECT_EQ(loaded.value().payload, payload_a);
    EXPECT_FALSE(loaded.value().fell_back);
  }
}

TEST(SnapshotStore, SkippedTempSyncWouldTearTheSnapshot) {
  // The FaultFs rename models the real sharp edge: content renamed without
  // a prior sync has no durable image. This test pins the model itself, so
  // the matrix above genuinely punishes a protocol that dropped the sync.
  FaultFs fs;
  auto file = fs.Open("/snaps/snap.tmp", true).ValueOrDie();
  const uint8_t byte = 1;
  ASSERT_TRUE(file->WriteAt(0, &byte, 1).ok());
  ASSERT_TRUE(fs.Rename("/snaps/snap.tmp",
                        "/snaps/snap-00000000000000000009").ok());
  fs.DropVolatile();
  storage::SnapshotStore store(&fs, "/snaps");
  EXPECT_EQ(store.LoadLatest().status().code(), StatusCode::kNotFound);
}

TEST(SnapshotStore, CorruptNewestFallsBackToPreviousValidSnapshot) {
  FaultFs fs;
  storage::SnapshotStore store(&fs, "/snaps");
  ASSERT_TRUE(store.Write(3, std::vector<uint8_t>(40, 0x33)).ok());
  ASSERT_TRUE(store.Write(4, std::vector<uint8_t>(40, 0x44)).ok());
  // Flip one payload byte of the newest file: its CRC fails, and the
  // previous snapshot must answer instead.
  auto file = fs.Open("/snaps/snap-00000000000000000004", false).ValueOrDie();
  uint8_t corrupted = 0x45;
  ASSERT_TRUE(file->WriteAt(30, &corrupted, 1).ok());
  auto loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().epoch, 3u);
  EXPECT_TRUE(loaded.value().fell_back);
  EXPECT_EQ(loaded.value().payload, std::vector<uint8_t>(40, 0x33));
}

TEST(SnapshotStore, LoadChainComposesBasePlusLinkedDeltas) {
  FaultFs fs;
  storage::SnapshotStore store(&fs, "/snaps");
  ASSERT_TRUE(store.Write(2, {0x10}).ok());
  ASSERT_TRUE(store.WriteDelta(2, 5, {0x25}).ok());
  ASSERT_TRUE(store.WriteDelta(5, 9, {0x59}).ok());
  auto chain = store.LoadChain();
  ASSERT_TRUE(chain.ok()) << chain.status().message();
  EXPECT_EQ(chain.value().base_epoch, 2u);
  EXPECT_EQ(chain.value().base_payload, std::vector<uint8_t>{0x10});
  ASSERT_EQ(chain.value().deltas.size(), 2u);
  EXPECT_EQ(chain.value().deltas[0].epoch, 5u);
  EXPECT_EQ(chain.value().deltas[1].epoch, 9u);
  EXPECT_EQ(chain.value().deltas[1].payload, std::vector<uint8_t>{0x59});
  EXPECT_FALSE(chain.value().fell_back);
}

// A payload streamed in pieces lands as the same file bytes as the whole
// payload written at once, for both file kinds; a source that puts another
// length than it declared fails before the rename, leaving no file.
TEST(SnapshotStore, StreamedPayloadWritesTheSameFileBytes) {
  std::vector<uint8_t> payload(1000);
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = uint8_t(i * 7);
  auto in_pieces = [&](size_t put_bytes) {
    return [&payload, put_bytes](storage::SnapshotStore::PayloadSink* sink) {
      for (size_t at = 0; at < put_bytes; at += 300) {
        SAE_RETURN_NOT_OK(sink->Put(payload.data() + at,
                                    std::min<size_t>(300, put_bytes - at)));
      }
      return Status::OK();
    };
  };
  auto file_bytes = [](FaultFs* fs, const std::string& path) {
    auto file = fs->Open(path, false);
    EXPECT_TRUE(file.ok());
    std::vector<uint8_t> bytes(file.value()->Size().ValueOrDie());
    EXPECT_TRUE(file.value()->ReadAt(0, bytes.data(), bytes.size()).ok());
    return bytes;
  };
  FaultFs whole_fs, streamed_fs;
  storage::SnapshotStore whole(&whole_fs, "/snaps");
  storage::SnapshotStore streamed(&streamed_fs, "/snaps");
  ASSERT_TRUE(whole.Write(4, payload).ok());
  ASSERT_TRUE(whole.WriteDelta(4, 6, payload).ok());
  ASSERT_TRUE(streamed.Write(4, payload.size(), in_pieces(payload.size())).ok());
  ASSERT_TRUE(streamed
                  .WriteDelta(4, 6, payload.size(), in_pieces(payload.size()))
                  .ok());
  for (const std::string& name :
       {std::string("snap-00000000000000000004"), DeltaFileName(4, 6)}) {
    EXPECT_EQ(file_bytes(&streamed_fs, "/snaps/" + name),
              file_bytes(&whole_fs, "/snaps/" + name))
        << name;
  }

  EXPECT_EQ(streamed.Write(8, payload.size(), in_pieces(payload.size() - 1))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(streamed_fs.Exists("/snaps/snap-00000000000000000008"));
  EXPECT_EQ(streamed.LoadLatest().ValueOrDie().epoch, 4u);
}

TEST(SnapshotStore, CorruptMiddleDeltaEndsTheChainAtTheBreak) {
  FaultFs fs;
  storage::SnapshotStore store(&fs, "/snaps");
  ASSERT_TRUE(store.Write(2, {0x10}).ok());
  ASSERT_TRUE(store.WriteDelta(2, 5, {0x25}).ok());
  ASSERT_TRUE(store.WriteDelta(5, 9, {0x59}).ok());
  ASSERT_TRUE(store.WriteDelta(9, 12, {0x9C}).ok());
  // Corrupt the MIDDLE link: composition must stop before it — the valid
  // tail past the break is unreachable (its base state cannot be built).
  auto file =
      fs.Open("/snaps/" + DeltaFileName(5, 9), false).ValueOrDie();
  uint8_t corrupted = 0xFF;
  ASSERT_TRUE(file->WriteAt(28, &corrupted, 1).ok());
  auto chain = store.LoadChain();
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain.value().base_epoch, 2u);
  ASSERT_EQ(chain.value().deltas.size(), 1u);
  EXPECT_EQ(chain.value().deltas[0].epoch, 5u);
  EXPECT_TRUE(chain.value().fell_back);
}

TEST(SnapshotStore, GcKeepsTheNewestTwoChains) {
  FaultFs fs;
  storage::SnapshotStore store(&fs, "/snaps");
  ASSERT_TRUE(store.Write(1, {1}).ok());
  ASSERT_TRUE(store.WriteDelta(1, 2, {2}).ok());
  ASSERT_TRUE(store.WriteDelta(2, 3, {3}).ok());
  ASSERT_TRUE(store.Write(4, {4}).ok());
  ASSERT_TRUE(store.WriteDelta(4, 5, {5}).ok());
  ASSERT_TRUE(store.Write(6, {6}).ok());
  // Keeping two chains means: the two newest fulls survive, and every
  // delta belonging to an older chain (epoch below the older kept full)
  // is garbage.
  auto epochs = store.ListEpochs().ValueOrDie();
  EXPECT_EQ(epochs, (std::vector<uint64_t>{4, 6}));
  auto links = store.ListDeltaLinks().ValueOrDie();
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links[0].first, 4u);
  EXPECT_EQ(links[0].second, 5u);
}

TEST(SnapshotStore, SelfLinkedDeltaCannotStallTheChainWalk) {
  // Regression: a delta whose base equals its epoch (on-disk adversary or
  // buggy writer — header matches the name, CRC valid) used to self-link:
  // the walk accepted it without advancing the cursor and looped forever.
  // It must be skipped, and the rest of the chain still composes.
  FaultFs fs;
  storage::SnapshotStore store(&fs, "/snaps");
  ASSERT_TRUE(store.Write(2, {0x10}).ok());
  ASSERT_TRUE(store.WriteDelta(2, 5, {0x25}).ok());
  ASSERT_TRUE(store.WriteDelta(5, 5, {0x55}).ok());  // self-link mid-chain
  ASSERT_TRUE(store.WriteDelta(5, 9, {0x59}).ok());
  auto chain = store.LoadChain();
  ASSERT_TRUE(chain.ok()) << chain.status().message();
  EXPECT_EQ(chain.value().base_epoch, 2u);
  ASSERT_EQ(chain.value().deltas.size(), 2u);
  EXPECT_EQ(chain.value().deltas[0].epoch, 5u);
  EXPECT_EQ(chain.value().deltas[1].epoch, 9u);

  // A lone self-link sitting right on the base (the original infinite
  // loop) terminates too, leaving just the base.
  FaultFs fs2;
  storage::SnapshotStore store2(&fs2, "/snaps");
  ASSERT_TRUE(store2.Write(2, {0x10}).ok());
  ASSERT_TRUE(store2.WriteDelta(2, 2, {0x22}).ok());
  auto lone = store2.LoadChain();
  ASSERT_TRUE(lone.ok()) << lone.status().message();
  EXPECT_EQ(lone.value().base_epoch, 2u);
  EXPECT_TRUE(lone.value().deltas.empty());
  // And ReadDelta refuses a non-advancing link outright.
  EXPECT_EQ(store2.ReadDelta(2, 2).status().code(), StatusCode::kCorruption);
}

// --- delta-chain recovery semantics ------------------------------------------

TEST(Recovery, CrashMidBackgroundCheckpointLosesNothing) {
  // Arm the crash inside the checkpoint write itself (temp sync, then
  // rename): the update that triggered the checkpoint is already durable
  // in the retained WAL segments, so recovery from the PREVIOUS chain
  // replays everything.
  RecordCodec codec(kRecordSize);
  for (uint64_t extra = 1; extra <= 2; ++extra) {  // temp sync, rename
    FaultFs fs;
    auto options =
        DurableOptions<SaeSystem>(crypto::HashScheme::kSha1, &fs, "/db");
    SaeSystem system(options);
    ASSERT_TRUE(system.Load(SeedDataset(codec, 12)).ok());
    for (int i = 0; i < int(kSnapshotInterval) - 1; ++i) {
      ASSERT_TRUE(
          system.Insert(codec.MakeRecord(RecordId(200 + i), Key(500 + i)))
              .ok());
      ASSERT_TRUE(system.WaitForCheckpoints().ok());
    }
    // Counting from arming: the next insert's WAL commit is barrier 1,
    // its cadence checkpoint writes at barrier 2 (temp sync) and 3
    // (rename).
    fs.CrashAtSyncPoint(1 + extra);
    ASSERT_TRUE(
        system.Insert(codec.MakeRecord(RecordId(299), Key(599))).ok());
    EXPECT_FALSE(system.WaitForCheckpoints().ok());
    ASSERT_TRUE(fs.crashed());
    fs.DropVolatile();

    auto recovered = SaeSystem::Recover(options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    // Nothing lost: all kSnapshotInterval updates replay out of the
    // baseline chain plus the retained WAL segments.
    EXPECT_EQ(recovered.value()->epoch(), 1 + kSnapshotInterval);
    VerifySweep(recovered.value().get());
  }
}

TEST(Recovery, CorruptMiddleDeltaFallsBackToTheValidChainPrefix) {
  RecordCodec codec(kRecordSize);
  FaultFs fs;
  auto options =
      DurableOptions<SaeSystem>(crypto::HashScheme::kSha1, &fs, "/db");
  options.durability.snapshot_interval = 2;
  options.durability.full_snapshot_every = 100;  // never compact
  SaeSystem system(options);
  ASSERT_TRUE(system.Load(SeedDataset(codec, 10)).ok());
  for (int i = 0; i < 8; ++i) {  // deltas at epochs 3, 5, 7, 9
    ASSERT_TRUE(
        system.Insert(codec.MakeRecord(RecordId(300 + i), Key(700 + i)))
            .ok());
    ASSERT_TRUE(system.WaitForCheckpoints().ok());
  }
  // Power loss first, THEN corrupt the durable image of the delta linking
  // epoch 3 -> 5 (corrupting before the drop would revert the flipped
  // byte along with every other volatile write). Composition must stop at
  // epoch 3, and the WAL for epochs past the later checkpoints is gone —
  // the degraded-mode contract is "an older but still provable epoch".
  fs.DropVolatile();
  auto file = fs.Open("/db/" + DeltaFileName(3, 5), false).ValueOrDie();
  uint8_t corrupted = 0xFF;
  ASSERT_TRUE(file->WriteAt(29, &corrupted, 1).ok());

  auto recovered = SaeSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  SaeSystem& rec = *recovered.value();
  EXPECT_EQ(rec.epoch(), 3u);
  EXPECT_TRUE(rec.durability()->recovered().snapshot_fell_back);
  EXPECT_EQ(rec.durability()->recovered().chain_deltas, 1u);
  VerifySweep(&rec);
  // Differentially equal to a twin that applied exactly 2 updates.
  typename SaeSystem::Options twin_options;
  twin_options.record_size = kRecordSize;
  SaeSystem twin(twin_options);
  ASSERT_TRUE(twin.Load(SeedDataset(codec, 10)).ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(
        twin.Insert(codec.MakeRecord(RecordId(300 + i), Key(700 + i))).ok());
  }
  EXPECT_EQ(FullScan(&twin), FullScan(&rec));
  // The fallen-back system keeps working and re-chains from its tail.
  ASSERT_TRUE(rec.Insert(codec.MakeRecord(RecordId(400), Key(800))).ok());
  ASSERT_TRUE(rec.Insert(codec.MakeRecord(RecordId(401), Key(801))).ok());
  ASSERT_TRUE(rec.WaitForCheckpoints().ok());
  EXPECT_EQ(rec.epoch(), 5u);
}

TEST(Recovery, DeltaChainRecoveryComposesAcrossCompaction) {
  // Run long enough that the chain compacts (full_snapshot_every=3) and
  // old chains are garbage-collected; recovery must compose the newest
  // chain and land on the live epoch.
  RecordCodec codec(kRecordSize);
  FaultFs fs;
  auto options =
      DurableOptions<SaeSystem>(crypto::HashScheme::kSha1, &fs, "/db");
  uint64_t live_epoch = 0;
  {
    SaeSystem system(options);
    ASSERT_TRUE(system.Load(SeedDataset(codec, 10)).ok());
    for (int i = 0; i < 26; ++i) {
      ASSERT_TRUE(
          system.Insert(codec.MakeRecord(RecordId(500 + i), Key(40 + i)))
              .ok());
      ASSERT_TRUE(system.WaitForCheckpoints().ok());
    }
    live_epoch = system.epoch();
    DurabilityStats stats = system.durability_stats();
    EXPECT_GT(stats.checkpoints_full, 1u);  // compaction happened
    EXPECT_GT(stats.checkpoints_delta, stats.checkpoints_full);
  }
  fs.DropVolatile();
  auto recovered = SaeSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered.value()->epoch(), live_epoch);
  VerifySweep(recovered.value().get());
}

// --- rollback adversary ------------------------------------------------------

// An attacker restores the SP from an older (internally consistent,
// fully durable) disk state — here a recovered DELTA CHAIN, not just a
// full snapshot. Recovery itself succeeds: the state is genuine, just
// old. But the recovered epoch lags, and the unmodified client freshness
// gate rejects the served answers as kStaleEpoch.
TEST(RollbackAdversary, SaeClientRejectsSnapshotRollback) {
  RecordCodec codec(kRecordSize);
  FaultFs fs;
  auto options = DurableOptions<SaeSystem>(crypto::HashScheme::kSha1, &fs,
                                           "/db");
  SaeSystem system(options);
  ASSERT_TRUE(system.Load(SeedDataset(codec, 20)).ok());
  for (int i = 0; i < int(kSnapshotInterval); ++i) {  // force a checkpoint
    ASSERT_TRUE(system.Insert(codec.MakeRecord(RecordId(200 + i), Key(500 + i))).ok());
  }
  ASSERT_TRUE(system.WaitForCheckpoints().ok());
  // The attacker images the disk now...
  std::unique_ptr<FaultFs> rollback_fs = fs.Clone();
  // ...while the real system moves on.
  for (int i = 0; i < int(kSnapshotInterval); ++i) {
    ASSERT_TRUE(system.Insert(codec.MakeRecord(RecordId(300 + i), Key(600 + i))).ok());
  }
  const uint64_t live_epoch = system.epoch();

  auto options_rb = DurableOptions<SaeSystem>(crypto::HashScheme::kSha1,
                                              rollback_fs.get(), "/db");
  auto rolled_back = SaeSystem::Recover(options_rb);
  ASSERT_TRUE(rolled_back.ok()) << rolled_back.status().message();
  ASSERT_LT(rolled_back.value()->epoch(), live_epoch);
  // The imaged state really was a delta chain, not a bare full snapshot.
  EXPECT_GE(rolled_back.value()->durability()->recovered().chain_deltas, 1u);

  // The rolled-back SP answers self-consistently (its own epoch, its own
  // token) — only the freshness gate can catch it, and it must.
  auto outcome = rolled_back.value()->Query(kMinKey, kMaxKey);
  ASSERT_TRUE(outcome.ok());
  Status verdict = core::Client::VerifyAnswer(
      outcome.value().request, outcome.value().answer,
      outcome.value().results, outcome.value().vt,
      outcome.value().claimed_epoch, live_epoch, codec,
      crypto::HashScheme::kSha1);
  EXPECT_EQ(verdict.code(), StatusCode::kStaleEpoch) << verdict.message();
}

TEST(RollbackAdversary, TomClientRejectsSnapshotRollback) {
  RecordCodec codec(kRecordSize);
  FaultFs fs;
  auto options = DurableOptions<TomSystem>(crypto::HashScheme::kSha1, &fs,
                                           "/db");
  TomSystem system(options);
  ASSERT_TRUE(system.Load(SeedDataset(codec, 20)).ok());
  for (int i = 0; i < int(kSnapshotInterval); ++i) {
    ASSERT_TRUE(system.Insert(codec.MakeRecord(RecordId(200 + i), Key(500 + i))).ok());
  }
  ASSERT_TRUE(system.WaitForCheckpoints().ok());
  std::unique_ptr<FaultFs> rollback_fs = fs.Clone();
  for (int i = 0; i < int(kSnapshotInterval); ++i) {
    ASSERT_TRUE(system.Insert(codec.MakeRecord(RecordId(300 + i), Key(600 + i))).ok());
  }
  const uint64_t live_epoch = system.epoch();

  auto options_rb = DurableOptions<TomSystem>(crypto::HashScheme::kSha1,
                                              rollback_fs.get(), "/db");
  auto rolled_back = TomSystem::Recover(options_rb);
  ASSERT_TRUE(rolled_back.ok()) << rolled_back.status().message();
  ASSERT_LT(rolled_back.value()->epoch(), live_epoch);
  EXPECT_GE(rolled_back.value()->durability()->recovered().chain_deltas, 1u);

  auto outcome = rolled_back.value()->Query(kMinKey, kMaxKey);
  ASSERT_TRUE(outcome.ok());
  // The rolled-back signature IS valid for its own epoch; freshness is the
  // only defense, exactly as the paper's epoch-stamping argument says.
  Status verdict = core::TomClient::VerifyAnswer(
      outcome.value().request, outcome.value().answer,
      outcome.value().results, outcome.value().vo,
      rolled_back.value()->owner().public_key(), codec,
      crypto::HashScheme::kSha1, live_epoch);
  EXPECT_EQ(verdict.code(), StatusCode::kStaleEpoch) << verdict.message();
}

// --- misc recovery semantics -------------------------------------------------

// Regression: TOM recovery used to bulk-load the checkpointed records into
// a freshly planned tree. 400 records load as four 100-entry leaves; eight
// inserts into the first make it 108/100/100/100, while a bulk load of the
// 408 records spreads them 4 x 102 — no split needed for a different root
// digest, and the re-signed root then failed the snapshot signature. The
// checkpoint now carries the tree's shape, on both schedules.
void ExpectTomRecoversAfterInserts(bool full_only) {
  RecordCodec codec(kRecordSize);
  FaultFs fs;
  auto options = DurableOptions<TomSystem>(crypto::HashScheme::kSha1, &fs,
                                           "/db", full_only);
  crypto::RsaSignature live_signature;
  std::vector<Record> live;
  {
    TomSystem system(options);
    ASSERT_TRUE(system.Load(SeedDataset(codec, 400)).ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(system.Insert(codec.MakeRecord(RecordId(1000 + i),
                                                 Key(17 + 10 * i)))
                      .ok());
    }
    ASSERT_TRUE(system.WaitForCheckpoints().ok());
    live_signature = system.owner().signature();
    live = FullScan(&system);
  }
  fs.DropVolatile();
  auto recovered = TomSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered.value()->epoch(), 9u);
  EXPECT_EQ(recovered.value()->owner().signature(), live_signature);
  EXPECT_EQ(FullScan(recovered.value().get()), live);
  VerifySweep(recovered.value().get());
}

TEST(Recovery, TomRecoversAfterInsertsReshapeTheTree) {
  ExpectTomRecoversAfterInserts(/*full_only=*/false);
}

TEST(Recovery, TomFullSnapshotsRecoverAfterInsertsReshapeTheTree) {
  ExpectTomRecoversAfterInserts(/*full_only=*/true);
}

// A TOM snapshot written before checkpoints carried the tree shape ends
// right after the signature. Recovery refuses it with kUnimplemented
// rather than rebuilding a tree the signature may not cover; SAE payloads
// never carried a shape and keep their bytes.
TEST(Recovery, OldFormatTomSnapshotIsRejected) {
  RecordCodec codec(kRecordSize);
  FaultFs fs;
  auto options =
      DurableOptions<TomSystem>(crypto::HashScheme::kSha1, &fs, "/db");
  SnapshotState state;
  {
    TomSystem system(options);
    ASSERT_TRUE(system.Load(SeedDataset(codec, 20)).ok());
    state = system.CaptureState().ValueOrDie();
  }
  ASSERT_EQ(state.shape, (btree::TreeShape{{20}}));
  std::vector<uint8_t> payload = core::EncodeSnapshotState(state);
  // The one-leaf shape: u32 level count, u32 node count, u16 fan-out.
  payload.resize(payload.size() - (4 + 4 + 2));
  EXPECT_EQ(core::DecodeSnapshotState(payload).status().code(),
            StatusCode::kUnimplemented);
  core::DeltaState delta;
  delta.model = SnapshotState::kTom;
  delta.record_size = kRecordSize;
  std::vector<uint8_t> delta_payload = core::EncodeDeltaState(delta);
  delta_payload.resize(delta_payload.size() - 4);  // the empty shape
  EXPECT_EQ(core::DecodeDeltaState(delta_payload).status().code(),
            StatusCode::kUnimplemented);

  // Replace the epoch-1 baseline with its old-format twin.
  storage::SnapshotStore store(&fs, "/db");
  ASSERT_TRUE(store.Write(1, payload).ok());
  fs.DropVolatile();
  auto recovered = TomSystem::Recover(options);
  EXPECT_EQ(recovered.status().code(), StatusCode::kUnimplemented)
      << recovered.status().message();

  // SAE: header, record count, records, signature length — nothing after.
  SnapshotState sae;
  sae.record_size = kRecordSize;
  sae.records = SeedDataset(codec, 3);
  size_t record_bytes = 0;
  for (const Record& record : sae.records) {
    record_bytes += 8 + 4 + 4 + record.payload.size();
  }
  EXPECT_EQ(core::EncodeSnapshotState(sae).size(),
            1 + 4 + 1 + 4 + record_bytes + 4);
}

TEST(Recovery, FailedUpdateIsRetractedFromTheWal) {
  RecordCodec codec(kRecordSize);
  FaultFs fs;
  SaeSystem system(
      DurableOptions<SaeSystem>(crypto::HashScheme::kSha1, &fs, "/db"));
  ASSERT_TRUE(system.Load(SeedDataset(codec, 5)).ok());
  const uint64_t wal_before = system.durability()->wal_bytes();
  // Duplicate insert and missing delete are rejected BEFORE logging, with
  // the same error text durability-off code paths produce.
  Status duplicate = system.Insert(codec.MakeRecord(RecordId(1), 999));
  EXPECT_EQ(duplicate.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(duplicate.message(), "record id already present");
  Status missing = system.Delete(RecordId(777));
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  EXPECT_EQ(missing.message(), "no record with this id");
  EXPECT_EQ(system.durability()->wal_bytes(), wal_before);
  // And the rejected ops are invisible to recovery.
  fs.DropVolatile();
  auto recovered = SaeSystem::Recover(
      DurableOptions<SaeSystem>(crypto::HashScheme::kSha1, &fs, "/db"));
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value()->epoch(), 1u);
}

TEST(Recovery, FailedUpdatesNeverAdvanceTheCheckpointCadence) {
  // Regression: a rejected update must not count toward the snapshot
  // interval — otherwise failed traffic would drag checkpoints forward
  // and the "checkpoint every N real changes" contract (and the delta
  // pending set) would drift.
  RecordCodec codec(kRecordSize);
  FaultFs fs;
  SaeSystem system(
      DurableOptions<SaeSystem>(crypto::HashScheme::kSha1, &fs, "/db"));
  ASSERT_TRUE(system.Load(SeedDataset(codec, 5)).ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(
        system.Insert(codec.MakeRecord(RecordId(50 + i), Key(100 + i))).ok());
  }
  EXPECT_EQ(system.durability_stats().updates_since_checkpoint, 2u);
  // A burst of rejected updates, more than enough to cross the interval
  // if they (wrongly) counted.
  for (int i = 0; i < int(kSnapshotInterval) + 2; ++i) {
    EXPECT_FALSE(system.Insert(codec.MakeRecord(RecordId(1), 999)).ok());
    EXPECT_FALSE(system.Delete(RecordId(777)).ok());
  }
  DurabilityStats stats = system.durability_stats();
  EXPECT_EQ(stats.updates_since_checkpoint, 2u);
  EXPECT_EQ(stats.checkpoints_delta, 0u);
  // Two more real updates complete the interval: exactly now the cadence
  // fires.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(
        system.Insert(codec.MakeRecord(RecordId(60 + i), Key(200 + i))).ok());
  }
  ASSERT_TRUE(system.WaitForCheckpoints().ok());
  stats = system.durability_stats();
  EXPECT_EQ(stats.updates_since_checkpoint, 0u);
  EXPECT_EQ(stats.checkpoints_delta, 1u);
}

TEST(Recovery, FailedCheckpointGatesWalGcUntilAFullSnapshotLands) {
  // Regression for a silent-data-loss hole: after a delta checkpoint's
  // write failed TRANSIENTLY, a later successful checkpoint used to drop
  // the sealed WAL segments backing the failed window — whose changes then
  // existed in no durable delta (the pending set was recycled at capture)
  // and in no WAL segment. Now GC stays gated, the next checkpoint is
  // forced FULL, and only once it lands durably do the retained segments
  // die. Either way, every acknowledged update must survive a crash.
  RecordCodec codec(kRecordSize);
  for (bool crash_before_repair : {true, false}) {
    FaultFs fs;
    auto options =
        DurableOptions<SaeSystem>(crypto::HashScheme::kSha1, &fs, "/db");
    SaeSystem system(options);
    ASSERT_TRUE(system.Load(SeedDataset(codec, 12)).ok());
    for (int i = 0; i < int(kSnapshotInterval) - 1; ++i) {
      ASSERT_TRUE(
          system.Insert(codec.MakeRecord(RecordId(200 + i), Key(500 + i)))
              .ok());
      ASSERT_TRUE(system.WaitForCheckpoints().ok());
    }
    // Counting from arming: the next insert's WAL commit is barrier 1, its
    // cadence delta checkpoint syncs the temp file at barrier 2. Fail that
    // sync transiently — the fs stays healthy, unlike CrashAtSyncPoint.
    fs.FailAtSyncPoint(2);
    ASSERT_TRUE(
        system.Insert(codec.MakeRecord(RecordId(299), Key(599))).ok());
    EXPECT_FALSE(system.WaitForCheckpoints().ok());  // the delta failed
    EXPECT_FALSE(fs.crashed());
    // The sealed segment backing the failed window must still be on disk:
    // it is the only durable copy of those updates.
    const std::string sealed = "/db/" + storage::WalSegmentName(1);
    EXPECT_TRUE(fs.Exists(sealed));

    uint64_t extra = 0;
    if (!crash_before_repair) {
      // Keep updating through the next cadence: the forced FULL snapshot
      // repairs the chain and resumes GC.
      for (; extra < kSnapshotInterval; ++extra) {
        ASSERT_TRUE(system
                        .Insert(codec.MakeRecord(RecordId(400 + int(extra)),
                                                 Key(600 + int(extra))))
                        .ok());
        ASSERT_TRUE(system.WaitForCheckpoints().ok());
      }
      DurabilityStats stats = system.durability_stats();
      EXPECT_GE(stats.checkpoints_full, 2u);   // Load baseline + repair
      EXPECT_EQ(stats.checkpoints_delta, 0u);  // the failed one never counted
      EXPECT_FALSE(fs.Exists(sealed));         // GC resumed after the repair
    }
    fs.DropVolatile();  // power loss
    auto recovered = SaeSystem::Recover(options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    EXPECT_EQ(recovered.value()->epoch(), 1 + kSnapshotInterval + extra);
    VerifySweep(recovered.value().get());
  }
}

// A group fsync that fails transiently must (a) fail the update in a way a
// crash cannot undo — the staged record is durably RETRACTED by a WAL
// abort marker, never resurrected by recovery — and (b) leave the pipeline
// usable: the next update succeeds without a restart. Before this fix one
// transient fsync failure poisoned the pipeline for the process lifetime,
// and a durable-but-failed record could replay after a crash.
template <typename System>
void RunFsyncFailureRetractsAndReArms() {
  RecordCodec codec(kRecordSize);
  FaultFs fs;
  auto options = DurableOptions<System>(crypto::HashScheme::kSha1, &fs, "/db");
  System system(options);
  ASSERT_TRUE(system.Load(SeedDataset(codec, 8)).ok());
  ASSERT_TRUE(system.Insert(codec.MakeRecord(RecordId(100), Key(40))).ok());

  // Counting from arming: the next insert's group fsync is barrier 1.
  // After it fails, the retraction syncs its abort marker at barrier 2.
  fs.FailAtSyncPoint(1);
  Status failed = system.Insert(codec.MakeRecord(RecordId(101), Key(41)));
  EXPECT_EQ(failed.code(), StatusCode::kIoError);

  // Re-armed: the very next update succeeds, no restart needed.
  ASSERT_TRUE(system.Insert(codec.MakeRecord(RecordId(102), Key(42))).ok());
  EXPECT_EQ(system.epoch(), 3u);

  // Crash. The abort marker's sync made the whole segment durable — the
  // failed record's bytes INCLUDED, exactly the resurrection scenario:
  // its epoch chains contiguously out of the snapshot, so without the
  // marker recovery would replay it. With it, the suffix is dropped.
  fs.DropVolatile();
  auto recovered = System::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  System& rec = *recovered.value();
  EXPECT_EQ(rec.epoch(), 3u);
  VerifySweep(&rec);
  bool saw_failed = false, saw_survivor = false;
  for (const Record& record : FullScan(&rec)) {
    saw_failed |= record.id == RecordId(101);
    saw_survivor |= record.id == RecordId(102);
  }
  EXPECT_FALSE(saw_failed) << "acknowledged-failed update resurrected";
  EXPECT_TRUE(saw_survivor);
}

TEST(Recovery, SaeFailedGroupFsyncRetractsDurablyAndReArms) {
  RunFsyncFailureRetractsAndReArms<SaeSystem>();
}

TEST(Recovery, TomFailedGroupFsyncRetractsDurablyAndReArms) {
  RunFsyncFailureRetractsAndReArms<TomSystem>();
}

TEST(Recovery, AbortRecordDropsTheRetractedSuffixAtOpen) {
  // Unit-level scan semantics: an abort marker retracts every EARLIER
  // record with epoch >= its epoch (a suffix — staged epochs only grow
  // between aborts), and re-staged epochs chain on after it.
  RecordCodec codec(kRecordSize);
  FaultFs fs;
  {
    auto wal = storage::WriteAheadLog::Open(&fs, "/db").ValueOrDie();
    auto append = [&](WalUpdate::Op op, uint64_t epoch, RecordId id) {
      WalUpdate update;
      update.op = op;
      update.epoch = epoch;
      if (op == WalUpdate::kInsert) update.record = codec.MakeRecord(id, 7);
      EXPECT_TRUE(wal->Append(EncodeWalUpdate(update)).ok());
    };
    append(WalUpdate::kInsert, 2, 11);
    append(WalUpdate::kInsert, 3, 12);
    append(WalUpdate::kInsert, 4, 13);
    append(WalUpdate::kAbort, 3, 0);    // epochs 3 and 4 never happened
    append(WalUpdate::kInsert, 3, 22);  // the re-staged generation
    append(WalUpdate::kInsert, 4, 23);
  }
  core::DurabilityOptions options;
  options.enabled = true;
  options.dir = "/db";
  options.vfs = &fs;
  auto mgr = DurabilityManager::Open(options);
  ASSERT_TRUE(mgr.ok()) << mgr.status().message();
  const auto& rec = mgr.value()->recovered();
  EXPECT_FALSE(rec.wal_truncated);
  ASSERT_EQ(rec.wal_tail.size(), 3u);
  EXPECT_EQ(rec.wal_tail[0].record.id, RecordId(11));
  EXPECT_EQ(rec.wal_tail[1].record.id, RecordId(22));
  EXPECT_EQ(rec.wal_tail[2].record.id, RecordId(23));
}

TEST(Recovery, ModelAndConfigMismatchesAreRejected) {
  RecordCodec codec(kRecordSize);
  FaultFs fs;
  {
    SaeSystem system(
        DurableOptions<SaeSystem>(crypto::HashScheme::kSha1, &fs, "/db"));
    ASSERT_TRUE(system.Load(SeedDataset(codec, 5)).ok());
  }
  fs.DropVolatile();
  // A TOM system must refuse an SAE directory...
  auto wrong_model = TomSystem::Recover(
      DurableOptions<TomSystem>(crypto::HashScheme::kSha1, &fs, "/db"));
  EXPECT_EQ(wrong_model.status().code(), StatusCode::kCorruption);
  // ...and a mismatched hash scheme is caught before any replay.
  auto wrong_scheme = SaeSystem::Recover(DurableOptions<SaeSystem>(
      crypto::HashScheme::kSha256Trunc, &fs, "/db"));
  EXPECT_EQ(wrong_scheme.status().code(), StatusCode::kCorruption);
}

TEST(Recovery, ShardedSystemRecoversEveryShardAndItsDirectory) {
  RecordCodec codec(kRecordSize);
  FaultFs fs;
  core::ShardedSaeSystem::Options options;
  options =
      DurableOptions<SaeSystem>(crypto::HashScheme::kSha1, &fs, "/db");
  core::ShardRouter router({100, 200});  // 3 shards
  const std::vector<Op> ops = {
      {true, 500, 50}, {true, 501, 150}, {true, 502, 250}, {false, 2, 0}};
  uint64_t crash_after;
  {
    core::ShardedSaeSystem system(router, options);
    ASSERT_TRUE(system.Load(SeedDataset(codec, 18)).ok());
    for (const Op& op : ops) {
      ASSERT_TRUE(ApplyOp(&system, op, codec).ok());
    }
    crash_after = fs.sync_points();
  }
  // Crash mid-flight in a later, longer run: the extra updates past the
  // imaged state vanish, the ones above survive per shard.
  fs.DropVolatile();
  auto recovered = core::ShardedSaeSystem::Recover(router, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  ASSERT_GT(crash_after, 0u);
  core::ShardedSaeSystem& system = *recovered.value();

  auto outcome = system.Query(kMinKey, kMaxKey);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.value().verification.ok())
      << outcome.value().verification.message();
  // All three inserts and the delete survived into the right shards.
  std::vector<RecordId> ids;
  for (const Record& record : outcome.value().results) ids.push_back(record.id);
  EXPECT_NE(std::find(ids.begin(), ids.end(), RecordId(500)), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), RecordId(501)), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), RecordId(502)), ids.end());
  EXPECT_EQ(std::find(ids.begin(), ids.end(), RecordId(2)), ids.end());
  // The rebuilt directory routes deletes: removing a recovered record
  // works without re-listing the dataset.
  EXPECT_TRUE(system.Delete(RecordId(501)).ok());
}

TEST(Recovery, ShardedTomSystemRecoversSplitShards) {
  RecordCodec codec(kRecordSize);
  FaultFs fs;
  core::ShardedTomSystem::Options options;
  options =
      DurableOptions<TomSystem>(crypto::HashScheme::kSha1, &fs, "/db");
  ShrinkFanouts(&options);
  core::ShardRouter router({100, 200});  // 3 shards
  std::vector<Record> live;
  std::vector<uint64_t> live_epochs;
  {
    core::ShardedTomSystem system(router, options);
    ASSERT_TRUE(system.Load(SeedDataset(codec, 30)).ok());
    // Every shard takes enough inserts to split its leaves and internal
    // nodes, some on seed keys, plus deletes.
    for (int i = 0; i < 27; ++i) {
      Record record = codec.MakeRecord(RecordId(500 + i), Key(15 + 10 * i));
      ASSERT_TRUE(system.Insert(record).ok());
    }
    ASSERT_TRUE(system.Delete(RecordId(2)).ok());
    ASSERT_TRUE(system.Delete(RecordId(25)).ok());
    ASSERT_TRUE(system.WaitForCheckpoints().ok());
    live = FullScan(&system);
    live_epochs = system.ShardEpochs();
  }
  fs.DropVolatile();
  auto recovered = core::ShardedTomSystem::Recover(router, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered.value()->ShardEpochs(), live_epochs);
  EXPECT_EQ(FullScan(recovered.value().get()), live);
  VerifySweep(recovered.value().get());
}

TEST(Recovery, ShardedDurabilityStatsCountSkippedCheckpoints) {
  // Regression: the sharded durability_stats() summed every counter but
  // checkpoints_skipped, so a sharded deployment always reported 0. Break
  // shard 0's chain as FailedCheckpointGatesWalGcUntilAFullSnapshotLands
  // does, then capture one more delta — the capture that races a failing
  // background write — which the checkpoint thread must skip.
  RecordCodec codec(kRecordSize);
  FaultFs fs;
  core::ShardedSaeSystem::Options options;
  options =
      DurableOptions<SaeSystem>(crypto::HashScheme::kSha1, &fs, "/db");
  core::ShardRouter router({100, 200});  // 3 shards; every key below is
                                         // shard 0's
  core::ShardedSaeSystem system(router, options);
  ASSERT_TRUE(system.Load(SeedDataset(codec, 9)).ok());
  for (int i = 0; i < int(kSnapshotInterval) - 1; ++i) {
    ASSERT_TRUE(
        system.Insert(codec.MakeRecord(RecordId(200 + i), Key(50 + i))).ok());
    ASSERT_TRUE(system.WaitForCheckpoints().ok());
  }
  // Counting from arming: the next insert's WAL commit is barrier 1, its
  // cadence delta checkpoint syncs the temp file at barrier 2.
  fs.FailAtSyncPoint(2);
  ASSERT_TRUE(system.Insert(codec.MakeRecord(RecordId(299), Key(60))).ok());
  EXPECT_FALSE(system.WaitForCheckpoints().ok());  // the delta failed
  SaeSystem& shard = system.shard(0);
  ASSERT_TRUE(shard.durability()->CheckpointDelta(shard.epoch(), {}).ok());
  // Skipping is the gate working, not a new failure.
  ASSERT_TRUE(system.WaitForCheckpoints().ok());
  EXPECT_EQ(shard.durability_stats().checkpoints_skipped, 1u);

  uint64_t per_shard = 0;
  for (size_t s = 0; s < system.num_shards(); ++s) {
    per_shard += system.shard(s).durability_stats().checkpoints_skipped;
  }
  EXPECT_GT(per_shard, 0u);
  EXPECT_EQ(system.durability_stats().checkpoints_skipped, per_shard);
}

// --- the pending log and the checkpoint image --------------------------------

// Regression: recovery replays the WAL tail past the chain through the
// live apply path, around the stage path. Those records must join the
// pending log: otherwise the next checkpoint chains onto the recovered
// tail without them, sealing the WAL for it drops the segment that held
// them, and a second crash silently loses updates the first recovery kept.
// `next_is_full` makes that next checkpoint a full snapshot instead of a
// delta.
template <typename System>
void RunSecondCrashKeepsTheReplayedWalTail(bool next_is_full) {
  SCOPED_TRACE(next_is_full ? "next checkpoint full" : "next checkpoint delta");
  RecordCodec codec(kRecordSize);
  FaultFs fs;
  auto options = DurableOptions<System>(crypto::HashScheme::kSha1, &fs, "/db");
  // The first cadence checkpoint (epoch 5) is a delta either way; after it
  // the chain holds one link, so every 2nd makes the next one full.
  options.durability.full_snapshot_every = next_is_full ? 2 : 8;
  {
    System system(options);
    ASSERT_TRUE(system.Load(SeedDataset(codec, 12)).ok());
    for (RecordId id = 100; id <= 105; ++id) {
      ASSERT_TRUE(system.Insert(codec.MakeRecord(id, Key(300 + id))).ok());
    }
    ASSERT_TRUE(system.WaitForCheckpoints().ok());
  }
  fs.DropVolatile();  // crash 1: ids 104 and 105 live only in the WAL
  {
    auto recovered = System::Recover(options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    System& system = *recovered.value();
    ASSERT_EQ(system.epoch(), 7u);
    ASSERT_EQ(system.durability()->recovered().snapshot_epoch, 5u);
    for (RecordId id = 200; id <= 203; ++id) {
      ASSERT_TRUE(system.Insert(codec.MakeRecord(id, Key(300 + id))).ok());
    }
    ASSERT_TRUE(system.WaitForCheckpoints().ok());
    DurabilityStats stats = system.durability_stats();
    EXPECT_EQ(stats.checkpoints_full, next_is_full ? 1u : 0u);
    EXPECT_EQ(stats.checkpoints_delta, next_is_full ? 0u : 1u);
  }
  fs.DropVolatile();  // crash 2, after the epoch-11 checkpoint sealed the WAL
  auto recovered = System::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  System& system = *recovered.value();
  EXPECT_EQ(system.epoch(), 11u);
  VerifySweep(&system);
  std::vector<RecordId> ids;
  for (const Record& record : FullScan(&system)) ids.push_back(record.id);
  std::sort(ids.begin(), ids.end());
  std::vector<RecordId> expected;
  for (RecordId id = 1; id <= 12; ++id) expected.push_back(id);
  for (RecordId id = 100; id <= 105; ++id) expected.push_back(id);
  for (RecordId id = 200; id <= 203; ++id) expected.push_back(id);
  EXPECT_EQ(ids, expected);
  for (RecordId id : {RecordId(104), RecordId(105)}) {
    auto outcome = system.Query(dbms::QueryRequest::Point(Key(300 + id)));
    ASSERT_TRUE(outcome.ok()) << outcome.status().message();
    EXPECT_TRUE(outcome.value().verification.ok());
    ASSERT_EQ(outcome.value().results.size(), 1u) << "id " << id << " lost";
    EXPECT_EQ(outcome.value().results[0].id, id);
  }
}

TEST(Recovery, SecondCrashKeepsTheReplayedWalTail) {
  for (bool next_is_full : {false, true}) {
    RunSecondCrashKeepsTheReplayedWalTail<SaeSystem>(next_is_full);
    RunSecondCrashKeepsTheReplayedWalTail<TomSystem>(next_is_full);
  }
}

// Every cadence full snapshot is streamed out of the manager's checkpoint
// image, never captured from the live system. The file it writes must hold
// byte for byte the payload a capture of the live system at that epoch
// encodes — SAE's (key, id) order, TOM's leaf order and shape. The seeded
// schedule crosses deletes, a delete and reinsert of one id inside one
// checkpoint window, equal-key runs (and, for TOM, leaf and internal
// splits), a failed group fsync (its retraction cuts the pending log) and
// a failed checkpoint write followed by the forced full.
template <typename System>
void RunImageParity(uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  RecordCodec codec(kRecordSize);
  FaultFs fs;
  auto options = DurableOptions<System>(crypto::HashScheme::kSha1, &fs, "/db");
  if constexpr (std::is_same_v<System, TomSystem>) ShrinkFanouts(&options);
  System system(options);
  ASSERT_TRUE(system.Load(SeedDataset(codec, 30)).ok());
  std::map<RecordId, Key> present;
  for (const Record& record : SeedDataset(codec, 30)) {
    present[record.id] = record.key;
  }
  storage::SnapshotStore store(&fs, "/db");
  uint64_t fulls_seen = system.durability_stats().checkpoints_full;
  size_t checked = 0;
  bool reinserted = false, retracted = false, write_failed = false;
  size_t checked_after_failed_write = 0;

  auto check_new_full = [&] {
    DurabilityStats stats = system.durability_stats();
    if (stats.checkpoints_full == fulls_seen) return;
    fulls_seen = stats.checkpoints_full;
    auto latest = store.LoadLatest();
    ASSERT_TRUE(latest.ok()) << latest.status().message();
    ASSERT_EQ(latest.value().epoch, system.epoch());
    auto captured = system.CaptureState();
    ASSERT_TRUE(captured.ok());
    EXPECT_EQ(latest.value().payload,
              core::EncodeSnapshotState(captured.value()))
        << "full snapshot at epoch " << system.epoch();
    ++checked;
    if (write_failed) ++checked_after_failed_write;
  };
  auto insert = [&](RecordId id, Key key) {
    ASSERT_TRUE(system.Insert(codec.MakeRecord(id, key)).ok());
    present[id] = key;
  };
  auto remove = [&](RecordId id) {
    ASSERT_TRUE(system.Delete(id).ok());
    present.erase(id);
  };

  const Key hot_keys[] = {100, 105, 110};  // 105 is a seed key too
  uint64_t rand_state = seed;
  RecordId next_id = 1000;
  for (int step = 0; step < 120; ++step) {
    const uint64_t window = system.durability_stats().updates_since_checkpoint;
    bool checkpoint_fails = false;
    if (!reinserted && step >= 17 && window + 2 <= kSnapshotInterval - 1) {
      // Both halves land in one window: the delete's remove and the
      // reinsert's upsert of the same id net to one upsert, which moves
      // the record to the end of its key's run.
      auto it = present.begin();
      std::advance(it, NextRand(&rand_state) % present.size());
      const RecordId id = it->first;
      remove(id);
      insert(id, hot_keys[NextRand(&rand_state) % 3]);
      reinserted = true;
    } else if (!retracted && step >= 40) {
      // Counting from arming, barrier 1 is this insert's group fsync: it
      // fails, and the durable abort marker retracts the staged record.
      fs.FailAtSyncPoint(1);
      EXPECT_EQ(system.Insert(codec.MakeRecord(next_id++, 105)).code(),
                StatusCode::kIoError);
      retracted = true;
    } else if (!write_failed && step >= 70 &&
               window == kSnapshotInterval - 1) {
      // This insert completes the window: barrier 1 is its fsync, barrier
      // 2 the checkpoint's temp-file sync, which fails transiently. The
      // next checkpoint is forced full.
      fs.FailAtSyncPoint(2);
      insert(next_id++, hot_keys[NextRand(&rand_state) % 3]);
      checkpoint_fails = true;
      write_failed = true;
    } else if (NextRand(&rand_state) % 10 < 3 && present.size() > 10) {
      auto it = present.begin();
      std::advance(it, NextRand(&rand_state) % present.size());
      remove(it->first);
    } else {
      const uint64_t r = NextRand(&rand_state) % 10;
      insert(next_id++, r < 7 ? hot_keys[r % 3] : Key(NextRand(&rand_state) % 400));
    }
    EXPECT_EQ(system.WaitForCheckpoints().ok(), !checkpoint_fails);
    check_new_full();
  }
  EXPECT_TRUE(reinserted && retracted && write_failed);
  EXPECT_GE(checked, 6u);
  EXPECT_GE(checked_after_failed_write, 1u);
  if constexpr (std::is_same_v<System, TomSystem>) {
    btree::TreeShape shape;
    ASSERT_TRUE(system.sp().table().index().Walk(&shape, nullptr).ok());
    EXPECT_GE(shape.size(), 3u);  // leaves and internal nodes split
  }

  // The chain the image wrote, deltas included, recovers the live state.
  std::vector<Record> live = FullScan(&system);
  EXPECT_EQ(live.size(), present.size());
  fs.DropVolatile();
  auto recovered = System::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered.value()->epoch(), system.epoch());
  std::vector<Record> recovered_scan = FullScan(recovered.value().get());
  if constexpr (std::is_same_v<System, SaeSystem>) {
    // A live SAE table keeps a reinserted record at the end of its key's
    // run; a recovered one is loaded in (key, id) order. Both verify.
    for (std::vector<Record>* scan : {&live, &recovered_scan}) {
      std::sort(scan->begin(), scan->end(),
                [](const Record& a, const Record& b) {
                  return a.key != b.key ? a.key < b.key : a.id < b.id;
                });
    }
  } else {
    EXPECT_EQ(recovered.value()->owner().signature(),
              system.owner().signature());
  }
  EXPECT_EQ(recovered_scan, live);
  VerifySweep(recovered.value().get());
}

TEST(Recovery, SaeFullSnapshotsFromTheImageMatchALiveCapture) {
  for (uint64_t seed : {1, 2}) RunImageParity<SaeSystem>(seed);
}

TEST(Recovery, TomFullSnapshotsFromTheImageMatchALiveCapture) {
  for (uint64_t seed : {1, 2}) RunImageParity<TomSystem>(seed);
}

// --- one-pass Load: input order does not reach the disk ----------------------

// Every file under `dir`, by name, with its current bytes.
std::map<std::string, std::vector<uint8_t>> DirBytes(FaultFs* fs,
                                                     const std::string& dir) {
  std::map<std::string, std::vector<uint8_t>> out;
  auto names = fs->List(dir);
  EXPECT_TRUE(names.ok());
  if (!names.ok()) return out;
  for (const std::string& name : names.value()) {
    auto file = fs->Open(dir + "/" + name, /*create=*/false);
    EXPECT_TRUE(file.ok()) << name;
    if (!file.ok()) continue;
    std::vector<uint8_t>& bytes = out[name];
    bytes.resize(file.value()->Size().ValueOrDie());
    auto read = file.value()->ReadAt(0, bytes.data(), bytes.size());
    EXPECT_TRUE(read.ok() && read.value() == bytes.size()) << name;
  }
  return out;
}

// A durable Load from a shuffled copy of the dataset writes the same
// files (the baseline snapshot, and a WAL segment if one is kept), byte
// for byte, as a Load from the
// sorted dataset, and the shuffled system's directory recovers.
template <typename System>
void ExpectShuffledLoadWritesTheSameFiles() {
  RecordCodec codec(kRecordSize);
  std::vector<Record> sorted;
  for (RecordId id = 1; id <= 200; ++id) {
    sorted.push_back(codec.MakeRecord(id, Key((id * 7) % 13 * 10)));
  }
  std::sort(sorted.begin(), sorted.end(), storage::ByKeyId);
  std::vector<Record> shuffled = sorted;
  uint64_t rand_state = 11;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[NextRand(&rand_state) % i]);
  }
  ASSERT_NE(shuffled, sorted);

  FaultFs sorted_fs, shuffled_fs;
  auto sorted_options =
      DurableOptions<System>(crypto::HashScheme::kSha1, &sorted_fs, "/db");
  auto shuffled_options =
      DurableOptions<System>(crypto::HashScheme::kSha1, &shuffled_fs, "/db");
  {
    System from_sorted(sorted_options), from_shuffled(shuffled_options);
    ASSERT_TRUE(from_sorted.Load(sorted).ok());
    ASSERT_TRUE(from_shuffled.Load(shuffled).ok());
  }
  auto files = DirBytes(&shuffled_fs, "/db");
  size_t written = 0;
  for (const auto& [name, bytes] : files) written += bytes.size();
  EXPECT_GT(written, sorted.size() * kRecordSize);  // the baseline snapshot
  EXPECT_EQ(files, DirBytes(&sorted_fs, "/db"));

  shuffled_fs.DropVolatile();
  auto recovered = System::Recover(shuffled_options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered.value()->epoch(), 1u);
  std::vector<Record> scan = FullScan(recovered.value().get());
  std::sort(scan.begin(), scan.end(), storage::ByKeyId);
  EXPECT_EQ(scan, sorted);
  VerifySweep(recovered.value().get());
}

TEST(Recovery, SaeShuffledLoadWritesTheSameBaselineFiles) {
  ExpectShuffledLoadWritesTheSameFiles<SaeSystem>();
}

TEST(Recovery, TomShuffledLoadWritesTheSameBaselineFiles) {
  ExpectShuffledLoadWritesTheSameFiles<TomSystem>();
}

// --- records that do not fit the record size ----------------------------------

// A record one byte too large for the codec, and one that just fits.
Record OversizedRecord(const RecordCodec& codec) {
  Record record = codec.MakeRecord(900, 95);
  record.payload = storage::Payload(codec.payload_size() + 1);
  return record;
}

// Insert and Load refuse a record whose payload exceeds the record size
// (which the record codec cannot serialize) with InvalidArgument before
// anything changes or is staged: the epoch, the durable files and what
// Recover rebuilds are those of a history without it. A payload of exactly
// the maximum size is accepted. `durable` runs the system on a FaultFs,
// else in memory.
template <typename System>
void ExpectOversizedRecordsRefused(bool durable) {
  RecordCodec codec(kRecordSize);
  FaultFs fs;
  typename System::Options options;
  if (durable) {
    options = DurableOptions<System>(crypto::HashScheme::kSha1, &fs, "/db");
  }
  options.record_size = kRecordSize;
  const Record too_big = OversizedRecord(codec);
  {
    System refused(options);
    std::vector<Record> data = SeedDataset(codec, 20);
    data.push_back(too_big);
    EXPECT_EQ(refused.Load(data).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(refused.epoch(), 0u);
    EXPECT_TRUE(DirBytes(&fs, "/db").empty());
  }
  System system(options);
  ASSERT_TRUE(system.Load(SeedDataset(codec, 20)).ok());
  const Record largest = codec.MakeRecord(800, 85);
  ASSERT_EQ(largest.payload.size(), kRecordSize - storage::kRecordHeaderSize);
  ASSERT_TRUE(system.Insert(largest).ok());
  const uint64_t epoch = system.epoch();
  const auto files = DirBytes(&fs, "/db");

  Status st = system.Insert(too_big);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_EQ(system.epoch(), epoch);
  EXPECT_EQ(system.update_stats().failed, 1u);
  EXPECT_EQ(DirBytes(&fs, "/db"), files);
  std::vector<Record> live = FullScan(&system);
  EXPECT_EQ(live.size(), 21u);
  EXPECT_NE(std::find(live.begin(), live.end(), largest), live.end());
  VerifySweep(&system);
  if (!durable) return;

  ASSERT_TRUE(system.WaitForCheckpoints().ok());
  fs.DropVolatile();
  auto recovered = System::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered.value()->epoch(), epoch);
  EXPECT_EQ(FullScan(recovered.value().get()), live);
  VerifySweep(recovered.value().get());
}

TEST(OversizedRecord, SaeInMemoryIsRefused) {
  ExpectOversizedRecordsRefused<SaeSystem>(/*durable=*/false);
}
TEST(OversizedRecord, TomInMemoryIsRefused) {
  ExpectOversizedRecordsRefused<TomSystem>(/*durable=*/false);
}
TEST(OversizedRecord, SaeDurableIsRefusedAndRecovers) {
  ExpectOversizedRecordsRefused<SaeSystem>(/*durable=*/true);
}
TEST(OversizedRecord, TomDurableIsRefusedAndRecovers) {
  ExpectOversizedRecordsRefused<TomSystem>(/*durable=*/true);
}

// A durable directory that holds such a record anyway — in the WAL tail or
// in the snapshot — makes Recover return kCorruption instead of aborting.
template <typename System>
void ExpectOversizedDurableRecordIsCorruption() {
  RecordCodec codec(kRecordSize);
  {
    FaultFs fs;
    auto options =
        DurableOptions<System>(crypto::HashScheme::kSha1, &fs, "/db");
    {
      System system(options);
      ASSERT_TRUE(system.Load(SeedDataset(codec, 20)).ok());
      WalUpdate update = WalUpdate::Insert(OversizedRecord(codec));
      update.epoch = system.epoch() + 1;
      auto seq = system.durability()->StageUpdate(update);
      ASSERT_TRUE(seq.ok());
      ASSERT_TRUE(system.durability()->CommitStaged(seq.value()).ok());
    }
    fs.DropVolatile();
    auto recovered = System::Recover(options);
    EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption)
        << recovered.status().ToString();
    EXPECT_EQ(recovered.status().message(),
              "wal record exceeds the record size");
  }
  FaultFs fs;
  auto options = DurableOptions<System>(crypto::HashScheme::kSha1, &fs, "/db");
  typename System::Options in_memory;
  in_memory.record_size = kRecordSize;
  System source(in_memory);
  ASSERT_TRUE(source.Load(SeedDataset(codec, 20)).ok());
  auto state = source.CaptureState();
  ASSERT_TRUE(state.ok());
  state.value().records.back().payload =
      storage::Payload(codec.payload_size() + 1);
  {
    auto mgr = DurabilityManager::Open(options.durability);
    ASSERT_TRUE(mgr.ok());
    ASSERT_TRUE(
        mgr.value()->CheckpointBaseline(1, std::move(state).ValueOrDie()).ok());
  }
  fs.DropVolatile();
  auto recovered = System::Recover(options);
  EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption)
      << recovered.status().ToString();
  EXPECT_EQ(recovered.status().message(),
            "snapshot record exceeds the record size");
}

TEST(OversizedRecord, SaeDurableRecordIsCorruption) {
  ExpectOversizedDurableRecordIsCorruption<SaeSystem>();
}
TEST(OversizedRecord, TomDurableRecordIsCorruption) {
  ExpectOversizedDurableRecordIsCorruption<TomSystem>();
}

// --- concurrent durable writers (the TSan CI target) -------------------------

TEST(DurableConcurrency, GroupCommitManyWritersRecoverExactly) {
  RecordCodec codec(kRecordSize);
  FaultFs fs;
  // A nonzero simulated fsync cost makes natural commit groups form: while
  // one leader sleeps in its barrier, other writers stage behind it.
  fs.SetSyncLatency(50);
  auto options =
      DurableOptions<SaeSystem>(crypto::HashScheme::kSha1, &fs, "/db");
  options.durability.snapshot_interval = 16;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 32;
  std::vector<Record> live;
  {
    SaeSystem system(options);
    ASSERT_TRUE(system.Load(SeedDataset(codec, 10)).ok());
    std::atomic<int> failures{0};
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          RecordId id = RecordId(1000 + t * kPerThread + i);
          if (!system.Insert(codec.MakeRecord(id, Key(2000 + id))).ok()) {
            failures.fetch_add(1);
          }
        }
      });
    }
    // Concurrent verifying readers exercise the shared-lock query path
    // against the group-commit writer pipeline.
    std::thread reader([&] {
      for (int i = 0; i < 40; ++i) {
        auto outcome = system.ExecuteQuery(kMinKey, kMaxKey);
        if (outcome.ok()) {
          EXPECT_TRUE(outcome.value().verification.ok());
        }
      }
    });
    for (auto& w : writers) w.join();
    reader.join();
    ASSERT_EQ(failures.load(), 0);
    EXPECT_EQ(system.epoch(), 1u + kThreads * kPerThread);
    ASSERT_TRUE(system.WaitForCheckpoints().ok());

    DurabilityStats stats = system.durability_stats();
    EXPECT_EQ(stats.wal_records, uint64_t(kThreads * kPerThread));
    EXPECT_LE(stats.wal_syncs, stats.wal_records);
    EXPECT_GE(stats.avg_group_records, 1.0);
    live = FullScan(&system);
    ASSERT_EQ(live.size(), 10u + kThreads * kPerThread);
  }
  // Every acknowledged update was durable before it applied: power loss
  // right now loses nothing.
  fs.DropVolatile();
  auto recovered = SaeSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered.value()->epoch(), 1u + kThreads * kPerThread);
  EXPECT_EQ(FullScan(recovered.value().get()), live);
  VerifySweep(recovered.value().get());
}

TEST(DurableConcurrency, TomGroupCommitWritersRecoverExactly) {
  RecordCodec codec(kRecordSize);
  FaultFs fs;
  fs.SetSyncLatency(50);
  auto options =
      DurableOptions<TomSystem>(crypto::HashScheme::kSha1, &fs, "/db");
  constexpr int kThreads = 2;
  constexpr int kPerThread = 6;
  std::vector<Record> live;
  {
    TomSystem system(options);
    ASSERT_TRUE(system.Load(SeedDataset(codec, 8)).ok());
    std::atomic<int> failures{0};
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          RecordId id = RecordId(1000 + t * kPerThread + i);
          if (!system.Insert(codec.MakeRecord(id, Key(2000 + id))).ok()) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& w : writers) w.join();
    ASSERT_EQ(failures.load(), 0);
    EXPECT_EQ(system.epoch(), 1u + kThreads * kPerThread);
    ASSERT_TRUE(system.WaitForCheckpoints().ok());
    live = FullScan(&system);
  }
  fs.DropVolatile();
  auto recovered = TomSystem::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered.value()->epoch(), 1u + kThreads * kPerThread);
  EXPECT_EQ(FullScan(recovered.value().get()), live);
}

TEST(DurableConcurrency, ShardedDurableWritersAcrossShards) {
  RecordCodec codec(kRecordSize);
  FaultFs fs;
  fs.SetSyncLatency(20);
  core::ShardedSaeSystem::Options options;
  options =
      DurableOptions<SaeSystem>(crypto::HashScheme::kSha1, &fs, "/db");
  options.durability.snapshot_interval = 8;
  core::ShardRouter router({100, 200});  // 3 shards
  constexpr int kThreads = 3;
  constexpr int kPerThread = 16;
  std::vector<Record> live;
  {
    core::ShardedSaeSystem system(router, options);
    ASSERT_TRUE(system.Load(SeedDataset(codec, 9)).ok());
    std::atomic<int> failures{0};
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      // Each thread writes keys landing on its own shard, so per-shard
      // writers run genuinely in parallel (no shared writer lock).
      writers.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          RecordId id = RecordId(1000 + t * kPerThread + i);
          Key key = Key(t * 100 + 10 + i);
          if (!system.Insert(codec.MakeRecord(id, key)).ok()) {
            failures.fetch_add(1);
          }
        }
      });
    }
    std::thread reader([&] {
      for (int i = 0; i < 30; ++i) {
        auto outcome = system.ExecuteQuery(kMinKey, kMaxKey);
        if (outcome.ok()) {
          EXPECT_TRUE(outcome.value().verification.ok());
        }
      }
    });
    for (auto& w : writers) w.join();
    reader.join();
    ASSERT_EQ(failures.load(), 0);
    ASSERT_TRUE(system.WaitForCheckpoints().ok());
    DurabilityStats stats = system.durability_stats();
    EXPECT_EQ(stats.wal_records, uint64_t(kThreads * kPerThread));
    live = FullScan(&system);
    ASSERT_EQ(live.size(), 9u + kThreads * kPerThread);
  }
  fs.DropVolatile();
  auto recovered = core::ShardedSaeSystem::Recover(router, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(FullScan(recovered.value().get()), live);
}

}  // namespace
}  // namespace sae
