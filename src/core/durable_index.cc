#include "core/durable_index.h"

#include <algorithm>
#include <utility>

#include "wal/wal_format.h"

namespace irhint {

StatusOr<std::unique_ptr<DurableIndex>> DurableIndex::Open(
    const std::string& wal_dir, const DurableIndexOptions& options,
    WalEnv* env) {
  if (env == nullptr) env = DefaultWalEnv();
  if (options.gc_keep_snapshots < 1) {
    return Status::InvalidArgument("gc_keep_snapshots must be >= 1");
  }
  IRHINT_RETURN_NOT_OK(env->CreateDirIfMissing(wal_dir));

  // Sweep temp files a crashed snapshot write may have left behind.
  auto names = env->ListDir(wal_dir);
  IRHINT_RETURN_NOT_OK(names.status());
  for (const std::string& name : *names) {
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      IRHINT_RETURN_NOT_OK(env->DeleteFile(WalPathJoin(wal_dir, name)));
    }
  }

  RecoveryOptions recovery_options;
  recovery_options.kind = options.kind;
  recovery_options.config = options.config;
  recovery_options.snapshot_read = options.snapshot_read;
  auto recovered = RecoveryManager(env, wal_dir).Recover(recovery_options);
  IRHINT_RETURN_NOT_OK(recovered.status());

  uint64_t writer_next_lsn = recovered->last_lsn + 1;
  if (recovered->live_segment_seq != 0 && !recovered->live_segment_sealed) {
    // The previous process closed (or crashed) without rotating its live
    // segment. Seal it before the writer creates the next segment — the
    // rotate chain must be intact by the time the new segment exists, or a
    // crash in between would leave a rotate-less sealed segment that deep
    // fsck rightly flags. The rotate record consumes one LSN, keeping the
    // log dense across the reopen boundary.
    IRHINT_RETURN_NOT_OK(SealWalSegment(env, wal_dir,
                                        recovered->live_segment_seq,
                                        writer_next_lsn,
                                        recovered->next_segment_seq));
    ++writer_next_lsn;
  }

  WalWriterOptions writer_options;
  writer_options.durability = options.durability;
  writer_options.batch_bytes = options.batch_bytes;
  writer_options.batch_interval_seconds = options.batch_interval_seconds;
  auto writer = WalWriter::Open(env, wal_dir, recovered->next_segment_seq,
                                writer_next_lsn, writer_options);
  IRHINT_RETURN_NOT_OK(writer.status());

  std::unique_ptr<DurableIndex> index(new DurableIndex());
  index->env_ = env;
  index->dir_ = wal_dir;
  index->options_ = options;
  {
    // Uncontended (the index is not published yet), but the guarded
    // members are only ever touched under the state lock.
    WriterLock lock(&index->mutex_);
    index->inner_ = std::move(recovered->index);
    index->writer_ = std::move(writer).value();
    index->name_ = "durable:" + std::string(index->inner_->Name());
    index->recovery_info_ = std::move(recovered).value();
    index->recovery_info_.index = nullptr;  // moved into inner_
    index->next_object_id_ = index->recovery_info_.next_object_id;
  }
  if (options.checkpoint_bytes > 0 && options.background_checkpoint) {
    index->ckpt_thread_ =
        std::thread(&DurableIndex::CheckpointThreadMain, index.get());
  }
  return index;
}

DurableIndex::~DurableIndex() {
  if (ckpt_thread_.joinable()) {
    {
      MutexLock lock(&ckpt_mutex_);
      ckpt_stop_ = true;
    }
    ckpt_cv_.NotifyAll();
    ckpt_thread_.join();
  }
  WriterLock lock(&mutex_);
  if (writer_ != nullptr) (void)writer_->Sync();  // best effort on close
}

Status DurableIndex::Build(const Corpus& corpus) {
  {
    ReaderLock lock(&mutex_);
    if (writer_->next_lsn() != 1) {
      return Status::InvalidArgument(
          "durable index already has logged state; Build is only valid on a "
          "fresh WAL directory");
    }
  }
  for (const Object& object : corpus.objects()) {
    IRHINT_RETURN_NOT_OK(Insert(object));
  }
  return Flush();
}

void DurableIndex::Query(const irhint::Query& query,
                         std::vector<ObjectId>* out) const {
  ReaderLock lock(&mutex_);
  inner_->Query(query, out);
}

Status DurableIndex::TopKQuery(const irhint::Query& query, uint32_t k,
                               std::vector<ScoredHit>* out) const {
  ReaderLock lock(&mutex_);
  return inner_->TopKQuery(query, k, out);
}

Status DurableIndex::Insert(const Object& object) {
  bool want_checkpoint = false;
  {
    WriterLock lock(&mutex_);
    // Enforce before logging what the inner indexes only assume: strictly
    // increasing ids (Section 5.5), a well-formed interval and element ids
    // below kElementIdLimit (the log decoder flags an inverted interval or
    // an out-of-range element as corruption, truncating what follows).
    if (object.id < next_object_id_) {
      return Status::AlreadyExists(
          "object id " + std::to_string(object.id) +
          " is below the insert watermark " +
          std::to_string(next_object_id_) + " (ids must strictly increase)");
    }
    IRHINT_RETURN_NOT_OK(CheckObject(object));
    auto lsn = writer_->AppendInsert(object);
    IRHINT_RETURN_NOT_OK(lsn.status());
    // The id is burned from here on, even if the apply fails — replay
    // advances the watermark over every logged insert.
    next_object_id_ = uint64_t{object.id} + 1;
    // A failed apply (e.g. out-of-domain endpoint) leaves its record in
    // the log; replay skips it because it fails identically there (the
    // inner index is deterministic).
    IRHINT_RETURN_NOT_OK(inner_->Insert(object));
    want_checkpoint = ShouldCheckpointLocked();
  }
  if (!want_checkpoint) return Status::OK();
  if (options_.background_checkpoint) {
    {
      MutexLock lock(&ckpt_mutex_);
      ckpt_requested_ = true;
    }
    ckpt_cv_.NotifyAll();
    return Status::OK();
  }
  return RunCheckpoint();
}

Status DurableIndex::Erase(const Object& object) {
  bool want_checkpoint = false;
  {
    WriterLock lock(&mutex_);
    if (object.id >= next_object_id_) {
      return Status::NotFound("object id " + std::to_string(object.id) +
                              " was never inserted");
    }
    IRHINT_RETURN_NOT_OK(CheckObject(object));
    auto lsn = writer_->AppendErase(object);
    IRHINT_RETURN_NOT_OK(lsn.status());
    IRHINT_RETURN_NOT_OK(inner_->Erase(object));
    want_checkpoint = ShouldCheckpointLocked();
  }
  if (!want_checkpoint) return Status::OK();
  if (options_.background_checkpoint) {
    {
      MutexLock lock(&ckpt_mutex_);
      ckpt_requested_ = true;
    }
    ckpt_cv_.NotifyAll();
    return Status::OK();
  }
  return RunCheckpoint();
}

size_t DurableIndex::MemoryUsageBytes() const {
  ReaderLock lock(&mutex_);
  return inner_->MemoryUsageBytes();
}

std::optional<QueryCounters> DurableIndex::Stats() const {
  ReaderLock lock(&mutex_);
  return inner_->Stats();
}

void DurableIndex::ResetStats() {
  ReaderLock lock(&mutex_);
  inner_->ResetStats();
}

void DurableIndex::EnableStats(bool enabled) {
  ReaderLock lock(&mutex_);
  inner_->EnableStats(enabled);
}

IndexKind DurableIndex::Kind() const {
  // The inner index never changes after Open, but the pointer is guarded;
  // the shared lock costs one uncontended atomic in exchange for keeping
  // the access provably safe.
  ReaderLock lock(&mutex_);
  return inner_->Kind();
}

Status DurableIndex::SaveTo(SnapshotWriter*) const {
  return Status::NotSupported(
      "durable index persists via its WAL directory; use TriggerCheckpoint");
}

Status DurableIndex::LoadFrom(SnapshotReader*) {
  return Status::NotSupported(
      "durable index recovers via DurableIndex::Open, not LoadFrom");
}

Status DurableIndex::Flush() {
  WriterLock lock(&mutex_);
  return writer_->Sync();
}

Status DurableIndex::TriggerCheckpoint() { return RunCheckpoint(); }

Status DurableIndex::WaitForCheckpoint() {
  MutexLock lock(&ckpt_mutex_);
  while (ckpt_requested_ || ckpt_running_) ckpt_cv_.Wait(&ckpt_mutex_);
  return last_checkpoint_status_;
}

Status DurableIndex::IntegrityCheck(CheckLevel level) const {
  // One shared lock for the whole audit: the accessors each lock, so the
  // checks below read the members directly to stay re-entrancy free and to
  // see one consistent state.
  ReaderLock lock(&mutex_);
  if (inner_ == nullptr || writer_ == nullptr) {
    return Status::Corruption("durable index missing inner index or log "
                              "writer");
  }
  // Id watermark: may only grow past what recovery established, otherwise
  // a re-ingest after the next recovery would hand out duplicate ids.
  if (next_object_id_ < recovery_info_.next_object_id) {
    return Status::Corruption("durable index id watermark regressed below "
                              "recovery point");
  }
  // LSN bookkeeping: assignments are dense and monotone from the recovery
  // point, and the synced watermark can never pass the assignment cursor.
  if (writer_->next_lsn() <= recovery_info_.last_lsn) {
    return Status::Corruption("durable index LSN cursor regressed below "
                              "recovery point");
  }
  if (writer_->last_synced_lsn() >= writer_->next_lsn()) {
    return Status::Corruption("durable index synced-LSN watermark ahead of "
                              "assignment cursor");
  }
  if (writer_->segment_seq() < recovery_info_.next_segment_seq) {
    return Status::Corruption("durable index segment sequence regressed");
  }
  return inner_->IntegrityCheck(level);
}

uint64_t DurableIndex::next_lsn() const {
  ReaderLock lock(&mutex_);
  return writer_->next_lsn();
}

uint64_t DurableIndex::last_synced_lsn() const {
  ReaderLock lock(&mutex_);
  return writer_->last_synced_lsn();
}

uint64_t DurableIndex::wal_segment_seq() const {
  ReaderLock lock(&mutex_);
  return writer_->segment_seq();
}

uint64_t DurableIndex::wal_segment_bytes() const {
  ReaderLock lock(&mutex_);
  return writer_->segment_bytes();
}

uint64_t DurableIndex::next_object_id() const {
  ReaderLock lock(&mutex_);
  return next_object_id_;
}

bool DurableIndex::ShouldCheckpointLocked() const {
  return options_.checkpoint_bytes > 0 &&
         writer_->segment_bytes() >= options_.checkpoint_bytes;
}

Status DurableIndex::RunCheckpoint() {
  MutexLock serial(&ckpt_serial_mutex_);
  uint64_t live_seq = 0;
  uint64_t ckpt_lsn = 0;
  {
    WriterLock lock(&mutex_);
    IRHINT_RETURN_NOT_OK(writer_->status());
    // Seal the live segment; the rotate record's LSN is the exact upper
    // bound of what the snapshot will contain, because we still hold the
    // update lock.
    IRHINT_RETURN_NOT_OK(writer_->Rotate());
    ckpt_lsn = writer_->next_lsn() - 1;
    const std::string name = CheckpointFileName(ckpt_lsn);
    IRHINT_RETURN_NOT_OK(env_->WriteIndexSnapshot(
        *inner_, WalPathJoin(dir_, name), ckpt_lsn, next_object_id_));
    auto marker = writer_->AppendCheckpoint(ckpt_lsn, name);
    IRHINT_RETURN_NOT_OK(marker.status());
    live_seq = writer_->segment_seq();
  }
  // Deleting sealed segments and stale snapshots needs no lock; recovery
  // only ever runs on a closed directory.
  return GarbageCollect(live_seq, ckpt_lsn);
}

Status DurableIndex::GarbageCollect(uint64_t live_seq,
                                    uint64_t keep_ckpt_lsn) {
  // Every segment before the live one only holds records <= keep_ckpt_lsn,
  // all covered by the snapshot just written.
  auto segments = ListWalSegments(env_, dir_);
  IRHINT_RETURN_NOT_OK(segments.status());
  for (const uint64_t seq : *segments) {
    if (seq >= live_seq) continue;
    IRHINT_RETURN_NOT_OK(
        env_->DeleteFile(WalPathJoin(dir_, WalSegmentFileName(seq))));
  }
  auto checkpoints = ListCheckpointLsns(env_, dir_);  // newest first
  IRHINT_RETURN_NOT_OK(checkpoints.status());
  uint32_t kept = 0;
  for (const uint64_t lsn : *checkpoints) {
    if (lsn > keep_ckpt_lsn) continue;  // never GC a newer one
    if (++kept <= options_.gc_keep_snapshots) continue;
    IRHINT_RETURN_NOT_OK(
        env_->DeleteFile(WalPathJoin(dir_, CheckpointFileName(lsn))));
  }
  return env_->SyncDir(dir_);
}

void DurableIndex::CheckpointThreadMain() {
  for (;;) {
    {
      MutexLock lock(&ckpt_mutex_);
      while (!ckpt_requested_ && !ckpt_stop_) ckpt_cv_.Wait(&ckpt_mutex_);
      if (ckpt_stop_) return;
      ckpt_requested_ = false;
      ckpt_running_ = true;
    }
    const Status status = RunCheckpoint();
    {
      MutexLock lock(&ckpt_mutex_);
      ckpt_running_ = false;
      last_checkpoint_status_ = status;
    }
    ckpt_cv_.NotifyAll();
  }
}

}  // namespace irhint
