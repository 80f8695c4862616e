// Crash-safe campaign checkpointing (docs/JOURNAL.md).
//
// A campaign journal is a durable write-ahead log of finished seeds: one
// CRC32-checksummed, length-prefixed JSON record per completed SeedResult,
// preceded by a header record that pins the journal to the exact campaign
// configuration that produced it. If the orchestrating esv-verify process is
// killed mid-campaign — SIGKILL, OOM, power loss — a re-run with `--resume`
// replays the journal, skips every seed whose record survived, re-runs the
// rest, and produces a final report byte-identical to an uninterrupted run.
//
// Record layout (little-endian, docs/JOURNAL.md):
//
//   +----------------+----------------+---------------------+------+
//   | u32 length     | u32 CRC32      | payload (JSON text) | '\n' |
//   +----------------+----------------+---------------------+------+
//
// The length + CRC header is the common/crc.hpp record header that wire
// frames use too; the CRC covers the payload bytes only. The trailing newline
// keeps the file greppable and doubles as a cheap framing check. Two payload types exist:
//
//   {"type":"header","version":2,"config_digest":"<16 hex>",
//    "seed_lo":N,"seed_hi":N}          — first record of every journal
//   {"type":"seed","result":{...}}     — one per finished seed, the lossless
//                                        campaign/codec.hpp rendering of the
//                                        SeedResult
//
// Recovery is prefix-based: the scan keeps every record up to the first
// truncated or corrupt one and drops everything from there on. A torn tail
// (the orchestrator died mid-write) therefore costs exactly the seeds whose
// records were lost — they simply re-run. A journal whose header digest does
// not match the resuming campaign's configuration is rejected by the caller
// (exit 2 in esv-verify): resuming under a different config would splice
// results from two different experiments into one report.
#pragma once

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"

namespace esv::journal {

/// Raised on journal I/O failures (open, write, fsync, truncate). Corruption
/// found by the recovery scan is NOT an error — it is recovered from.
class JournalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Stable 16-hex-digit FNV-1a digest over every configuration field that can
/// change a deterministic result byte: program, spec, approach, mode, step
/// budget, seed range, witness depth, fault plan + log limit, the metrics
/// and trace-capture flags, the watchdog/retry knobs, and the per-seed
/// memory ceiling. Deployment-shape fields (jobs, workers, worker_binary,
/// trace_dir path, sync policy) are excluded — they never change results,
/// so a journal written under --jobs=8 resumes cleanly under --workers=2.
std::string config_digest(const campaign::CampaignConfig& config);

/// How often the writer fsyncs (docs/JOURNAL.md discusses the trade-offs):
///   kRecord  fsync after every record — a crash loses at most the record
///            being written; slowest
///   kBatch   fsync every kBatchSyncInterval records and on close — bounded
///            loss, near-zero overhead (the default)
///   kNone    never fsync — the OS page cache decides; a power loss can
///            lose everything since the last writeback, a plain process
///            kill loses nothing
enum class SyncPolicy { kRecord, kBatch, kNone };

constexpr unsigned kBatchSyncInterval = 32;

// v2: the FNV-1a offset basis behind config_digest was corrected when the
// three digest copies were unified into common/digest.hpp (the old decimal
// constant was one digit short). Every digest changed, so v1 journals can
// never match a v2 campaign — the version bump turns that into an explicit
// "written by an older version" rejection instead of a baffling digest
// mismatch. Recovery reports the stale version via
// RecoveredJournal::header_version.
constexpr std::uint64_t kJournalVersion = 2;

/// The framing layer beneath JournalWriter, reusable by any subsystem that
/// needs a crash-safe, CRC-framed, append-only record file (the esv-serve
/// job journal rides on it). Each append writes one length+CRC+payload+'\n'
/// record with a single write(2), so records never interleave and a crash
/// tears at most the record in flight. Thread-safe. Probes the
/// journal.write / journal.fsync chaos points like the campaign journal.
class RecordLog {
 public:
  /// Opens `path`, truncates it to `keep_bytes` (0 starts a fresh log —
  /// pass the valid prefix length from scan_records() to resume), and
  /// appends after it. Throws JournalError on open/truncate failure.
  RecordLog(const std::string& path, SyncPolicy sync,
            std::uint64_t keep_bytes = 0);
  ~RecordLog();
  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// Appends one record. Thread-safe. Throws JournalError when the write or
  /// a policy-mandated fsync fails.
  void append(const std::string& payload);

  /// Rotation (docs/JOURNAL.md): truncates the live segment to zero and
  /// writes `first_payload` as its fresh first record, fsyncing it (policy
  /// permitting). Used by snapshot-then-swap compaction AFTER the snapshot
  /// segment is durably in place — a crash between the truncate and the
  /// first record leaves an empty (headerless) tail, which recovery treats
  /// as "nothing in the tail" and serves from the snapshot alone.
  /// Thread-safe. Probes the journal.truncate chaos point (crash). Throws
  /// JournalError when the truncate, write, or fsync fails; the tail is
  /// then in an indeterminate state and the caller must stop appending.
  void restart(const std::string& first_payload);

  /// Final flush + fsync (policy permitting) + close. Idempotent; also run
  /// by the destructor, which swallows errors.
  void close();

  const std::string& path() const { return path_; }
  std::uint64_t records_written() const { return records_written_; }
  /// Current segment length in bytes (keep_bytes + every record appended
  /// since, reset by restart()). Thread-safe. Best-effort under torn
  /// writes: a record that failed midway is not counted even though some
  /// of its bytes may have landed — callers use this to *trigger*
  /// compaction, never to address records.
  std::uint64_t bytes() const;

 private:
  void write_record(const std::string& payload);
  void sync_now();

  mutable std::mutex mutex_;
  int fd_ = -1;
  std::string path_;
  SyncPolicy sync_ = SyncPolicy::kBatch;
  unsigned unsynced_records_ = 0;
  std::uint64_t records_written_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Raw framing-level scan of a record log: every record whose length, CRC
/// and trailing newline check out, up to the first damaged one.
struct ScannedRecords {
  struct Record {
    std::string payload;
    /// File offset one past this record's trailing newline — the truncation
    /// point that keeps the log valid through this record.
    std::uint64_t end_offset = 0;
  };
  std::vector<Record> records;
  /// Byte length of the valid record prefix (end_offset of the last record).
  std::uint64_t valid_bytes = 0;
  /// Total file size, so callers that reject a suffix of records on
  /// semantic grounds can still tell framing damage from a clean tail.
  std::uint64_t file_size = 0;
  /// True when the scan stopped at a truncated or corrupt record.
  bool tail_dropped = false;
};

/// Scans `path` at the framing level. Tolerant by design: a missing or
/// empty file, a truncated tail record, a CRC mismatch, or trailing garbage
/// all yield the longest valid prefix instead of an error. Throws
/// JournalError only when the file exists but cannot be read.
ScannedRecords scan_records(const std::string& path);

/// Snapshot-then-swap segment write (docs/JOURNAL.md): frames `payloads`
/// into `path` + ".tmp", fsyncs the file, atomically rename(2)s it onto
/// `path`, then fsyncs the containing directory. Crash-safe at every step:
/// until the rename commits, any previous snapshot at `path` is untouched
/// and the temp file is garbage recovery ignores; after it, the new
/// snapshot is complete. On a reported failure the temp file is unlinked
/// (best effort) and a JournalError is thrown. Probes the journal.snapshot
/// chaos point before the temp write (crash/enospc/failwrite/failsync) and
/// journal.rename before the swap (crash/failrename). Returns the snapshot
/// segment's byte length.
std::uint64_t write_snapshot(const std::string& path,
                             const std::vector<std::string>& payloads);

/// Append-only journal writer. `append` is thread-safe: the campaign's
/// worker threads and the broker's event loop both emit completion records
/// through one serialized writer, each record written with a single write(2)
/// so records never interleave.
class JournalWriter {
 public:
  /// Starts a fresh journal at `path` (truncating any previous content) and
  /// writes the header record for `config`.
  JournalWriter(const std::string& path,
                const campaign::CampaignConfig& config, SyncPolicy sync);
  /// Resumes an existing journal: truncates the file to `keep_bytes` (the
  /// valid prefix found by recover()) and appends after it. When keep_bytes
  /// is 0 (empty or unrecoverable journal) a fresh header is written.
  JournalWriter(const std::string& path,
                const campaign::CampaignConfig& config, SyncPolicy sync,
                std::uint64_t keep_bytes);
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Appends one seed-completion record. Thread-safe. Throws JournalError
  /// when the write or a policy-mandated fsync fails — a campaign that was
  /// promised a journal must not silently run without one.
  void append(const campaign::SeedResult& result);

  /// Final flush + fsync (policy permitting) + close. Idempotent; also run
  /// by the destructor, which swallows errors.
  void close();

  std::uint64_t records_written() const { return log_.records_written(); }

 private:
  RecordLog log_;
};

/// Everything the recovery scan salvaged from a journal file.
struct RecoveredJournal {
  /// True when the file begins with a complete, well-formed header record.
  /// False for a missing, empty, or torn-before-the-header file — all of
  /// which mean "no progress to resume", never an error (a crash can land
  /// before the header reaches disk).
  bool header_valid = false;
  /// Version claimed by a well-formed header record, 0 when none was
  /// readable. A non-zero value != kJournalVersion means the file was
  /// written by a different build: header_valid stays false (nothing is
  /// resumed) but callers can name the real cause instead of reporting a
  /// generic digest mismatch or silently starting fresh.
  std::uint64_t header_version = 0;
  std::string config_digest;
  std::uint64_t seed_lo = 0;
  std::uint64_t seed_hi = 0;
  /// Completed seeds in journal order, de-duplicated (first record wins —
  /// duplicates are deterministic re-computations anyway).
  std::vector<campaign::SeedResult> results;
  /// Byte length of the valid record prefix; the resume writer truncates
  /// the file here before appending so a torn tail never corrupts the log.
  std::uint64_t valid_bytes = 0;
  /// True when the scan stopped at a truncated or corrupt record (the seeds
  /// whose records were dropped simply re-run).
  bool tail_dropped = false;
};

/// Scans `path` and returns every record that survives validation. Tolerant
/// by design: a missing or empty file, a torn header, a truncated tail
/// record, a CRC mismatch, or trailing garbage all yield the longest valid
/// prefix instead of an error. Throws JournalError only when the file exists
/// but cannot be read.
RecoveredJournal recover(const std::string& path);

}  // namespace esv::journal
