// The multi-process executor of the shard engine, behind
// RunShardedResumable with ShardEngineOptions::processes >= 1: a coordinator
// that forks worker processes, hands out market ids over length-prefixed
// socketpair channels (src/common/ipc.h), and merges results by replaying the
// workers' own checkpoint journals. The engine's prologue (partition, journal
// open/resume, leftover worker-journal consolidation) and epilogue (the fold)
// are shared with the in-process lanes and live in shard_engine.cc.
//
// Why processes when the shard engine already has threads: in-process lanes
// die as a unit — one OOM kill, one heap corruption, one stuck syscall takes
// every lane's un-journaled work with it. Forked workers fail
// independently: a SIGKILLed worker costs at most the market it was
// simulating, because everything it finished is already fsync'd in its own
// journal. Process isolation also sidesteps allocator and page-cache
// contention between lanes on large populations.
//
// The handoff protocol is built so that the JOURNAL, not the pipe, is the
// source of truth:
//
//   * worker i journals every completed market to `<checkpoint_path>.w<i>`
//     — the exact format core/checkpoint.h defines, same header fingerprint
//     as the main journal — with append -> fsync -> then DONE on the pipe,
//     in that order;
//   * the coordinator treats DONE as a hint. When a worker dies (SIGKILL,
//     nonzero exit, stall-kill), the coordinator reaps it FIRST, then reads
//     its journal post-mortem: markets present in the journal are complete
//     (even if the DONE never arrived); only absent assignments are
//     requeued to surviving workers. A market is therefore never
//     double-counted and never lost — exactly-once by construction, and the
//     proof is digest equality with the in-process lanes;
//   * the final merge is a pure journal replay: read every worker journal,
//     dedupe by market id (digest equality enforced on any duplicate),
//     append unseen records to the main journal, fsync, unlink the worker
//     files, fsync the directory. A crash at ANY point in the merge leaves
//     a state the next run consolidates to the same bytes.
//
// Because the main journal ends up holding every completed market in the
// core/checkpoint.h format, a journal is resumable at any {processes,
// threads, shards, residency, schedule, steal_seed}, in-process lanes
// included — the fingerprint covers only semantic config, never execution
// knobs.
//
// Determinism: workers execute the same SimulateMarket the in-process lanes
// do, and the engine folds the records in market-index order either way, so
// the merged totals and every digest are byte-identical at every process
// count, including under fault injection and worker death
// (tests/integration/multiproc_equivalence_test.cc,
// tests/integration/crash_recovery_test.cc).
#ifndef ADPAD_SRC_CORE_MULTIPROC_ENGINE_H_
#define ADPAD_SRC_CORE_MULTIPROC_ENGINE_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/checkpoint.h"
#include "src/core/config.h"
#include "src/core/shard_engine.h"

namespace pad {

// What RunShardedResumable's prologue hands an executor. `results` holds one
// slot per market; slot m holds market m's record iff its .market == m
// (restored from the journals, or filled by the executor). `writer` appends
// to the main journal; null without a checkpoint.
struct ShardRun {
  const PadConfig& aligned;
  const std::vector<int64_t>& boundaries;
  const CheckpointHeader& header;
  const ShardEngineOptions& options;
  CheckpointWriter* writer;
  std::vector<MarketRecord>& results;
};

// The journal path worker `worker` appends to for a run checkpointing at
// `checkpoint_path`.
std::string WorkerJournalPath(const std::string& checkpoint_path, int worker);

// Folds every `<checkpoint_path>.w<digits>` worker journal into run.results
// and the main journal (run.writer, required), then removes the files. A
// market already in its slot must carry the same digests (kDataLoss
// otherwise); a journal of another experiment is refused with
// kFailedPrecondition and left in place. Adds the number of newly merged
// markets to *merged_markets.
Status ConsolidateWorkerJournals(const ShardRun& run, int* merged_markets);

// Simulates every market whose slot is still empty on run.options.processes
// forked workers (capped at the market count), consolidates their journals
// into the slots and the main journal, and fills the execution trace of
// *trace: market_workers and market_busy_s (sized by the caller),
// worker_processes, workers_used, workers_died, markets_reassigned,
// peak_resident_users and interrupted. Returns kAborted when every worker
// died with markets remaining (completed markets are journaled first, so a
// rerun resumes), kDataLoss / kUnavailable on journal or channel corruption.
// Forks: the calling process must not have created any thread yet.
Status RunWorkerProcesses(const ShardRun& run, ShardedComparison* trace);

}  // namespace pad

#endif  // ADPAD_SRC_CORE_MULTIPROC_ENGINE_H_
