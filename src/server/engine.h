// PolicyEngine: the MVCC execution core of the policy server.
//
// One engine owns the authoritative graph behind an AdmissionGate (the
// PR-7 O(1) Theorem-5.5 write path) and publishes immutable *epoch-pinned
// snapshots* for readers:
//
//   * Writes (admit / txn verbs) run serially on the server's event-loop
//     thread against the gate.  They mutate only the gate's engine graph;
//     no reader ever observes that object.
//   * PublishIfAdvanced() copies the gate's graph + level assignment into
//     a fresh immutable EpochState when the epoch moved.  Publication is
//     *lazy*: a burst of admitted rules costs one copy at the next read
//     batch, not one per rule.
//   * Reads execute in parallel on a ThreadPool against one pinned
//     EpochState (a shared_ptr keeps it alive for the whole batch even if
//     newer epochs publish meanwhile), so readers never take a lock on the
//     authoritative graph and writers never wait for readers.
//
// Caching: each worker slot owns a private AnalysisCache.  Slot caches are
// keyed on the graph's mutation epoch and repair themselves from the PR-4
// journal, so they survive epoch publication with footprint-scoped
// invalidation — the same warm-path economics the CLIs enjoy, without any
// cross-thread locking (a slot cache is only ever touched by the one
// worker executing that slot's chunk of the batch).
//
// Threading contract: ExecuteReadBatch and pinned() may be called from one
// dispatcher thread; ExecuteWrite / PublishIfAdvanced from one writer
// (event-loop) thread; the two may overlap freely.  Two concurrent
// ExecuteReadBatch calls are NOT allowed (slot caches are unsynchronized).

#ifndef SRC_SERVER_ENGINE_H_
#define SRC_SERVER_ENGINE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/analysis/cache.h"
#include "src/hierarchy/admission.h"
#include "src/hierarchy/levels.h"
#include "src/tg/graph.h"
#include "src/util/thread_pool.h"

namespace tg_server {

// One published epoch: an immutable graph + level-assignment snapshot.
// Readers pin it with a shared_ptr; it outlives its epoch for as long as
// any in-flight batch still holds it.
struct EpochState {
  tg::ProtectionGraph graph;
  tg_hier::LevelAssignment levels;
  uint64_t epoch = 0;
};

class PolicyEngine {
 public:
  struct Options {
    tg_hier::AdmissionGate::Options gate;
    // Worker pool size for read batches (0 = ThreadPool::DefaultThreadCount).
    size_t threads = 0;
  };

  PolicyEngine(tg::ProtectionGraph graph, tg_hier::LevelAssignment levels, Options options);

  size_t worker_threads() const { return pool_.thread_count(); }
  tg_hier::AdmissionGate& gate() { return *gate_; }

  // The most recently published snapshot (never null after construction).
  std::shared_ptr<const EpochState> pinned() const;

  // The authoritative (gate) epoch — may be ahead of pinned()->epoch
  // between a write and the next publication.
  uint64_t authoritative_epoch() const { return gate_->graph().epoch(); }

  // Publishes a fresh EpochState when the gate's graph advanced past the
  // published epoch.  Returns true when a new epoch was published.
  bool PublishIfAdvanced();

  // Executes read request lines [0, n) against `state`, fanning contiguous
  // chunks over the worker pool; returns one JSON response per line, in
  // order.  Deterministic for any pool size.
  std::vector<std::string> ExecuteReadBatch(const std::shared_ptr<const EpochState>& state,
                                            const std::vector<std::string>& lines);

  // Executes one read line inline on the calling thread using slot 0's
  // cache (single-request path; same answers as the batch path).
  std::string ExecuteRead(const EpochState& state, const std::string& line);

  // Executes one admit/txn request serially.  `conn_token` identifies the
  // requesting connection for transaction ownership (a transaction opened
  // over the wire is exclusive to its connection until commit/abort).
  std::string ExecuteWrite(const std::string& line, uint64_t conn_token);

  // Aborts the open transaction if `conn_token` owns it (the mid-request
  // disconnect path).  Returns true when an abort happened.
  bool AbortTxnIfOwner(uint64_t conn_token);

 private:
  // Slow-query wrapper: when SlowQueryThresholdNs() > 0, times the line
  // under a kServerRequest QueryScope and captures query id + span tree +
  // provenance into the SlowQueryLog when it exceeds the threshold.
  // Threshold 0 falls straight through to the Impl (no clock reads).
  std::string ExecuteReadLine(const EpochState& state, tg_analysis::AnalysisCache& cache,
                              std::string_view line);
  std::string ExecuteReadLineImpl(const EpochState& state,
                                  tg_analysis::AnalysisCache& cache, std::string_view line);
  std::string ExecuteWriteImpl(const std::string& line, uint64_t conn_token);
  std::string ExecuteAdmit(const std::vector<std::string_view>& tokens, uint64_t conn_token);
  std::string ExecuteTxn(const std::vector<std::string_view>& tokens, uint64_t conn_token);

  std::unique_ptr<tg_hier::AdmissionGate> gate_;
  tg_util::ThreadPool pool_;
  std::vector<std::unique_ptr<tg_analysis::AnalysisCache>> slot_caches_;

  mutable std::mutex publish_mu_;
  std::shared_ptr<const EpochState> published_;

  uint64_t txn_owner_ = 0;  // conn token holding the open txn (0 = none)
};

}  // namespace tg_server

#endif  // SRC_SERVER_ENGINE_H_
