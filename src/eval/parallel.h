#ifndef DATALOG_EVAL_PARALLEL_H_
#define DATALOG_EVAL_PARALLEL_H_

#include <cstddef>
#include <vector>

#include "ast/program.h"
#include "eval/database.h"
#include "eval/eval_stats.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace datalog {

/// Parallel semi-naive evaluation: computes exactly the same database as
/// EvaluateSemiNaive, but fans the (rule, delta-position, delta-shard)
/// passes of each round out across a worker pool; a shard is a contiguous
/// sub-range of a predicate's delta range. Within a round every worker
/// matches against a frozen read snapshot (the database as of the round
/// start, whose appended rows since the last round are the delta, with
/// all needed indexes pre-built single-threaded), derives into a
/// task-local buffer, and the buffers are
/// merged into the database single-threaded at the round barrier in task
/// order -- so the result and every non-timing counter of EvalStats are
/// deterministic, independent of scheduling and of `num_threads`.
/// See docs/parallel_eval.md for the design.
///
/// `num_threads` is the total parallelism including the calling thread
/// (the pool gets num_threads - 1 workers and the caller helps at the
/// barrier); 0 means std::thread::hardware_concurrency(), and 1 is a
/// fully single-threaded execution of the same deterministic schedule.
///
/// The program must be positive and safe, as for EvaluateSemiNaive.
Result<EvalStats> EvaluateSemiNaiveParallel(const Program& program,
                                            Database* db,
                                            std::size_t num_threads);

/// SCC-ordered variant: like EvaluateSemiNaiveScc but each component's
/// fixpoint runs on the parallel engine (one pool is shared across all
/// components). Computes exactly the same database.
Result<EvalStats> EvaluateSemiNaiveSccParallel(const Program& program,
                                               Database* db,
                                               std::size_t num_threads);

/// Runs the parallel semi-naive fixpoint over an explicit rule list
/// without validation, deriving with `pool` (which may have zero workers;
/// the calling thread then runs every task itself). Negated literals are
/// tested against the frozen round snapshot, so -- exactly as with
/// RunSemiNaiveFixpoint -- the caller must guarantee that negated
/// predicates are already fully computed.
EvalStats RunSemiNaiveFixpointParallel(const std::vector<Rule>& rules,
                                       Database* db, ThreadPool* pool);

}  // namespace datalog

#endif  // DATALOG_EVAL_PARALLEL_H_
