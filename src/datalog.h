#ifndef DATALOG_DATALOG_H_
#define DATALOG_DATALOG_H_

/// Umbrella header for the datalog_opt library: a from-scratch
/// implementation of Y. Sagiv, "Optimizing Datalog Programs" (PODS 1987) —
/// minimization of Datalog programs under uniform equivalence, the
/// tgd-based equivalence optimizer, and the bottom-up evaluation substrate
/// they run on.
///
/// Typical use:
///
///   auto symbols = std::make_shared<datalog::SymbolTable>();
///   datalog::Parser parser(symbols);
///   auto program = parser.ParseProgram(
///       "g(x, z) :- a(x, z).\n"
///       "g(x, z) :- g(x, y), g(y, z), g(y, z).\n").value();
///   auto minimized = datalog::MinimizeProgram(program).value();
///   auto edb = datalog::ParseDatabase(symbols, "a(1,2). a(2,3).").value();
///   datalog::Database db = edb;
///   datalog::EvaluateSemiNaive(minimized, &db).value();

#include "analysis/analyzer.h"    // IWYU pragma: export
#include "analysis/diagnostic.h"  // IWYU pragma: export
#include "ast/atom.h"             // IWYU pragma: export
#include "ast/dependence_graph.h" // IWYU pragma: export
#include "ast/parser.h"           // IWYU pragma: export
#include "ast/pretty_print.h"     // IWYU pragma: export
#include "ast/program.h"          // IWYU pragma: export
#include "ast/rule.h"             // IWYU pragma: export
#include "ast/symbol_table.h"     // IWYU pragma: export
#include "ast/term.h"             // IWYU pragma: export
#include "ast/tgd.h"              // IWYU pragma: export
#include "ast/validate.h"         // IWYU pragma: export
#include "ast/value.h"            // IWYU pragma: export
#include "core/chase.h"           // IWYU pragma: export
#include "core/constrained.h"     // IWYU pragma: export
#include "core/cq.h"              // IWYU pragma: export
#include "core/equivalence.h"     // IWYU pragma: export
#include "core/equivalence_optimizer.h"  // IWYU pragma: export
#include "core/minimize.h"        // IWYU pragma: export
#include "core/model_containment.h"     // IWYU pragma: export
#include "core/pipeline.h"        // IWYU pragma: export
#include "core/preservation.h"    // IWYU pragma: export
#include "core/proof_outcome.h"   // IWYU pragma: export
#include "core/relevance.h"     // IWYU pragma: export
#include "core/unfold.h"        // IWYU pragma: export
#include "core/uniform_containment.h"   // IWYU pragma: export
#include "eval/compiled_rule.h"   // IWYU pragma: export
#include "eval/database.h"        // IWYU pragma: export
#include "eval/magic_sets.h"      // IWYU pragma: export
#include "eval/naive.h"           // IWYU pragma: export
#include "eval/parallel.h"        // IWYU pragma: export
#include "eval/provenance.h"      // IWYU pragma: export
#include "eval/query.h"           // IWYU pragma: export
#include "eval/seminaive.h"       // IWYU pragma: export
#include "eval/stratified.h"      // IWYU pragma: export
#include "eval/topdown.h"         // IWYU pragma: export
#include "incr/materialized_view.h"  // IWYU pragma: export
#include "incr/script.h"          // IWYU pragma: export
#include "obs/metrics.h"          // IWYU pragma: export
#include "obs/stats_export.h"     // IWYU pragma: export
#include "obs/trace.h"            // IWYU pragma: export
#include "server/client.h"        // IWYU pragma: export
#include "server/epoch.h"         // IWYU pragma: export
#include "server/server.h"        // IWYU pragma: export
#include "server/snapshot_query.h"  // IWYU pragma: export
#include "server/wire.h"          // IWYU pragma: export
#include "util/result.h"          // IWYU pragma: export
#include "version.h"              // IWYU pragma: export
#include "util/status.h"          // IWYU pragma: export

#endif  // DATALOG_DATALOG_H_
