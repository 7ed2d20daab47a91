// Hand-written evaluations of every benchmark query over PropertyGraph's
// read API. They share no code with the engine's compiler, Rete network or
// baseline evaluator, so a view that matches both its oracle and
// EvaluateOnce is checked against two independent implementations.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/property_graph.h"
#include "rete/delta.h"
#include "value/value.h"

namespace perfbench {

/// Result bag: row (RETURN order) -> multiplicity.
using OracleBag = std::map<std::vector<pgivm::Value>, int64_t>;

struct BenchQuery {
  const char* cypher;
  OracleBag (*evaluate)(const pgivm::PropertyGraph& graph);
};

/// The six SNB interactive views: four complex reads (friend feed, reply
/// tree, posts per creator, likes per author), then two short-read views
/// (person profile, post body). The Cypher text is the SnbDriver query set.
const std::vector<BenchQuery>& SnbQueries();
inline constexpr size_t kSnbComplexViews = 4;

/// The churn views: grouped counts over the friend-feed join, the REPLY*
/// path, the likes join and the co-liker join (two LIKES edges into one
/// post, where Cypher's distinct-edge rule removes the pairs that reuse one
/// edge). Every result holds at most a few dozen rows.
const std::vector<BenchQuery>& ChurnQueries();

/// Empty when `actual` holds exactly the rows and multiplicities of
/// `expected`; otherwise a description of the first difference.
std::string CompareBag(const pgivm::Bag& actual, const OracleBag& expected);

/// Bag equality for two engine bags (the cancelling-batch check).
bool SameBag(const pgivm::Bag& a, const pgivm::Bag& b);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
