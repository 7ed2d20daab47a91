// Tests of the view catalog and its shared Rete sub-networks: fingerprint-
// based node reuse (alias-insensitive), refcounted detach, per-view memory
// attribution, listener silence during sibling registration, and the
// shared-catalog acceptance criterion (fewer nodes and bytes than private
// per-query engines, results equal to re-evaluation at every step).

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/node_registry.h"
#include "engine/query_engine.h"
#include "workload/railway.h"
#include "workload/social_network.h"

namespace pgivm {
namespace {

/// Ten standing social-network views with heavily overlapping prefixes —
/// the paper's §1 monitoring deployment (many views, one graph). As in
/// real standing-query catalogs, several dashboards register the same
/// query under different aliases, or variants differing only in the final
/// filter/aggregation; structural sharing collapses all of that.
std::vector<std::string> OverlappingSocialViews() {
  return {
      "MATCH (u:Person)-[:LIKES]->(m:Post) RETURN u, m",
      "MATCH (fan:Person)-[:LIKES]->(msg:Post) RETURN fan, msg",
      "MATCH (u:Person)-[:LIKES]->(m:Post) RETURN m AS msg, count(*) AS l",
      "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.country = b.country "
      "RETURN a, b",
      "MATCH (p:Person)-[:KNOWS]->(q:Person) WHERE p.country = q.country "
      "RETURN p, q",
      "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang "
      "RETURN p, c",
      "MATCH (x:Post)-[:REPLY]->(y:Comm) WHERE x.lang = y.lang "
      "RETURN x, y",
      "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang <> c.lang "
      "RETURN p, c",
      "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS posts",
      "MATCH (q:Post) RETURN q.lang AS l, count(*) AS n",
  };
}

TEST(NodeRegistry, CanonicalKeysAreAliasInsensitive) {
  PropertyGraph graph;
  QueryEngine engine(&graph);
  auto plan_a =
      engine.Compile("MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c");
  auto plan_b =
      engine.Compile("MATCH (x:Post)-[:REPLY]->(y:Comm) RETURN x, y");
  auto plan_c =
      engine.Compile("MATCH (p:Post)-[:LIKES]->(c:Comm) RETURN p, c");
  ASSERT_TRUE(plan_a.ok() && plan_b.ok() && plan_c.ok());

  std::string key_a = CanonicalPlanKey(**plan_a);
  std::string key_b = CanonicalPlanKey(**plan_b);
  std::string key_c = CanonicalPlanKey(**plan_c);
  ASSERT_FALSE(key_a.empty());
  EXPECT_EQ(key_a, key_b);  // aliases do not matter
  EXPECT_NE(key_a, key_c);  // edge types do
}

TEST(CatalogSharing, RenamedDuplicateViewAddsOnlyAProduction) {
  PropertyGraph graph;
  SocialNetworkConfig config;
  config.persons = 20;
  SocialNetworkGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  auto first = engine.Register(
      "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c");
  ASSERT_TRUE(first.ok()) << first.status();
  size_t nodes_before = engine.catalog().Stats().total_nodes;

  auto second = engine.Register(
      "MATCH (x:Post)-[:REPLY]->(y:Comm) WHERE x.lang = y.lang RETURN x, y");
  ASSERT_TRUE(second.ok()) << second.status();

  CatalogStats stats = engine.catalog().Stats();
  // The whole plan was reused; only the second view's private production
  // was added.
  EXPECT_EQ(stats.total_nodes, nodes_before + 1);
  EXPECT_GT(stats.registry_hits, 0);
  EXPECT_GT(stats.shared_nodes, 0u);

  // Both views maintain identical (correct) results.
  generator.ApplyRandomUpdate(&graph);
  EXPECT_EQ((*first)->Snapshot().size(), (*second)->Snapshot().size());
}

TEST(CatalogSharing, WithinViewDuplicateSubPlanIsInstantiatedOnce) {
  PropertyGraph graph;
  SocialNetworkConfig config;
  config.persons = 25;
  SocialNetworkGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  // Both KNOWS hops and all three Person scans are structurally identical
  // sub-plans: the shared network instantiates each once and the join
  // becomes a self-join through one shared node.
  const char* query =
      "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
      "RETURN a, b, c";
  auto view = engine.Register(query);
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_GT(engine.catalog().Stats().registry_hits, 0);

  for (int step = 0; step < 25; ++step) {
    generator.ApplyRandomUpdate(&graph);
    auto expected = engine.EvaluateOnce(query);
    ASSERT_TRUE(expected.ok());
    std::vector<Tuple> actual = (*view)->Snapshot();
    ASSERT_EQ(actual.size(), expected.value().size()) << "step " << step;
    for (size_t i = 0; i < actual.size(); ++i) {
      ASSERT_EQ(Tuple::Compare(actual[i], expected.value()[i]), 0)
          << "step " << step << " row " << i;
    }
  }
}

TEST(CatalogLifecycle, DetachingOneViewLeavesTheSharingSiblingUntouched) {
  PropertyGraph graph;
  SocialNetworkConfig config;
  config.persons = 20;
  SocialNetworkGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  auto doomed = engine.Register(
      "MATCH (u:Person)-[:LIKES]->(m:Post) RETURN u, m");
  auto survivor = engine.Register(
      "MATCH (u:Person)-[:LIKES]->(m:Post) WHERE m.length > 0 RETURN u, m");
  ASSERT_TRUE(doomed.ok() && survivor.ok());
  ASSERT_GT(engine.catalog().Stats().shared_nodes, 0u);

  std::vector<Tuple> rows_before = (*survivor)->Snapshot();
  size_t nodes_before = engine.catalog().Stats().total_nodes;
  size_t survivor_bytes = (*survivor)->ApproxMemoryBytes();
  int64_t deltas_before = (*survivor)->network().deltas_processed();

  doomed->reset();  // ~View → catalog refcounted detach

  CatalogStats stats = engine.catalog().Stats();
  EXPECT_EQ(stats.views, 1u);
  EXPECT_LT(stats.total_nodes, nodes_before);
  // No re-prime happened: the survivor's memories and results are the very
  // same objects, not rebuilt copies.
  EXPECT_EQ((*survivor)->network().deltas_processed(), deltas_before);
  EXPECT_EQ((*survivor)->ApproxMemoryBytes(), survivor_bytes);
  std::vector<Tuple> rows_after = (*survivor)->Snapshot();
  ASSERT_EQ(rows_after.size(), rows_before.size());
  for (size_t i = 0; i < rows_after.size(); ++i) {
    ASSERT_EQ(Tuple::Compare(rows_after[i], rows_before[i]), 0);
  }

  // Maintenance continues for the survivor.
  for (int step = 0; step < 15; ++step) {
    generator.ApplyRandomUpdate(&graph);
    auto expected = engine.EvaluateOnce(
        "MATCH (u:Person)-[:LIKES]->(m:Post) WHERE m.length > 0 "
        "RETURN u, m");
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ((*survivor)->Snapshot().size(), expected.value().size())
        << "survivor diverged at step " << step;
  }

  // Re-registering the dropped view reuses the survivor's sub-network
  // again (fingerprint hit) and is immediately correct.
  int64_t hits_before = engine.catalog().Stats().registry_hits;
  auto back = engine.Register(
      "MATCH (u:Person)-[:LIKES]->(m:Post) RETURN u, m");
  ASSERT_TRUE(back.ok());
  EXPECT_GT(engine.catalog().Stats().registry_hits, hits_before);
  EXPECT_GT(engine.catalog().Stats().shared_nodes, 0u);
  auto expected = engine.EvaluateOnce(
      "MATCH (u:Person)-[:LIKES]->(m:Post) RETURN u, m");
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ((*back)->Snapshot().size(), expected.value().size());
}

TEST(CatalogLifecycle, LastViewTearsDownTheSharedNetwork) {
  PropertyGraph graph;
  graph.AddVertex({"A"});
  QueryEngine engine(&graph);
  auto view = engine.Register("MATCH (n:A) RETURN n");
  ASSERT_TRUE(view.ok());
  ASSERT_NE(engine.catalog().shared_network(), nullptr);
  view->reset();
  EXPECT_EQ(engine.catalog().shared_network(), nullptr);
  EXPECT_EQ(engine.catalog().Stats().total_nodes, 0u);

  // And the catalog accepts registrations again afterwards.
  auto again = engine.Register("MATCH (n:A) RETURN n");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->size(), 1);
}

TEST(CatalogLifecycle, ViewsOutliveTheEngine) {
  PropertyGraph graph;
  graph.AddVertex({"A"});
  std::shared_ptr<View> view;
  {
    QueryEngine engine(&graph);
    auto registered = engine.Register("MATCH (n:A) RETURN n");
    ASSERT_TRUE(registered.ok());
    view = *registered;
  }
  // The view keeps the catalog (and the shared network) alive.
  graph.AddVertex({"A"});
  EXPECT_EQ(view->size(), 2);
}

class RecordingListener : public ViewChangeListener {
 public:
  void OnViewDelta(const Delta& delta) override {
    ++calls;
    entries += static_cast<int64_t>(delta.size());
  }
  int calls = 0;
  int64_t entries = 0;
};

TEST(CatalogLifecycle, RegisteringASiblingEmitsNoSpuriousListenerDeltas) {
  PropertyGraph graph;
  VertexId a = graph.AddVertex({"A"});
  (void)a;
  QueryEngine engine(&graph);
  auto view = engine.Register("MATCH (n:A) RETURN n");
  ASSERT_TRUE(view.ok());
  RecordingListener listener;
  (*view)->AddListener(&listener);

  // Registering another view primes its consumers in the shared network;
  // the first view's result did not change, so its listeners must stay
  // silent.
  auto sibling = engine.Register("MATCH (n:A) RETURN n AS m");
  ASSERT_TRUE(sibling.ok());
  EXPECT_EQ(listener.calls, 0);
  EXPECT_EQ((*view)->size(), 1);

  // Real changes still notify exactly once.
  graph.AddVertex({"A"});
  EXPECT_EQ(listener.calls, 1);
  (*view)->RemoveListener(&listener);
}

TEST(CatalogStatsTest, MarginalMemoryIsBoundedByViewMemory) {
  PropertyGraph graph;
  SocialNetworkConfig config;
  config.persons = 20;
  SocialNetworkGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  auto a = engine.Register(
      "MATCH (u:Person)-[:LIKES]->(m:Post) RETURN u, m");
  auto b = engine.Register(
      "MATCH (u:Person)-[:LIKES]->(m:Post) RETURN m AS msg, count(*) AS l");
  ASSERT_TRUE(a.ok() && b.ok());
  const ViewCatalog& catalog = engine.catalog();
  size_t marginal = catalog.MarginalMemoryBytes(a->get());
  size_t full = catalog.ViewMemoryBytes(a->get());
  EXPECT_LE(marginal, full);
  // The shared prefix holds real memory, so the marginal slice is a strict
  // subset of the view's footprint.
  EXPECT_LT(marginal, full);
  EXPECT_LE(catalog.Stats().memory_bytes,
            catalog.ViewMemoryBytes(a->get()) +
                catalog.ViewMemoryBytes(b->get()));
}

// ---- acceptance: 10 overlapping views in one catalog ------------------------

class CatalogAcceptanceTest
    : public ::testing::TestWithParam<PropagationStrategy> {};

TEST_P(CatalogAcceptanceTest, TenOverlappingViewsShareAndStayBitIdentical) {
  PropertyGraph graph;
  SocialNetworkConfig config;
  config.persons = 30;
  SocialNetworkGenerator generator(config);
  generator.Populate(&graph);

  EngineOptions options;
  options.network.propagation = GetParam();
  QueryEngine engine(&graph, options);
  std::vector<std::shared_ptr<View>> views;
  // The private-network side: one engine (and so one network) per query,
  // each holding only that query's nodes.
  size_t private_nodes = 0;
  size_t private_bytes = 0;
  for (const std::string& query : OverlappingSocialViews()) {
    auto view = engine.Register(query);
    ASSERT_TRUE(view.ok()) << query << ": " << view.status();
    views.push_back(*view);
    QueryEngine private_engine(&graph, options);
    auto private_view = private_engine.Register(query);
    ASSERT_TRUE(private_view.ok()) << query << ": " << private_view.status();
    private_nodes += private_engine.catalog().Stats().total_nodes;
    private_bytes += private_engine.catalog().Stats().memory_bytes;
  }

  CatalogStats stats = engine.catalog().Stats();
  ASSERT_EQ(stats.views, 10u);
  // ≥ 30% of the live Rete nodes serve more than one view...
  EXPECT_GE(stats.SharingRatio(), 0.3) << stats.ToString();
  // ...the catalog needs strictly fewer nodes than ten private networks...
  EXPECT_LT(stats.total_nodes, private_nodes);
  // ...and strictly less total node-memory.
  EXPECT_LT(stats.memory_bytes, private_bytes)
      << "shared: " << stats.ToString() << " private: " << private_bytes;

  // Differential: every shared view equals re-evaluation after every
  // update, single changes and multi-change batches alike.
  for (int step = 0; step < 30; ++step) {
    if (step % 4 == 3) {
      graph.BeginBatch();
      for (int i = 0; i < 5; ++i) generator.ApplyRandomUpdate(&graph);
      graph.CommitBatch();
    } else {
      generator.ApplyRandomUpdate(&graph);
    }
    for (const auto& view : views) {
      auto expected = engine.EvaluateOnce(view->query());
      ASSERT_TRUE(expected.ok()) << view->query();
      std::vector<Tuple> rows = view->Snapshot();
      ASSERT_EQ(rows.size(), expected.value().size())
          << view->query() << " diverged at step " << step;
      for (size_t i = 0; i < rows.size(); ++i) {
        ASSERT_EQ(Tuple::Compare(rows[i], expected.value()[i]), 0)
            << view->query() << " step " << step << " row " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothStrategies, CatalogAcceptanceTest,
                         ::testing::Values(PropagationStrategy::kEager,
                                           PropagationStrategy::kBatched),
                         [](const auto& info) {
                           return std::string(
                               PropagationStrategyName(info.param));
                         });

// The railway (TrainBenchmark) catalog shares its Segment/Sensor prefixes
// the same way — the paper's bench_e3 deployment scenario.
TEST(CatalogSharing, RailwayCatalogSharesAcrossTheFourQueries) {
  PropertyGraph graph;
  RailwayConfig config;
  RailwayGenerator generator(config);
  generator.Populate(&graph);

  QueryEngine engine(&graph);
  std::vector<std::shared_ptr<View>> views;
  for (const std::string& query :
       {RailwayGenerator::PosLengthQuery(),
        RailwayGenerator::SwitchMonitoredQuery(),
        RailwayGenerator::RouteSensorQuery(),
        RailwayGenerator::SwitchSetQuery()}) {
    auto view = engine.Register(query);
    ASSERT_TRUE(view.ok()) << query << ": " << view.status();
    views.push_back(*view);
  }
  CatalogStats stats = engine.catalog().Stats();
  EXPECT_EQ(stats.views, 4u);
  EXPECT_GT(stats.shared_nodes, 0u) << stats.ToString();

  for (int step = 0; step < 20; ++step) {
    generator.ApplyRandomUpdate(&graph);
  }
  for (const auto& view : views) {
    auto expected = engine.EvaluateOnce(view->query());
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(view->Snapshot().size(), expected.value().size())
        << view->query();
  }
}

// ---- Snapshot dirty-flag caching -------------------------------------------

TEST(SnapshotCache, UnchangedViewReturnsCachedRowsAndInvalidatesOnChange) {
  PropertyGraph graph;
  graph.AddVertex({"A"});
  graph.AddVertex({"A"});
  QueryEngine engine(&graph);
  auto view = engine.Register("MATCH (n:A) RETURN n");
  ASSERT_TRUE(view.ok());

  std::vector<Tuple> first = (*view)->Snapshot();
  std::vector<Tuple> second = (*view)->Snapshot();
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(first.size(), second.size());

  graph.AddVertex({"A"});
  std::vector<Tuple> third = (*view)->Snapshot();
  EXPECT_EQ(third.size(), 3u);

  // A flip-flop batch consolidates to nothing: the cache stays valid and
  // the rows stay correct.
  graph.BeginBatch();
  VertexId v = graph.AddVertex({"A"});
  ASSERT_TRUE(graph.RemoveVertex(v).ok());
  graph.CommitBatch();
  EXPECT_EQ((*view)->Snapshot().size(), 3u);
}

TEST(SnapshotCache, SkipLimitViewsStayCorrectAcrossChanges) {
  PropertyGraph graph;
  for (int i = 0; i < 6; ++i) graph.AddVertex({"A"});
  QueryEngine engine(&graph);
  auto view = engine.Register("MATCH (n:A) RETURN n SKIP 1 LIMIT 3");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->Snapshot().size(), 3u);
  EXPECT_EQ((*view)->Snapshot().size(), 3u);
  graph.AddVertex({"A"});
  EXPECT_EQ((*view)->Snapshot().size(), 3u);
}

}  // namespace
}  // namespace pgivm
