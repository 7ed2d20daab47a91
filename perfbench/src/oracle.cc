#include "oracle.h"

#include <algorithm>
#include <sstream>

namespace perfbench {

using pgivm::EdgeId;
using pgivm::PropertyGraph;
using pgivm::Value;
using pgivm::VertexId;

namespace {

bool Is(const PropertyGraph& g, VertexId v, const char* label) {
  return g.VertexHasLabel(v, label);
}

Value Prop(const PropertyGraph& g, VertexId v, const char* key) {
  return g.GetVertexProperty(v, key);
}

/// (p:Person)-[:KNOWS]->(f:Person)<-[:HAS_CREATOR]-(m:Post)
template <typename Fn>
void ForEachFeed(const PropertyGraph& g, Fn&& fn) {
  for (EdgeId knows : g.EdgesWithType("KNOWS")) {
    const VertexId p = g.EdgeSource(knows);
    const VertexId f = g.EdgeTarget(knows);
    if (!Is(g, p, "Person") || !Is(g, f, "Person")) continue;
    for (EdgeId created : g.InEdges(f)) {
      if (g.EdgeType(created) != "HAS_CREATOR") continue;
      const VertexId m = g.EdgeSource(created);
      if (Is(g, m, "Post")) fn(p, f, m);
    }
  }
}

/// (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang, one call per
/// trail: a path of one or more REPLY edges that repeats no edge.
template <typename Fn>
void ForEachReply(const PropertyGraph& g, Fn&& fn) {
  std::vector<EdgeId> trail;
  for (VertexId p : g.VerticesWithLabel("Post")) {
    const Value lang = Prop(g, p, "lang");
    // Cypher's `=` on a null is null, which WHERE rejects.
    if (lang.is_null()) continue;
    // Explicit DFS stack of (vertex, next out-edge index).
    std::vector<std::pair<VertexId, size_t>> stack{{p, 0}};
    trail.clear();
    while (!stack.empty()) {
      auto& [v, next] = stack.back();
      const std::vector<EdgeId>& out = g.OutEdges(v);
      if (next == out.size()) {
        stack.pop_back();
        if (!trail.empty()) trail.pop_back();
        continue;
      }
      const EdgeId e = out[next++];
      if (g.EdgeType(e) != "REPLY") continue;
      if (std::find(trail.begin(), trail.end(), e) != trail.end()) continue;
      const VertexId c = g.EdgeTarget(e);
      if (Is(g, c, "Comm")) {
        const Value c_lang = Prop(g, c, "lang");
        if (!c_lang.is_null() && c_lang == lang) fn(p, c);
      }
      trail.push_back(e);
      stack.emplace_back(c, 0);
    }
  }
}

/// (pe:Person)-[:LIKES]->(m:Post)-[:HAS_CREATOR]->(a:Person)
template <typename Fn>
void ForEachLike(const PropertyGraph& g, Fn&& fn) {
  for (EdgeId like : g.EdgesWithType("LIKES")) {
    const VertexId pe = g.EdgeSource(like);
    const VertexId m = g.EdgeTarget(like);
    if (!Is(g, pe, "Person") || !Is(g, m, "Post")) continue;
    for (EdgeId created : g.OutEdges(m)) {
      if (g.EdgeType(created) != "HAS_CREATOR") continue;
      const VertexId a = g.EdgeTarget(created);
      if (Is(g, a, "Person")) fn(pe, m, a);
    }
  }
}

/// (a:Person)-[:LIKES]->(m:Post)<-[:LIKES]-(b:Person). Both edges bind in
/// one pattern, so they must differ (Cypher's relationship uniqueness);
/// a == b stays legal when one person likes the post twice.
template <typename Fn>
void ForEachCoLiker(const PropertyGraph& g, Fn&& fn) {
  std::vector<EdgeId> in;
  for (VertexId m : g.VerticesWithLabel("Post")) {
    in.clear();
    for (EdgeId e : g.InEdges(m)) {
      if (g.EdgeType(e) == "LIKES" && Is(g, g.EdgeSource(e), "Person")) {
        in.push_back(e);
      }
    }
    for (EdgeId e1 : in) {
      for (EdgeId e2 : in) {
        if (e1 != e2) fn(g.EdgeSource(e1), m, g.EdgeSource(e2));
      }
    }
  }
}

OracleBag GroupedCount(const std::map<Value, int64_t>& groups) {
  OracleBag bag;
  for (const auto& [key, n] : groups) bag[{key, Value::Int(n)}] = 1;
  return bag;
}

// ---- SNB views --------------------------------------------------------------

OracleBag FriendFeed(const PropertyGraph& g) {
  OracleBag bag;
  ForEachFeed(g, [&](VertexId p, VertexId f, VertexId m) {
    ++bag[{Value::Vertex(p), Value::Vertex(f), Value::Vertex(m)}];
  });
  return bag;
}

OracleBag ReplyTree(const PropertyGraph& g) {
  OracleBag bag;
  ForEachReply(g, [&](VertexId p, VertexId c) {
    ++bag[{Value::Vertex(p), Value::Vertex(c)}];
  });
  return bag;
}

OracleBag PostsPerCreator(const PropertyGraph& g) {
  std::map<Value, int64_t> groups;
  for (EdgeId created : g.EdgesWithType("HAS_CREATOR")) {
    const VertexId m = g.EdgeSource(created);
    const VertexId p = g.EdgeTarget(created);
    if (Is(g, m, "Post") && Is(g, p, "Person")) ++groups[Value::Vertex(p)];
  }
  return GroupedCount(groups);
}

OracleBag LikesPerAuthor(const PropertyGraph& g) {
  std::map<Value, int64_t> groups;
  ForEachLike(g, [&](VertexId, VertexId, VertexId a) {
    ++groups[Value::Vertex(a)];
  });
  return GroupedCount(groups);
}

OracleBag PersonProfile(const PropertyGraph& g) {
  OracleBag bag;
  for (VertexId p : g.VerticesWithLabel("Person")) {
    ++bag[{Value::Vertex(p), Prop(g, p, "name"), Prop(g, p, "country")}];
  }
  return bag;
}

OracleBag PostBody(const PropertyGraph& g) {
  OracleBag bag;
  for (VertexId m : g.VerticesWithLabel("Post")) {
    ++bag[{Value::Vertex(m), Prop(g, m, "lang"), Prop(g, m, "length")}];
  }
  return bag;
}

// ---- churn views ------------------------------------------------------------

OracleBag FeedByCountry(const PropertyGraph& g) {
  std::map<Value, int64_t> groups;
  ForEachFeed(g, [&](VertexId p, VertexId, VertexId) {
    ++groups[Prop(g, p, "country")];
  });
  return GroupedCount(groups);
}

OracleBag RepliesByLang(const PropertyGraph& g) {
  std::map<Value, int64_t> groups;
  ForEachReply(g, [&](VertexId p, VertexId) { ++groups[Prop(g, p, "lang")]; });
  return GroupedCount(groups);
}

OracleBag LikesByAuthorCountry(const PropertyGraph& g) {
  std::map<Value, int64_t> groups;
  ForEachLike(g, [&](VertexId, VertexId, VertexId a) {
    ++groups[Prop(g, a, "country")];
  });
  return GroupedCount(groups);
}

OracleBag CoLikersByLang(const PropertyGraph& g) {
  std::map<Value, int64_t> groups;
  ForEachCoLiker(g, [&](VertexId, VertexId m, VertexId) {
    ++groups[Prop(g, m, "lang")];
  });
  return GroupedCount(groups);
}

std::string RowString(const std::vector<Value>& row) {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < row.size(); ++i) {
    os << (i == 0 ? "" : ", ") << row[i].ToString();
  }
  os << ")";
  return os.str();
}

}  // namespace

const std::vector<BenchQuery>& SnbQueries() {
  static const auto* queries = new std::vector<BenchQuery>{
      {"MATCH (p:Person)-[:KNOWS]->(f:Person)<-[:HAS_CREATOR]-(m:Post) "
       "RETURN p, f, m",
       FriendFeed},
      {"MATCH (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang "
       "RETURN p, c",
       ReplyTree},
      {"MATCH (m:Post)-[:HAS_CREATOR]->(p:Person) "
       "RETURN p AS person, count(*) AS posts",
       PostsPerCreator},
      {"MATCH (pe:Person)-[:LIKES]->(m:Post)-[:HAS_CREATOR]->(a:Person) "
       "RETURN a, count(*) AS likes",
       LikesPerAuthor},
      {"MATCH (p:Person) RETURN p, p.name AS name, p.country AS country",
       PersonProfile},
      {"MATCH (m:Post) RETURN m, m.lang AS lang, m.length AS len", PostBody},
  };
  return *queries;
}

const std::vector<BenchQuery>& ChurnQueries() {
  static const auto* queries = new std::vector<BenchQuery>{
      {"MATCH (p:Person)-[:KNOWS]->(f:Person)<-[:HAS_CREATOR]-(m:Post) "
       "RETURN p.country AS country, count(*) AS feed",
       FeedByCountry},
      {"MATCH (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang "
       "RETURN p.lang AS lang, count(*) AS replies",
       RepliesByLang},
      {"MATCH (pe:Person)-[:LIKES]->(m:Post)-[:HAS_CREATOR]->(a:Person) "
       "RETURN a.country AS country, count(*) AS likes",
       LikesByAuthorCountry},
      {"MATCH (a:Person)-[:LIKES]->(m:Post)<-[:LIKES]-(b:Person) "
       "RETURN m.lang AS lang, count(*) AS pairs",
       CoLikersByLang},
  };
  return *queries;
}

std::string CompareBag(const pgivm::Bag& actual, const OracleBag& expected) {
  for (const auto& [row, n] : expected) {
    const int64_t got = actual.Count(pgivm::Tuple(row));
    if (got != n) {
      std::ostringstream os;
      os << "row " << RowString(row) << ": view has " << got
         << ", oracle has " << n;
      return os.str();
    }
  }
  // Every oracle row matched, so any further distinct row is extra.
  if (actual.distinct_size() != expected.size()) {
    std::ostringstream os;
    os << "view has " << actual.distinct_size() << " distinct rows, oracle has "
       << expected.size();
    return os.str();
  }
  return "";
}

bool SameBag(const pgivm::Bag& a, const pgivm::Bag& b) {
  if (a.distinct_size() != b.distinct_size()) return false;
  for (const auto& [tuple, n] : a.counts()) {
    if (b.Count(tuple) != n) return false;
  }
  return true;
}

}  // namespace perfbench
