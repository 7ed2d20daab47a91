#include "workloads.h"

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "engine/query_engine.h"
#include "oracle.h"
#include "workload/snb_driver.h"
#include "workload/social_network.h"

namespace perfbench {

using pgivm::Bag;
using pgivm::EdgeId;
using pgivm::EngineMetricsSnapshot;
using pgivm::PropertyGraph;
using pgivm::QueryEngine;
using pgivm::Rng;
using pgivm::SnbDriver;
using pgivm::SnbDriverConfig;
using pgivm::SnbOp;
using pgivm::SnbOpClass;
using pgivm::SocialNetworkConfig;
using pgivm::SocialNetworkGenerator;
using pgivm::Tuple;
using pgivm::Value;
using pgivm::VertexId;
using pgivm::View;
using pgivm::ViewSnapshot;

namespace {

// SF 3 makes the friend-feed view of snb_interactive about 48k rows: large
// enough that a cost in proportion to the view, not to the change, shows.
constexpr double kScaleFactor = 3.0;

// A run replays its work on three graphs, built from three seeds derived
// from --seed, and pools the samples. How many views an update changes and
// how large they are differ from graph to graph, and one graph alone moved
// ops/s by 20% between seeds; three average that out. Each build is timed,
// and setup_s is the median of the three.
constexpr int kReplays = 3;

// Each run does a fixed amount of work, sized from --seconds by the rate
// each workload reached on a 4-core x86-64 VM, so a run takes about that
// long there. Fixed work keeps the graph's growth and the exact counts the
// same in every run of a seed, on every commit: a faster engine finishes
// sooner instead of growing the graph further.
constexpr double kSnbOpsPerSecond = 1200;
constexpr double kChurnBatchesPerSecond = 500;
constexpr double kServingUpdatesPerSecond = 10000;

constexpr size_t kComplexReadRows = 64;
// A churn batch: 16 SNB updates and 240 cancelling pairs, about 750 graph
// changes. SNB updates only grow the graph, so they are kept to one
// operation in sixteen.
constexpr int kChurnUpdates = 16;
constexpr int kChurnPairs = 240;
// The serving reader makes two reads for every update that has become
// visible: the 65:35 read/update ratio of the SNB mix.
constexpr int64_t kReadsPerUpdate = 2;

constexpr int64_t kStreamOps = 1 << 18;
// The SNB and serving operation streams are the SnbDriver stream at a
// fixed seed, replayed on every graph: their few heavy operations (a
// friend-feed render after a KNOWS commit costs ~45 ms) set a run's
// throughput, and with a per-seed stream their count alone moved ops/s by
// 20% between seeds.
constexpr uint64_t kStreamSeed = 42;
constexpr double kMiB = 1024.0 * 1024.0;

/// One populated graph with the workload's views registered. Members are
/// destroyed in reverse order: views, engine, generator, then the graph
/// they all point into.
struct Instance {
  std::unique_ptr<PropertyGraph> graph;
  std::unique_ptr<SocialNetworkGenerator> generator;
  std::unique_ptr<QueryEngine> engine;
  std::vector<std::shared_ptr<View>> views;
};

struct SetupCost {
  double populate_s = 0.0;
  double compile_s = 0.0;
  double register_s = 0.0;
};

std::unique_ptr<Instance> SetUp(const std::vector<BenchQuery>& queries,
                                uint64_t seed, SetupCost* cost,
                                std::string* error) {
  auto inst = std::make_unique<Instance>();
  inst->graph = std::make_unique<PropertyGraph>();
  inst->generator = std::make_unique<SocialNetworkGenerator>(
      SocialNetworkConfig::AtScale(kScaleFactor, seed));
  const int64_t t0 = NowNs();
  inst->generator->Populate(inst->graph.get());
  const int64_t t1 = NowNs();
  inst->engine = std::make_unique<QueryEngine>(inst->graph.get());
  for (const BenchQuery& q : queries) {
    pgivm::Result<pgivm::OpPtr> plan = inst->engine->Compile(q.cypher);
    if (!plan.ok()) {
      *error = "compile failed: " + plan.status().ToString();
      return nullptr;
    }
  }
  const int64_t t2 = NowNs();
  for (const BenchQuery& q : queries) {
    pgivm::Result<std::shared_ptr<View>> view = inst->engine->Register(q.cypher);
    if (!view.ok()) {
      *error = "register failed: " + view.status().ToString();
      return nullptr;
    }
    inst->views.push_back(*view);
  }
  const int64_t t3 = NowNs();
  cost->populate_s = static_cast<double>(t1 - t0) / 1e9;
  cost->compile_s = static_cast<double>(t2 - t1) / 1e9;
  cost->register_s = static_cast<double>(t3 - t2) / 1e9;
  return inst;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

double Mean(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return v.empty() ? 0.0 : total / static_cast<double>(v.size());
}

/// Engine totals the benchmark reads before and after a replay.
struct Counters {
  int64_t changes = 0;
  int64_t emitted = 0;
  int64_t source = 0;
  int64_t epochs = 0;
  int64_t translate_ns = 0;
  int64_t drain_ns = 0;
  int64_t ingest_mutations = 0;
  int64_t ingest_batches = 0;

  /// Adds what advanced between `start` and `end`.
  void AddDelta(const Counters& end, const Counters& start) {
    changes += end.changes - start.changes;
    emitted += end.emitted - start.emitted;
    source += end.source - start.source;
    epochs += end.epochs - start.epochs;
    translate_ns += end.translate_ns - start.translate_ns;
    drain_ns += end.drain_ns - start.drain_ns;
    ingest_mutations += end.ingest_mutations - start.ingest_mutations;
    ingest_batches += end.ingest_batches - start.ingest_batches;
  }
};

/// Writer-thread only (MetricsSnapshot walks the catalog). The translate
/// and drain times are the exact sum of the engine's propagation
/// histograms, which advance only while profiling is on.
Counters ReadCounters(const QueryEngine& engine) {
  const EngineMetricsSnapshot m = engine.MetricsSnapshot();
  Counters c;
  c.changes = m.changes_processed;
  c.emitted = m.total_emitted_entries;
  c.source = m.source_emitted_entries;
  c.epochs = m.epochs_published;
  if (const auto* h = m.FindHistogram("propagation.translate_ns")) {
    c.translate_ns = h->sum;
  }
  if (const auto* h = m.FindHistogram("propagation.drain_ns")) {
    c.drain_ns = h->sum;
  }
  c.ingest_mutations = m.ingest_mutations;
  c.ingest_batches = m.ingest_batches;
  return c;
}

/// One client thread's read samples.
class Reader {
 public:
  Reader(size_t views, Tracer* tracer)
      : last_epoch_(views, 0), tracer_(tracer) {}

  /// Pins `view` and touches up to `rows` rows from `first` on. Returns the
  /// read's latency. A Pin that meets a new epoch builds its rendering
  /// (sort + SKIP/LIMIT); later Pins of that epoch return the cached one.
  int64_t Read(const View& view, size_t index, size_t first, size_t rows,
               int64_t op) {
    const int64_t t0 = NowNs();
    std::shared_ptr<const ViewSnapshot> snap = view.Pin();
    const int64_t t1 = NowNs();
    const std::vector<Tuple>& all = snap->rows();
    for (size_t r = 0; r < rows && first + r < all.size(); ++r) {
      checksum_ += all[first + r].Hash();
    }
    const int64_t t2 = NowNs();
    tracer_->Add("engine.pin", op, t0, t1);
    const uint64_t epoch = snap->epoch();
    if (epoch != last_epoch_[index]) {
      if (epoch < last_epoch_[index]) ++epoch_regressions;
      render.push_back(t1 - t0);
    } else {
      pin_cached.push_back(t1 - t0);
    }
    last_epoch_[index] = epoch;
    return t2 - t0;
  }

  /// Takes each view's current epoch as seen, so that Pins made before
  /// the replay (or on another graph) do not count as renders.
  void Resync(const std::vector<std::shared_ptr<View>>& views) {
    for (size_t i = 0; i < views.size(); ++i) {
      last_epoch_[i] = views[i]->Pin()->epoch();
    }
  }

  uint64_t checksum() const { return checksum_; }

  std::vector<int64_t> complex_read;
  std::vector<int64_t> short_read;
  std::vector<int64_t> render;
  std::vector<int64_t> pin_cached;
  int64_t ops = 0;
  int64_t epoch_regressions = 0;

 private:
  std::vector<uint64_t> last_epoch_;
  Tracer* tracer_;
  uint64_t checksum_ = 0;
};

/// The deterministic SNB stream; weights select its mix.
std::vector<SnbOp> Stream(uint64_t seed, int complex_w, int short_w,
                          int update_w) {
  SnbDriverConfig config;
  config.seed = seed;
  config.operations = kStreamOps;
  config.complex_read_weight = complex_w;
  config.short_read_weight = short_w;
  config.update_weight = update_w;
  return SnbDriver(config).stream();
}

/// Plays one SNB read op: a complex read pages through up to 64 rows of
/// one of the first `complex_views` views, a short read looks up one row of
/// one of the views from `first_short` on.
void PlayRead(const SnbOp& op, const std::vector<std::shared_ptr<View>>& views,
              size_t complex_views, size_t first_short, int64_t op_id,
              Reader* reader) {
  if (op.op_class == SnbOpClass::kComplexRead) {
    const size_t v = op.seed % complex_views;
    reader->complex_read.push_back(
        reader->Read(*views[v], v, 0, kComplexReadRows, op_id));
  } else {
    const size_t v = first_short + op.seed % (views.size() - first_short);
    const int64_t rows = views[v]->size();
    const size_t row =
        rows > 0 ? (op.seed >> 8) % static_cast<uint64_t>(rows) : 0;
    reader->short_read.push_back(reader->Read(*views[v], v, row, 1, op_id));
  }
  ++reader->ops;
}

/// Everything a run measures, pooled over its replays.
struct Measured {
  std::vector<double> setup_s;
  std::vector<double> populate_s;
  std::vector<double> compile_ms;
  std::vector<double> register_s;
  std::vector<double> memory_mb;
  std::vector<double> evaluate_ms;
  int64_t prime_graph_entries = 0;
  int64_t prime_replayed_entries = 0;
  int64_t timed_ns = 0;
  /// Client updates (churn_batches: batches); reads count in Reader::ops.
  int64_t ops = 0;
  std::vector<int64_t> update;
  std::vector<int64_t> commit;
  std::vector<int64_t> ingest_wait;
  std::vector<int64_t> ingest_visible;
  int64_t apply_ns = 0;
  Counters run;
};

/// What one replay works on and where it records.
struct Replay {
  Instance& inst;
  /// Operations (snb_interactive), batches (churn_batches) or updates
  /// (serving_ingest) to play.
  int64_t work;
  uint64_t seed;
  /// Added to the replay's operation indices, so trace ids stay unique
  /// across the replays of a run.
  int64_t first_op;
  Measured& m;
  Reader& reader;
  Tracer& writer;
  RunOutcome& out;
};

/// Checks every view against its hand-written oracle and, with
/// `evaluate_once`, against EvaluateOnce (incremental results must equal
/// re-evaluation). Returns the EvaluateOnce time in ms.
double Checkpoint(const Instance& inst, const std::vector<BenchQuery>& queries,
                  const std::string& where, bool evaluate_once,
                  RunOutcome* out) {
  int64_t evaluate_ns = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    std::shared_ptr<const ViewSnapshot> snap = inst.views[i]->Pin();
    const std::string diff =
        CompareBag(snap->bag(), queries[i].evaluate(*inst.graph));
    if (!diff.empty()) {
      out->correct = false;
      out->notes.push_back(where + ": oracle mismatch on '" +
                           queries[i].cypher + "': " + diff);
    }
    if (!evaluate_once) continue;
    const int64_t t0 = NowNs();
    pgivm::Result<std::vector<Tuple>> once =
        inst.engine->EvaluateOnce(queries[i].cypher);
    evaluate_ns += NowNs() - t0;
    bool same = once.ok() && once->size() == snap->rows().size();
    for (size_t r = 0; same && r < once->size(); ++r) {
      same = Tuple::Compare((*once)[r], snap->rows()[r]) == 0;
    }
    if (!same) {
      out->correct = false;
      out->notes.push_back(where + ": EvaluateOnce mismatch on '" +
                           queries[i].cypher + "'");
    }
  }
  return static_cast<double>(evaluate_ns) / 1e6;
}

// ---- snb_interactive --------------------------------------------------------

void ReplaySnb(Replay& r) {
  static const std::vector<SnbOp>* stream =
      new std::vector<SnbOp>(Stream(kStreamSeed, 10, 55, 35));
  PropertyGraph& graph = *r.inst.graph;
  const int64_t begin = NowNs();
  for (int64_t i = 0; i < r.work; ++i) {
    const SnbOp& op = (*stream)[static_cast<size_t>(i) % stream->size()];
    if (op.op_class != SnbOpClass::kUpdate) {
      PlayRead(op, r.inst.views, kSnbComplexViews, kSnbComplexViews,
               r.first_op + i, &r.reader);
      continue;
    }
    // One synchronous commit per update: visible to readers when
    // CommitBatch returns.
    const int64_t t0 = NowNs();
    graph.BeginBatch();
    r.inst.generator->ApplyUpdate(&graph, op.seed);
    const int64_t t1 = NowNs();
    graph.CommitBatch();
    const int64_t t2 = NowNs();
    r.writer.Add("graph.apply", r.first_op + i, t0, t1);
    r.writer.Add("rete.commit", r.first_op + i, t1, t2);
    r.m.update.push_back(t2 - t0);
    r.m.commit.push_back(t2 - t1);
    r.m.apply_ns += t1 - t0;
    ++r.m.ops;
  }
  r.m.timed_ns += NowNs() - begin;
}

// ---- churn_batches ----------------------------------------------------------

/// Builds churn batches: SNB updates with cancelling insert/delete pairs
/// interleaved. The first half of the batch opens every pair, the second
/// half closes them, last-opened first; the SNB updates are spread evenly
/// over both halves, so each pair spans other changes.
class Churner {
 public:
  Churner(Instance* inst, uint64_t seed) : inst_(inst), rng_(seed) {}

  /// Fills the open batch; returns the number of failed graph calls.
  int64_t Fill(int updates, int pairs) {
    int64_t failed = 0;
    std::vector<Pair> open;
    const int first_half = updates / 2;
    for (int k = 0; k < pairs; ++k) {
      Open(&open, &failed);
      ApplyUpdates(k * first_half / pairs, (k + 1) * first_half / pairs);
    }
    const int second_half = updates - first_half;
    for (int k = 0; k < pairs; ++k) {
      Close(&open, &failed);
      ApplyUpdates(k * second_half / pairs, (k + 1) * second_half / pairs);
    }
    return failed;
  }

 private:
  void ApplyUpdates(int from, int to) {
    for (int i = from; i < to; ++i) {
      inst_->generator->ApplyUpdate(inst_->graph.get(), rng_.Next());
    }
  }

  enum Kind { kKnows, kReply, kLike, kCountry, kKinds };

  struct Pair {
    Kind kind;
    EdgeId edge = 0;
    VertexId vertex = 0;
    Value old;
  };

  // Pairs touch only what SNB updates never delete or rewrite (persons,
  // posts, KNOWS edges, the country property), so every close succeeds.
  void Open(std::vector<Pair>* open, int64_t* failed) {
    PropertyGraph& g = *inst_->graph;
    const std::vector<VertexId>& persons = inst_->generator->persons();
    const std::vector<VertexId>& posts = inst_->generator->posts();
    const size_t pa = rng_.NextBelow(persons.size());
    const VertexId person = persons[pa];
    const VertexId post = posts[rng_.NextBelow(posts.size())];
    Pair p;
    p.kind = static_cast<Kind>(pairs_opened_++ % kKinds);
    bool ok = true;
    switch (p.kind) {
      case kKnows: {
        const VertexId other =
            persons[(pa + 1 + rng_.NextBelow(persons.size() - 1)) %
                    persons.size()];
        pgivm::Result<EdgeId> e = g.AddEdge(person, other, "KNOWS");
        ok = e.ok();
        if (ok) p.edge = *e;
        break;
      }
      case kReply: {
        const auto& langs = SocialNetworkGenerator::Languages();
        p.vertex = g.AddVertex(
            {"Comm"},
            {{"lang", Value::String(langs[rng_.NextBelow(langs.size())])},
             {"length", Value::Int(rng_.NextInRange(5, 500))}});
        ok = g.AddEdge(post, p.vertex, "REPLY").ok() &&
             g.AddEdge(p.vertex, person, "HAS_CREATOR").ok();
        break;
      }
      case kLike: {
        pgivm::Result<EdgeId> e = g.AddEdge(person, post, "LIKES");
        ok = e.ok();
        if (ok) p.edge = *e;
        break;
      }
      case kCountry: {
        p.vertex = person;
        p.old = g.GetVertexProperty(person, "country");
        const int64_t flipped = p.old.is_int() ? (p.old.AsInt() + 1) % 20 : 0;
        ok = g.SetVertexProperty(person, "country", Value::Int(flipped)).ok();
        break;
      }
      case kKinds:
        break;
    }
    if (ok) {
      open->push_back(p);
    } else {
      ++*failed;
    }
  }

  void Close(std::vector<Pair>* open, int64_t* failed) {
    if (open->empty()) return;
    const Pair p = open->back();
    open->pop_back();
    PropertyGraph& g = *inst_->graph;
    bool ok = true;
    switch (p.kind) {
      case kKnows:
      case kLike:
        ok = g.RemoveEdge(p.edge).ok();
        break;
      case kReply:
        ok = g.DetachRemoveVertex(p.vertex).ok();
        break;
      case kCountry:
        ok = g.SetVertexProperty(p.vertex, "country", p.old).ok();
        break;
      case kKinds:
        break;
    }
    if (!ok) ++*failed;
  }

  Instance* inst_;
  Rng rng_;
  int64_t pairs_opened_ = 0;
};

/// Commits a batch of cancelling pairs only and checks that no view's bag
/// moved.
void CheckCancellingBatch(Instance* inst, Churner* churner, RunOutcome* out) {
  std::vector<std::shared_ptr<const ViewSnapshot>> before;
  for (const auto& view : inst->views) before.push_back(view->Pin());
  inst->graph->BeginBatch();
  const int64_t failed = churner->Fill(0, kChurnPairs);
  inst->graph->CommitBatch();
  for (size_t i = 0; i < before.size(); ++i) {
    if (failed != 0 || !SameBag(before[i]->bag(), inst->views[i]->Pin()->bag())) {
      out->correct = false;
      out->notes.push_back(std::string("cancelling-only batch changed '") +
                           ChurnQueries()[i].cypher + "'");
    }
  }
}

void ReplayChurn(Replay& r) {
  Churner churner(&r.inst, r.seed * 0x9e3779b97f4a7c15ULL + 7);
  Rng read_rng(r.seed + 11);
  PropertyGraph& graph = *r.inst.graph;
  const std::vector<std::shared_ptr<View>>& views = r.inst.views;
  CheckCancellingBatch(&r.inst, &churner, &r.out);
  r.reader.Resync(views);
  const int64_t begin = NowNs();
  for (int64_t i = 0; i < r.work; ++i) {
    const int64_t batch = r.first_op + i;
    const int64_t t0 = NowNs();
    graph.BeginBatch();
    r.out.failed += churner.Fill(kChurnUpdates, kChurnPairs);
    const int64_t t1 = NowNs();
    graph.CommitBatch();
    const int64_t t2 = NowNs();
    r.writer.Add("graph.apply", batch, t0, t1);
    r.writer.Add("rete.commit", batch, t1, t2);
    r.m.update.push_back(t2 - t0);
    r.m.commit.push_back(t2 - t1);
    r.m.apply_ns += t1 - t0;
    // A client reads every grouped count after the batch, then looks up
    // one group in each.
    for (size_t v = 0; v < views.size(); ++v) {
      r.reader.complex_read.push_back(
          r.reader.Read(*views[v], v, 0, kComplexReadRows, batch));
    }
    for (size_t v = 0; v < views.size(); ++v) {
      const int64_t rows = views[v]->size();
      const size_t row =
          rows > 0 ? read_rng.NextBelow(static_cast<uint64_t>(rows)) : 0;
      r.reader.short_read.push_back(r.reader.Read(*views[v], v, row, 1, batch));
    }
    r.reader.ops += 2 * static_cast<int64_t>(views.size());
  }
  r.m.timed_ns += NowNs() - begin;
  r.m.ops += r.work;
  CheckCancellingBatch(&r.inst, &churner, &r.out);
}

// ---- serving_ingest ---------------------------------------------------------

void ReplayServing(Replay& r) {
  static const std::vector<SnbOp>* updates =
      new std::vector<SnbOp>(Stream(kStreamSeed, 0, 0, 1));
  static const std::vector<SnbOp>* reads =
      new std::vector<SnbOp>(Stream(kStreamSeed + 1, 10, 55, 0));
  QueryEngine& engine = *r.inst.engine;
  SocialNetworkGenerator* generator = r.inst.generator.get();
  Reader& reader = r.reader;
  const std::vector<std::shared_ptr<View>>& views = r.inst.views;
  const int64_t total_reads = r.work * kReadsPerUpdate;

  // The reader's load follows the writer, so its reads overlap the next
  // commit and their number is fixed. A complex read scans a whole grouped
  // count, a short read looks up one group.
  std::atomic<int64_t> visible{0};
  // Read ids follow the update ids of the replay.
  const int64_t first_read = r.first_op + r.work;
  std::thread reader_thread([&reader, &views, &visible, total_reads,
                             first_read] {
    for (int64_t i = 0; i < total_reads; ++i) {
      while (visible.load(std::memory_order_acquire) * kReadsPerUpdate <= i) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      PlayRead((*reads)[static_cast<size_t>(i) % reads->size()], views,
               views.size(), 0, first_read + i, &reader);
    }
  });

  // Written by the ingest thread inside the mutation; `end` is stored last
  // with release order, so the writer's acquire load of it makes `start`
  // visible too.
  std::atomic<int64_t> mutation_start{0};
  std::atomic<int64_t> mutation_end{0};
  engine.StartIngest();
  const int64_t applied_base = engine.ingest_mutations();
  int64_t accepted = 0;
  const int64_t begin = NowNs();
  for (int64_t i = 0; i < r.work; ++i) {
    const uint64_t seed = (*updates)[static_cast<size_t>(i) % updates->size()].seed;
    mutation_end.store(0, std::memory_order_relaxed);
    const int64_t t0 = NowNs();
    const bool ok = engine.SubmitAsync(
        [generator, seed, &mutation_start, &mutation_end](PropertyGraph& g) {
          mutation_start.store(NowNs(), std::memory_order_relaxed);
          generator->ApplyUpdate(&g, seed);
          mutation_end.store(NowNs(), std::memory_order_release);
        });
    const int64_t t1 = NowNs();
    if (ok) {
      ++accepted;
      // SubmitAsync returns no ticket: the update is visible once the
      // ingest thread has counted it, which it does after CommitBatch.
      while (mutation_end.load(std::memory_order_acquire) == 0 ||
             engine.ingest_mutations() < applied_base + accepted) {
        std::this_thread::yield();
      }
      const int64_t t2 = NowNs();
      const int64_t began = mutation_start.load(std::memory_order_relaxed);
      const int64_t ended = mutation_end.load(std::memory_order_relaxed);
      const int64_t id = r.first_op + i;
      r.writer.Add("engine.submit", id, t0, t1);
      r.writer.Add("engine.ingest_wait", id, t1, began);
      r.writer.Add("graph.apply", id, began, ended);
      r.writer.Add("rete.commit", id, ended, t2);
      r.m.update.push_back(t2 - t0);
      r.m.ingest_wait.push_back(began - t0);
      r.m.ingest_visible.push_back(t2 - ended);
      r.m.commit.push_back(t2 - ended);
      r.m.apply_ns += ended - began;
    } else {
      ++r.out.failed;
    }
    visible.fetch_add(1, std::memory_order_release);
  }
  reader_thread.join();
  r.m.timed_ns += NowNs() - begin;
  engine.StopIngest();
  const int64_t applied = engine.ingest_mutations() - applied_base;
  if (applied != accepted) {
    r.out.correct = false;
    r.out.notes.push_back("ingest applied " + std::to_string(applied) +
                          " of " + std::to_string(accepted) +
                          " submitted mutations");
  }
  r.m.ops += r.work;
}

struct Workload {
  const char* name;
  const std::vector<BenchQuery>& (*queries)();
  double work_per_second;
  void (*replay)(Replay&);
  /// Whether reads come from a reader thread of their own.
  bool reader_thread;
};

const std::vector<Workload>& Workloads() {
  static const auto* workloads = new std::vector<Workload>{
      {"snb_interactive", SnbQueries, kSnbOpsPerSecond, ReplaySnb, false},
      {"churn_batches", ChurnQueries, kChurnBatchesPerSecond, ReplayChurn,
       false},
      {"serving_ingest", ChurnQueries, kServingUpdatesPerSecond,
       ReplayServing, true},
  };
  return *workloads;
}

void Report(const Measured& m, const Reader& reads, const Tracer& writer,
            RunOutcome* out) {
  auto us = [](double ns) { return ns / 1e3; };
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  const double timed_s = static_cast<double>(m.timed_ns) / 1e9;
  const double ops_per_s =
      static_cast<double>(m.ops + reads.ops) / timed_s;

  out->end_to_end = {
      {"setup_s", Median(m.setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
      {"ops_per_s", ops_per_s, "1/s"},
      {"changes_per_s", static_cast<double>(m.run.changes) / timed_s, "1/s"},
      {"update_p50_us", us(Percentile(m.update, 0.50)), "us"},
      {"update_p99_us", us(Percentile(m.update, 0.99)), "us"},
      {"complex_read_p50_us", us(Percentile(reads.complex_read, 0.50)), "us"},
      {"complex_read_p99_us", us(Percentile(reads.complex_read, 0.99)), "us"},
      {"short_read_p50_us", us(Percentile(reads.short_read, 0.50)), "us"},
  };

  // One commit per update sample (churn_batches: per batch).
  const double commits =
      static_cast<double>(std::max<size_t>(1, m.update.size()));
  const double changes = static_cast<double>(std::max<int64_t>(1, m.run.changes));
  const double translate_us = us(static_cast<double>(m.run.translate_ns)) / commits;
  const double drain_us = us(static_cast<double>(m.run.drain_ns)) / commits;
  const double ingest_batches = static_cast<double>(m.run.ingest_batches);
  out->per_layer = {
      {"graph.populate_s", Median(m.populate_s), "s"},
      {"graph.apply_us_per_change", us(static_cast<double>(m.apply_ns)) / changes,
       "us"},
      {"algebra.compile_ms", Median(m.compile_ms), "ms"},
      {"catalog.register_s", Median(m.register_s), "s"},
      {"catalog.prime_graph_entries",
       static_cast<double>(m.prime_graph_entries) / kReplays, "count"},
      {"catalog.prime_replayed_entries",
       static_cast<double>(m.prime_replayed_entries) / kReplays, "count"},
      {"catalog.memory_mb", Mean(m.memory_mb), "MiB"},
      {"rete.commit_p50_us", us(Percentile(m.commit, 0.50)), "us"},
      {"rete.translate_us_per_commit", translate_us, "us"},
      {"rete.drain_us_per_commit", drain_us, "us"},
      {"rete.emitted_entries_per_change",
       static_cast<double>(m.run.emitted) / changes, "count"},
      {"rete.source_entries_per_change",
       static_cast<double>(m.run.source) / changes, "count"},
      {"engine.publish_us_per_commit",
       us(Sum(m.commit)) / commits - translate_us - drain_us, "us"},
      {"engine.epochs_published_per_commit",
       static_cast<double>(m.run.epochs) / commits, "count"},
      {"engine.render_p50_us", us(Percentile(reads.render, 0.50)), "us"},
      {"engine.render_p99_us", us(Percentile(reads.render, 0.99)), "us"},
      {"engine.pin_cached_p50_ns", Percentile(reads.pin_cached, 0.50), "ns"},
      {"engine.ingest_wait_p50_us", us(Percentile(m.ingest_wait, 0.50)), "us"},
      {"engine.ingest_visible_p50_us", us(Percentile(m.ingest_visible, 0.50)),
       "us"},
      {"engine.ingest_mutations_per_batch",
       ingest_batches > 0
           ? static_cast<double>(m.run.ingest_mutations) / ingest_batches
           : 0.0,
       "count"},
      {"baseline.evaluate_ms", Mean(m.evaluate_ms), "ms"},
      {"trace.layer_share",
       static_cast<double>(writer.covered_ns()) / static_cast<double>(m.timed_ns),
       "ratio"},
      {"trace.ops_per_s", ops_per_s, "1/s"},
  };

  char line[256];
  std::snprintf(line, sizeof(line),
                "samples: updates=%zu complex_reads=%zu "
                "short_reads=%zu renders=%zu timed_s=%.3f checksum=%llu",
                m.update.size(),
                reads.complex_read.size(), reads.short_read.size(),
                reads.render.size(), timed_s,
                static_cast<unsigned long long>(reads.checksum()));
  out->notes.push_back(line);
}

}  // namespace

RunOutcome RunWorkload(const RunConfig& config) {
  RunOutcome out;
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (config.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    out.correct = false;
    out.notes.push_back("unknown workload " + config.workload);
    return out;
  }
  const std::vector<BenchQuery>& queries = workload->queries();
  const int64_t work = std::max<int64_t>(
      1, std::llround(config.seconds * workload->work_per_second / kReplays));
  Measured m;
  Tracer writer(config.trace, 1);
  Tracer reader_tracer(config.trace, 2);
  Reader reader(queries.size(), workload->reader_thread ? &reader_tracer : &writer);
  for (int rep = 0; rep < kReplays; ++rep) {
    const uint64_t seed = config.seed * kReplays + static_cast<uint64_t>(rep);
    SetupCost cost;
    std::string error;
    std::unique_ptr<Instance> inst = SetUp(queries, seed, &cost, &error);
    if (inst == nullptr) {
      out.correct = false;
      out.notes.push_back(error);
      return out;
    }
    m.setup_s.push_back(cost.populate_s + cost.register_s);
    m.populate_s.push_back(cost.populate_s);
    m.compile_ms.push_back(cost.compile_s * 1e3);
    m.register_s.push_back(cost.register_s);
    QueryEngine& engine = *inst->engine;
    const EngineMetricsSnapshot primed = engine.MetricsSnapshot();
    m.prime_graph_entries += primed.catalog.graph_primed_entries;
    m.prime_replayed_entries += primed.catalog.replayed_entries;
    std::string rows = "graph seed " + std::to_string(seed) + ": " +
                       pgivm::ExecutorKindName(inst->views[0]->executor()) +
                       " executor, " +
                       (inst->graph->storage_options().typed_columns
                            ? "typed-column"
                            : "row") +
                       " storage, view rows";
    for (const auto& view : inst->views) rows += " " + std::to_string(view->size());
    out.notes.push_back(rows);

    reader.Resync(inst->views);
    engine.set_profiling(config.trace);
    const Counters start = ReadCounters(engine);
    Replay replay{*inst, work, seed, int64_t{rep} << 32, m, reader, writer,
                  out};
    workload->replay(replay);
    m.run.AddDelta(ReadCounters(engine), start);
    engine.set_profiling(false);
    m.memory_mb.push_back(
        static_cast<double>(engine.MetricsSnapshot().catalog.memory_bytes) / kMiB);
    // EvaluateOnce of the six SNB views takes ~3 s at SF 3, so only the
    // last replay is re-evaluated; the oracle checks every replay.
    const bool last = rep == kReplays - 1;
    const double evaluate_ms = Checkpoint(
        *inst, queries, "after replay on graph seed " + std::to_string(seed),
        last, &out);
    if (last) m.evaluate_ms.push_back(evaluate_ms);
  }
  out.attempted = m.ops + reader.ops;
  if (reader.epoch_regressions != 0) {
    out.correct = false;
    out.notes.push_back("a reader saw pinned epochs go backwards " +
                        std::to_string(reader.epoch_regressions) + " times");
  }
  if (config.trace &&
      !Tracer::Write(config.trace_path, {&writer, &reader_tracer})) {
    out.notes.push_back("could not write trace to " + config.trace_path);
  }
  Report(m, reader, writer, &out);
  return out;
}

std::string OracleSelfTest() {
  PropertyGraph graph;
  SocialNetworkGenerator generator(SocialNetworkConfig::AtScale(0.05, 7));
  generator.Populate(&graph);
  // Population gives a post at most one like; updates add co-liked posts.
  for (int i = 0; i < 2000; ++i) generator.ApplyRandomUpdate(&graph);
  QueryEngine engine(&graph);
  for (const BenchQuery& q : {SnbQueries()[0], ChurnQueries()[3]}) {
    pgivm::Result<std::shared_ptr<View>> view = engine.Register(q.cypher);
    if (!view.ok()) return view.status().ToString();
    const Bag bag = (*view)->Pin()->bag();
    const OracleBag expected = q.evaluate(graph);
    if (bag.counts().empty()) return std::string("empty view: ") + q.cypher;
    if (!CompareBag(bag, expected).empty()) {
      return "check rejects a correct bag: " + CompareBag(bag, expected);
    }
    const Tuple row = bag.counts().begin()->first;
    Bag dropped = bag;
    dropped.Apply(row, -bag.Count(row));
    if (CompareBag(dropped, expected).empty()) {
      return std::string("check accepts a bag with a row dropped: ") + q.cypher;
    }
    Bag recounted = bag;
    recounted.Apply(row, 1);
    if (CompareBag(recounted, expected).empty()) {
      return std::string("check accepts a changed multiplicity: ") + q.cypher;
    }
  }
  return "";
}

}  // namespace perfbench
