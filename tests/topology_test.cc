// Tests for the live-topology layer: dynamic sharded persistence (save
// through a static snapshot, fault sweep over the multi-file save), the TopologyManager
// hot-swap pipeline (validation, canaries, rollback, RCU swap under
// concurrent query load), the offline reshard (differential against the
// source and against a fresh build), the reload wire op end to end, and
// the clean refusal of other wire protocol versions.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/persist.h"
#include "src/obs/exposition.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/server/sharded_collection.h"
#include "src/server/socket.h"
#include "src/server/topology.h"
#include "src/util/coding.h"
#include "src/util/env.h"
#include "tests/test_util.h"

namespace xseq {
namespace {

using ::xseq::testing::MakeDoc;
using ::xseq::testing::MakeIndex;

std::vector<std::string> CorpusA() {
  std::vector<std::string> specs;
  for (int i = 0; i < 40; ++i) {
    switch (i % 4) {
      case 0: specs.push_back("a(b('v1'),c(d('v2')))"); break;
      case 1: specs.push_back("a(c(b('v1')),e('v3'))"); break;
      case 2: specs.push_back("a(b('v2'),b('v1'))"); break;
      case 3: specs.push_back("r(a(b('v1')),a(c('v4')))"); break;
    }
  }
  return specs;
}

// Deliberately different answer sets from CorpusA for every query below.
std::vector<std::string> CorpusB() {
  std::vector<std::string> specs;
  for (int i = 0; i < 30; ++i) {
    switch (i % 3) {
      case 0: specs.push_back("a(c(d(b('v5'))))"); break;
      case 1: specs.push_back("a(b('v2'))"); break;
      case 2: specs.push_back("r(c('v4'))"); break;
    }
  }
  return specs;
}

std::vector<std::string> Workload() {
  return {"/a/b",   "/a//b",    "//b[text='v1']", "/a/c/d",
          "/a/*/b", "/r//c",    "//nosuch",       "//b[. >= 'v2']",
          "/a/c/d[. < 'v3']"};
}

ShardedCollection BuildSharded(const std::vector<std::string>& specs,
                               int shards, bool dynamic,
                               ValueMode mode = ValueMode::kExact) {
  ShardedOptions opts;
  opts.shards = shards;
  opts.dynamic = dynamic;
  opts.flush_threshold = 8;  // force multi-segment dynamic shards
  opts.index.value_mode = mode;
  ShardedCollection col(opts);
  for (DocId id = 0; id < specs.size(); ++id) {
    size_t s = col.ShardOf(id);
    Document doc = MakeDoc(specs[id], col.names(s), col.values(s), id);
    EXPECT_TRUE(col.Add(std::move(doc)).ok());
  }
  EXPECT_TRUE(col.Seal().ok());
  return col;
}

std::vector<std::vector<DocId>> Answers(const ShardedCollection& col) {
  std::vector<std::vector<DocId>> out;
  for (const std::string& q : Workload()) {
    auto r = col.Query(q);
    EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    out.push_back(r.ok() ? r->docs : std::vector<DocId>());
  }
  return out;
}

std::string TempPrefix(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Dynamic sharded persistence: the live documents saved as a static
// collection.

TEST(DynamicShardedSaveTest, SaveLoadRoundTripMatchesSource) {
  ShardedCollection dynamic = BuildSharded(CorpusA(), 3, /*dynamic=*/true);
  ASSERT_GT(dynamic.total_documents(), 0u);
  const std::string prefix = TempPrefix("xseq_dyn_save");
  ASSERT_TRUE(dynamic.Save(prefix).ok());

  auto loaded = ShardedCollection::Load(prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->options().dynamic);  // what comes back is static
  EXPECT_EQ(loaded->shard_count(), 3u);
  EXPECT_EQ(loaded->total_documents(), dynamic.total_documents());
  EXPECT_EQ(Answers(*loaded), Answers(dynamic));
}

TEST(DynamicShardedSaveTest, SaveIsRepeatableAfterMoreAdds) {
  ShardedOptions opts;
  opts.shards = 2;
  opts.dynamic = true;
  opts.flush_threshold = 4;
  ShardedCollection col(opts);
  const std::vector<std::string> specs = CorpusA();
  for (DocId id = 0; id < 20; ++id) {
    size_t s = col.ShardOf(id);
    ASSERT_TRUE(
        col.Add(MakeDoc(specs[id], col.names(s), col.values(s), id)).ok());
  }
  const std::string prefix = TempPrefix("xseq_dyn_resave");
  ASSERT_TRUE(col.Save(prefix).ok());
  auto first = ShardedCollection::Load(prefix);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->total_documents(), 20u);

  // Keep appending after a save; the next save reflects the larger state.
  for (DocId id = 20; id < 40; ++id) {
    size_t s = col.ShardOf(id);
    ASSERT_TRUE(
        col.Add(MakeDoc(specs[id], col.names(s), col.values(s), id)).ok());
  }
  ASSERT_TRUE(col.Save(prefix).ok());
  auto second = ShardedCollection::Load(prefix);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->total_documents(), 40u);
  EXPECT_EQ(Answers(*second), Answers(col));
}

TEST(DynamicShardedSaveTest, RefusesAValueWithoutItsText) {
  // The save moves values into one vocabulary by their text, so a value
  // node built from its id alone is refused, not guessed at.
  ShardedOptions opts;
  opts.shards = 2;
  opts.dynamic = true;
  ShardedCollection col(opts);
  const size_t s = col.ShardOf(7);
  Document doc(7);
  Node* a = doc.CreateElement(col.names(s)->Intern("a"));
  doc.SetRoot(a);
  doc.AppendChild(a, doc.CreateValue(col.values(s)->Encode("v1")));
  ASSERT_TRUE(col.Add(std::move(doc)).ok());
  const Status st = col.Save(TempPrefix("xseq_dyn_textless"));
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

// Fault sweep over the whole multi-file save (every shard image plus the
// manifest, which includes the manifest's own write/rename/sync ops): a
// save interrupted at ANY single operation leaves the prefix either
// unloadable (fresh target; the manifest never landed) or fully loadable
// with the complete answer set — never a torn, partially-visible state.
TEST(DynamicShardedSaveTest, FaultSweepNeverPublishesATornCollection) {
  ShardedCollection source = BuildSharded(CorpusA(), 2, /*dynamic=*/true);
  const std::vector<std::vector<DocId>> expect = Answers(source);
  const std::string prefix = TempPrefix("xseq_dyn_fault");

  // Baseline clean save to learn the op count of the whole sequence.
  Env* real = Env::Default();
  for (size_t s = 0; s < 2; ++s) (void)real->RemoveFile(ShardImagePath(prefix, s));
  (void)real->RemoveFile(prefix);
  FaultInjectionEnv counter(real);
  PersistOptions once;
  once.env = &counter;
  once.max_attempts = 1;
  ASSERT_TRUE(source.Save(prefix, once).ok());
  const uint64_t total_ops = counter.ops_seen();
  ASSERT_GE(total_ops, 18u);  // >= 3 files x (open,append,sync,close,rename,dirsync)

  for (uint64_t k = 0; k < total_ops; ++k) {
    // Fresh target per sweep point: discovery must be all-or-nothing.
    for (size_t s = 0; s < 2; ++s) {
      (void)real->RemoveFile(ShardImagePath(prefix, s));
    }
    (void)real->RemoveFile(prefix);

    FaultInjectionEnv fenv(real);
    fenv.FailOperation(k);
    PersistOptions opts;
    opts.env = &fenv;
    opts.max_attempts = 1;
    Status st = source.Save(prefix, opts);
    EXPECT_FALSE(st.ok()) << "fault at op " << k << " was swallowed";

    auto loaded = ShardedCollection::Load(prefix);
    if (loaded.ok()) {
      // Only the post-commit faults (manifest rename landed, a trailing
      // sync failed) may leave a discoverable collection — and then it
      // must be the complete one.
      EXPECT_EQ(loaded->total_documents(), source.total_documents())
          << "fault at op " << k;
      EXPECT_EQ(Answers(*loaded), expect) << "fault at op " << k;
    }

    // The fault was one-shot: a retry on the same prefix must succeed.
    Status retry = source.Save(prefix, opts);
    ASSERT_TRUE(retry.ok()) << "retry after op-" << k
                            << " fault: " << retry.ToString();
    auto after = ShardedCollection::Load(prefix);
    ASSERT_TRUE(after.ok()) << "after op-" << k;
    EXPECT_EQ(Answers(*after), expect) << "after op-" << k;
  }
}

TEST(ShardedManifestTest, ReadValidatesMagicChecksumAndPlausibility) {
  ShardedCollection col = BuildSharded(CorpusA(), 2, /*dynamic=*/false);
  const std::string prefix = TempPrefix("xseq_manifest");
  ASSERT_TRUE(col.Save(prefix).ok());

  auto manifest = ReadShardedManifest(prefix);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->shard_count, 2u);
  EXPECT_EQ(manifest->total_documents, col.total_documents());

  // A flipped byte anywhere in the manifest is caught by the checksum.
  std::string bytes;
  ASSERT_TRUE(Env::Default()->ReadFileToString(prefix, &bytes).ok());
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0x20);
    const std::string bad_path = prefix + ".bad";
    ASSERT_TRUE(AtomicWriteFile(Env::Default(), bad_path, bad).ok());
    auto r = ReadShardedManifest(bad_path);
    EXPECT_FALSE(r.ok()) << "flip at byte " << i;
  }
  EXPECT_FALSE(ReadShardedManifest(prefix + ".nosuch").ok());
}

// ---------------------------------------------------------------------------
// TopologyManager: reload pipeline, canaries, rollback.

struct SavedGeneration {
  std::string prefix;
  std::vector<std::vector<DocId>> answers;
};

SavedGeneration SaveGeneration(const std::vector<std::string>& specs,
                               const std::string& name, int shards) {
  ShardedCollection col = BuildSharded(specs, shards, /*dynamic=*/false);
  SavedGeneration gen;
  gen.prefix = TempPrefix(name);
  EXPECT_TRUE(col.Save(gen.prefix).ok());
  gen.answers = Answers(col);
  return gen;
}

TEST(TopologyManagerTest, ReloadSwapsAndFailuresRollBack) {
  SavedGeneration a = SaveGeneration(CorpusA(), "xseq_topo_a", 2);
  SavedGeneration b = SaveGeneration(CorpusB(), "xseq_topo_b", 3);
  ASSERT_NE(a.answers, b.answers);

  TopologyManager topo;
  EXPECT_EQ(topo.generation(), 0u);
  EXPECT_EQ(topo.Current(), nullptr);
  EXPECT_EQ(topo.Query("/a/b").status().code(),
            StatusCode::kFailedPrecondition);
  // No prefix, nothing to re-read.
  EXPECT_EQ(topo.Reload("").status().code(), StatusCode::kInvalidArgument);

  auto gen1 = topo.Reload(a.prefix);
  ASSERT_TRUE(gen1.ok()) << gen1.status().ToString();
  EXPECT_EQ(topo.epoch(), 1u);
  EXPECT_EQ(topo.generation(), *gen1);
  EXPECT_EQ(topo.prefix(), a.prefix);
  EXPECT_EQ(Answers(*topo.Current()), a.answers);

  auto gen2 = topo.Reload(b.prefix);
  ASSERT_TRUE(gen2.ok());
  EXPECT_GT(*gen2, *gen1);  // the epoch in the high bits strictly grows
  EXPECT_EQ(topo.epoch(), 2u);
  EXPECT_EQ(Answers(*topo.Current()), b.answers);

  // A missing image rolls back: still serving b.
  EXPECT_FALSE(topo.Reload(TempPrefix("xseq_topo_nosuch")).ok());
  EXPECT_EQ(topo.epoch(), 2u);
  EXPECT_EQ(topo.prefix(), b.prefix);
  EXPECT_EQ(Answers(*topo.Current()), b.answers);

  // An image with a corrupt shard is rejected by offline validation, and
  // the error names the shard. Copy a's images, then flip one byte in the
  // middle of shard 1.
  const std::string corrupt = TempPrefix("xseq_topo_corrupt");
  Env* env = Env::Default();
  for (size_t s = 0; s < 2; ++s) {
    std::string data;
    ASSERT_TRUE(
        env->ReadFileToString(ShardImagePath(a.prefix, s), &data).ok());
    if (s == 1) data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x01);
    ASSERT_TRUE(AtomicWriteFile(env, ShardImagePath(corrupt, s), data).ok());
  }
  std::string manifest_bytes;
  ASSERT_TRUE(env->ReadFileToString(a.prefix, &manifest_bytes).ok());
  ASSERT_TRUE(AtomicWriteFile(env, corrupt, manifest_bytes).ok());

  auto rejected = topo.Reload(corrupt);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("shard 1"), std::string::npos)
      << rejected.status().ToString();
  EXPECT_EQ(topo.epoch(), 2u);
  EXPECT_EQ(Answers(*topo.Current()), b.answers);  // rollback: b serves on
}

// Pulls the current value of gauge `series` out of a Prometheus text dump;
// -1 when the series is absent.
int64_t PrometheusGauge(const std::string& text, const std::string& series) {
  const std::string needle = "\n" + series + " ";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) return -1;
  return std::stoll(text.substr(pos + needle.size()));
}

TEST(TopologyManagerTest, ExportsStayCoherentAcrossConcurrentReloads) {
  obs::ScopedMetricsEnabled on(true);
  SavedGeneration a = SaveGeneration(CorpusA(), "xseq_topo_obs_a", 2);
  SavedGeneration b = SaveGeneration(CorpusB(), "xseq_topo_obs_b", 3);

  TopologyManager topo;
  ASSERT_TRUE(topo.Reload(a.prefix).ok());
  const uint64_t reloads_before =
      obs::MetricsRegistry::Default()->GetCounter("xseq.topology.reloads")
          ->value();

  std::atomic<bool> stop{false};
  std::atomic<bool> epoch_regressed{false};
  std::atomic<int64_t> epoch_seen{0};

  // Scraper threads: the Prometheus dump must always carry the epoch
  // gauge, and the value may only ever grow while reloads are in flight.
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 2; ++t) {
    scrapers.emplace_back([&] {
      // Scrapes within one thread are ordered, so each must observe an
      // epoch no smaller than its previous read — the gauge only climbs.
      int64_t last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string text = obs::PrometheusDefaultDump();
        const int64_t e = PrometheusGauge(text, "xseq_topology_epoch");
        if (e < 0 || e < last) {
          epoch_regressed.store(true);
          return;
        }
        last = e;
        int64_t prev = epoch_seen.load(std::memory_order_relaxed);
        while (e > prev && !epoch_seen.compare_exchange_weak(prev, e)) {
        }
      }
    });
  }

  // A traced query load races with the swaps; exports must stay coherent.
  obs::Tracer tracer(4);
  std::thread querier([&] {
    ExecOptions opts;
    opts.tracer = &tracer;
    while (!stop.load(std::memory_order_relaxed)) {
      for (const std::string& q : Workload()) {
        auto r = topo.Query(q, opts);
        EXPECT_TRUE(r.ok()) << q;
      }
      const std::string json = tracer.ExportChromeJson();
      EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    }
  });

  // Swap back and forth; each successful reload bumps the epoch.
  const int kSwaps = 6;
  for (int i = 0; i < kSwaps; ++i) {
    auto gen = topo.Reload(i % 2 == 0 ? b.prefix : a.prefix);
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    EXPECT_EQ(topo.epoch(), static_cast<uint64_t>(i) + 2);
  }
  // Keep the exporters and the traced load running until both have
  // demonstrably observed the post-swap world: the swaps above can finish
  // before either thread gets scheduled.
  while (!epoch_regressed.load() &&
         (epoch_seen.load() < static_cast<int64_t>(topo.epoch()) ||
          tracer.total_recorded() == 0)) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& s : scrapers) s.join();
  querier.join();

  EXPECT_FALSE(epoch_regressed.load());
  // The gauge settled on the final epoch and the reload counter accounted
  // for every swap.
  EXPECT_EQ(PrometheusGauge(obs::PrometheusDefaultDump(),
                            "xseq_topology_epoch"),
            static_cast<int64_t>(topo.epoch()));
  EXPECT_EQ(obs::MetricsRegistry::Default()
                ->GetCounter("xseq.topology.reloads")
                ->value(),
            reloads_before + kSwaps);
  EXPECT_GT(tracer.total_recorded(), 0u);
}

TEST(TopologyManagerTest, CanariesGateTheSwap) {
  SavedGeneration a = SaveGeneration(CorpusA(), "xseq_canary_a", 2);

  // Learn the true answer size of one canary query against image a.
  auto probe = ShardedCollection::Load(a.prefix);
  ASSERT_TRUE(probe.ok());
  const size_t true_docs = probe->Query("/a/b")->docs.size();
  ASSERT_GT(true_docs, 0u);

  // Canary demanding the truth: the swap goes through.
  TopologyOptions good;
  good.canaries.push_back({"/a/b", static_cast<int64_t>(true_docs)});
  good.canaries.push_back({"//b[text='v1']", -1});  // just has to run
  TopologyManager accepts(good);
  EXPECT_TRUE(accepts.Reload(a.prefix).ok());

  // Canary pinned to a wrong size: rejected, nothing installed.
  TopologyOptions wrong;
  wrong.canaries.push_back({"/a/b", static_cast<int64_t>(true_docs + 7)});
  TopologyManager rejects(wrong);
  auto r = rejects.Reload(a.prefix);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(r.status().message().find("canary"), std::string::npos);
  EXPECT_EQ(rejects.Current(), nullptr);

  // A canary that cannot even parse: rejected too.
  TopologyOptions broken;
  broken.canaries.push_back({"][", -1});
  TopologyManager parse_reject(broken);
  EXPECT_FALSE(parse_reject.Reload(a.prefix).ok());
  EXPECT_EQ(parse_reject.Current(), nullptr);
}

// The acceptance scenario: >= 10 generation swaps under concurrent query
// load, one deliberately corrupt image in the middle (canary/validation
// rollback), zero failed and zero stale answers. Every observed answer is
// differentially checked against the generation it claims to come from.
TEST(TopologyManagerTest, HotSwapUnderLoadServesExactAnswers) {
  SavedGeneration gens[2] = {SaveGeneration(CorpusA(), "xseq_swap_a", 2),
                             SaveGeneration(CorpusB(), "xseq_swap_b", 2)};
  ASSERT_NE(gens[0].answers, gens[1].answers);

  // Corrupt copy of generation a, used mid-test to prove rollback.
  const std::string corrupt = TempPrefix("xseq_swap_corrupt");
  {
    Env* env = Env::Default();
    for (size_t s = 0; s < 2; ++s) {
      std::string data;
      ASSERT_TRUE(
          env->ReadFileToString(ShardImagePath(gens[0].prefix, s), &data)
              .ok());
      if (s == 0) data[data.size() / 3] ^= 0x40;
      ASSERT_TRUE(AtomicWriteFile(env, ShardImagePath(corrupt, s), data).ok());
    }
    std::string m;
    ASSERT_TRUE(env->ReadFileToString(gens[0].prefix, &m).ok());
    ASSERT_TRUE(AtomicWriteFile(env, corrupt, m).ok());
  }

  TopologyOptions options;
  options.canaries.push_back({"/a/b", -1});
  TopologyManager topo(options);
  ASSERT_TRUE(topo.Reload(gens[0].prefix).ok());

  // epoch -> which image that epoch serves (0 = a, 1 = b). Epoch 1 is the
  // initial install of a.
  std::mutex map_mu;
  std::map<uint64_t, int> epoch_image = {{1, 0}};

  std::atomic<bool> done{false};
  std::atomic<uint64_t> failed_answers{0}, stale_answers{0}, checked{0};
  std::atomic<uint64_t> completed{0};  ///< reader iterations, fast or slow

  const std::vector<std::string> workload = Workload();
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!done.load(std::memory_order_relaxed)) {
        const std::string& q = workload[i++ % workload.size()];
        const size_t qi = (i - 1) % workload.size();
        const uint64_t epoch_before = topo.epoch();
        auto r = topo.Query(q);
        const uint64_t epoch_after = topo.epoch();
        ++completed;  // every iteration, pass or fail: paces the swapper
        if (!r.ok()) {
          ++failed_answers;
          continue;
        }
        // Any answer must be exactly one generation's answer — never a
        // blend. When no swap raced the query, it must be exactly the
        // epoch's own generation's answer.
        const bool is_a = r->docs == gens[0].answers[qi];
        const bool is_b = r->docs == gens[1].answers[qi];
        if (!is_a && !is_b) {
          ++stale_answers;
          continue;
        }
        if (epoch_before == epoch_after) {
          int image;
          {
            std::lock_guard<std::mutex> lock(map_mu);
            auto it = epoch_image.find(epoch_before);
            image = it != epoch_image.end() ? it->second : -1;
          }
          if (image >= 0 && r->docs != gens[image].answers[qi]) {
            ++stale_answers;
            continue;
          }
        }
        ++checked;
      }
    });
  }

  // Each swap round waits for reader progress first, so queries genuinely
  // overlap every generation (a free-running swapper can finish all its
  // rounds before a reader completes one query).
  auto await_reader_progress = [&] {
    const uint64_t target = completed.load() + 8;
    while (completed.load() < target) std::this_thread::yield();
  };

  int swaps = 0;
  for (int round = 0; round < 12; ++round) {
    await_reader_progress();
    if (round == 5) {
      // The poisoned image: reload must fail, serving must continue on
      // whatever was live — readers keep passing their checks throughout.
      auto rejected = topo.Reload(corrupt);
      ASSERT_FALSE(rejected.ok());
      continue;
    }
    const int image = round % 2 == 0 ? 1 : 0;  // started on a: alternate
    auto gen = topo.Reload(gens[image].prefix);
    ASSERT_TRUE(gen.ok()) << round << ": " << gen.status().ToString();
    {
      std::lock_guard<std::mutex> lock(map_mu);
      epoch_image[topo.epoch()] = image;
    }
    ++swaps;
  }
  done.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_GE(swaps, 10);
  EXPECT_EQ(failed_answers.load(), 0u);
  EXPECT_EQ(stale_answers.load(), 0u);
  EXPECT_GT(checked.load(), 0u);
}

// ---------------------------------------------------------------------------
// Reload over the wire.

TEST(ReloadWireTest, ClientReloadSwapsTheServingGeneration) {
  SavedGeneration a = SaveGeneration(CorpusA(), "xseq_wire_a", 2);
  SavedGeneration b = SaveGeneration(CorpusB(), "xseq_wire_b", 2);

  TopologyManager topo;
  ASSERT_TRUE(topo.Reload(a.prefix).ok());

  MemorySocketEnv env;
  ServerOptions options;
  options.host = "mem";
  options.socket_env = &env;
  options.reload_handler = [&topo](const std::string& path) {
    return topo.Reload(path.empty() ? topo.prefix() : path);
  };
  XseqServer server(
      [&topo](std::string_view xpath, const ExecOptions& opts) {
        return topo.Query(xpath, opts);
      },
      options);
  ASSERT_TRUE(server.Start().ok());

  auto client = XseqClient::Connect("mem", server.port(), &env);
  ASSERT_TRUE(client.ok());

  const std::vector<std::string> workload = Workload();
  auto before = client->Query(workload[0]);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->docs, a.answers[0]);

  auto gen = client->Reload(b.prefix);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_EQ(*gen, topo.generation());
  for (size_t i = 0; i < workload.size(); ++i) {
    auto r = client->Query(workload[i]);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->docs, b.answers[i]) << workload[i];
  }

  // Empty path re-reads the current prefix (b): another swap, same answers.
  auto again = client->Reload("");
  ASSERT_TRUE(again.ok());
  EXPECT_GT(*again, *gen);

  // A bad image comes back as the server's error; the connection and the
  // old generation both survive.
  auto bad = client->Reload(TempPrefix("xseq_wire_nosuch"));
  EXPECT_FALSE(bad.ok());
  auto still = client->Query(workload[0]);
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still->docs, b.answers[0]);
  server.Stop();
}

TEST(ReloadWireTest, ServerWithoutHandlerAnswersUnimplemented) {
  CollectionIndex idx = MakeIndex(CorpusA());
  MemorySocketEnv env;
  ServerOptions options;
  options.host = "mem";
  options.socket_env = &env;
  XseqServer server(
      [&idx](std::string_view xpath, const ExecOptions& opts) {
        return idx.Query(xpath, opts);
      },
      options);
  ASSERT_TRUE(server.Start().ok());
  auto client = XseqClient::Connect("mem", server.port(), &env);
  ASSERT_TRUE(client.ok());
  auto r = client->Reload("/tmp/whatever");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented);
  EXPECT_TRUE(client->Ping().ok());  // the connection survives
  server.Stop();
}

// ---------------------------------------------------------------------------
// Protocol version mismatch.

TEST(ProtocolVersionTest, MismatchNamesBothVersionsCleanly) {
  // Hand-build a ping request body at every other version the protocol
  // has had, and a future one: version byte, op byte, u64 id.
  for (uint8_t old_version :
       {uint8_t{1}, uint8_t{2}, uint8_t{3}, uint8_t{4}, uint8_t{9}}) {
    std::string body;
    body.push_back(static_cast<char>(old_version));
    body.push_back(static_cast<char>(WireOp::kPing));
    PutFixed64(&body, 7);
    WireRequest req;
    Status st = DecodeRequestBody(body, &req);
    ASSERT_FALSE(st.ok());
    // A clean version-mismatch status naming both ends — not a checksum
    // error, not corruption.
    EXPECT_EQ(st.code(), StatusCode::kUnimplemented) << int{old_version};
    EXPECT_NE(st.message().find(std::to_string(old_version)),
              std::string::npos)
        << st.ToString();
    EXPECT_NE(st.message().find(std::to_string(kWireVersion)),
              std::string::npos)
        << st.ToString();

    WireResponse resp;
    Status rt = DecodeResponseBody(body, &resp);
    EXPECT_EQ(rt.code(), StatusCode::kUnimplemented) << int{old_version};
  }
}

TEST(ProtocolVersionTest, OldClientGetsCleanErrorFromServerNoHang) {
  CollectionIndex idx = MakeIndex(CorpusA());
  MemorySocketEnv env;
  ServerOptions options;
  options.host = "mem";
  options.socket_env = &env;
  XseqServer server(
      [&idx](std::string_view xpath, const ExecOptions& opts) {
        return idx.Query(xpath, opts);
      },
      options);
  ASSERT_TRUE(server.Start().ok());

  // Speak old versions at the raw frame level, as old client binaries
  // would: well-formed frames whose bodies lead with the old version byte.
  // A v1 ping, and a v3 query (xpath + deadline, no flag byte).
  std::string v1_ping;
  v1_ping.push_back(1);
  v1_ping.push_back(static_cast<char>(WireOp::kPing));
  PutFixed64(&v1_ping, 1);
  std::string v3_query;
  v3_query.push_back(3);
  v3_query.push_back(static_cast<char>(WireOp::kQuery));
  PutFixed64(&v3_query, 1);
  PutString(&v3_query, "/a/b");
  PutFixed64(&v3_query, 0);
  for (const std::string& body : {v1_ping, v3_query}) {
    auto conn = env.Connect("mem", server.port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(WriteFrame(conn->get(), body).ok());

    // The server answers one well-formed error frame naming both versions,
    // then closes (framing cannot be trusted across versions). Neither
    // side hangs.
    std::string resp_body;
    ASSERT_TRUE(ReadFrame(conn->get(), &resp_body).ok());
    WireResponse resp;
    ASSERT_TRUE(DecodeResponseBody(resp_body, &resp).ok());
    // ASSERT: a server that answered the body would keep the connection
    // open, and the closed-connection read below would block.
    ASSERT_EQ(resp.status.code(), StatusCode::kUnimplemented)
        << resp.status.ToString();
    EXPECT_NE(resp.status.message().find(
                  "version " + std::to_string(int{body[0]})),
              std::string::npos)
        << resp.status.ToString();
    EXPECT_NE(resp.status.message().find(std::to_string(kWireVersion)),
              std::string::npos)
        << resp.status.ToString();
    std::string next;
    EXPECT_FALSE(ReadFrame(conn->get(), &next, /*eof_ok=*/true).ok());
  }
  server.Stop();
}

// ---------------------------------------------------------------------------
// Offline reshard.

class ReshardTest : public ::testing::TestWithParam<ValueMode> {};

TEST_P(ReshardTest, DifferentialAgainstSourceAndFreshBuild) {
  const ValueMode mode = GetParam();
  std::vector<std::string> specs = CorpusA();
  std::vector<std::string> more = CorpusB();
  specs.insert(specs.end(), more.begin(), more.end());

  ShardedCollection source =
      BuildSharded(specs, 3, /*dynamic=*/false, mode);
  const auto source_answers = Answers(source);

  for (int m : {1, 2, 5}) {
    auto resharded = ReshardCollection(source, m);
    ASSERT_TRUE(resharded.ok()) << resharded.status().ToString();
    EXPECT_EQ(resharded->shard_count(), static_cast<size_t>(m));
    EXPECT_EQ(resharded->total_documents(), source.total_documents());
    EXPECT_EQ(Answers(*resharded), source_answers) << m << " shards";

    // Identical to a from-scratch m-shard build over the same corpus.
    ShardedCollection fresh = BuildSharded(specs, m, /*dynamic=*/false, mode);
    EXPECT_EQ(Answers(*resharded), Answers(fresh)) << m << " shards";
  }
}

// Every shard shares the source's catalog, so a save of the resharded
// collection holds the source manifest's shared sections byte for byte.
TEST_P(ReshardTest, ManifestKeepsTheSourceCatalog) {
  const std::string mode = std::to_string(static_cast<int>(GetParam()));
  ShardedCollection source =
      BuildSharded(CorpusA(), 3, /*dynamic=*/false, GetParam());
  const std::string src = TempPrefix("xseq_reshard_catalog_src" + mode);
  ASSERT_TRUE(source.Save(src).ok());
  auto resharded = ReshardCollection(source, 5);
  ASSERT_TRUE(resharded.ok()) << resharded.status().ToString();
  const std::string dst = TempPrefix("xseq_reshard_catalog_dst" + mode);
  ASSERT_TRUE(resharded->Save(dst).ok());
  auto shared_sections = [](const std::string& prefix) {
    std::string data;
    EXPECT_TRUE(Env::Default()->ReadFileToString(prefix, &data).ok());
    IndexFileReport report = InspectEncodedIndex(data);
    EXPECT_TRUE(report.status.ok()) << report.status.ToString();
    EXPECT_EQ(report.kind, "manifest");
    std::map<std::string, std::string> out;
    for (const IndexSectionInfo& section : report.sections) {
      if (section.name == "header") continue;
      out[section.name] = data.substr(section.offset, section.length);
    }
    return out;
  };
  const std::map<std::string, std::string> want = shared_sections(src);
  EXPECT_EQ(want.size(), 4u);  // names, values, dict, schema
  EXPECT_EQ(shared_sections(dst), want);
}

INSTANTIATE_TEST_SUITE_P(ValueModes, ReshardTest,
                         ::testing::Values(ValueMode::kExact,
                                           ValueMode::kHashed,
                                           ValueMode::kCharSequence));

TEST(ReshardTest2, WorksOnLoadedImagesAndRejectsBadInput) {
  ShardedCollection built = BuildSharded(CorpusA(), 2, /*dynamic=*/false);
  const std::string prefix = TempPrefix("xseq_reshard_src");
  ASSERT_TRUE(built.Save(prefix).ok());

  // The tool path: Load -> Reshard -> Save -> Load, no retained documents.
  auto loaded = ShardedCollection::Load(prefix);
  ASSERT_TRUE(loaded.ok());
  auto resharded = ReshardCollection(*loaded, 4);
  ASSERT_TRUE(resharded.ok()) << resharded.status().ToString();
  const std::string out_prefix = TempPrefix("xseq_reshard_dst");
  ASSERT_TRUE(resharded->Save(out_prefix).ok());
  auto reloaded = ShardedCollection::Load(out_prefix);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(Answers(*reloaded), Answers(built));

  EXPECT_EQ(ReshardCollection(*loaded, 0).status().code(),
            StatusCode::kInvalidArgument);
  ShardedCollection dynamic = BuildSharded(CorpusA(), 2, /*dynamic=*/true);
  EXPECT_EQ(ReshardCollection(dynamic, 3).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace xseq
