// xseq_tool: a small command-line front end — build an index from XML files
// or a generated dataset, persist it, inspect it, and query it.
//
//   xseq_tool build --out=my.idx --xml=a.xml --xml=b.xml
//   xseq_tool build --out=my.idx --gen=xmark --n=50000
//   xseq_tool stats --index=my.idx [--q=XPATH ...] [--json]
//   xseq_tool query --index=my.idx --q="/site//person/*/age[text='32']"
//   xseq_tool trace --index=my.idx --q=XPATH [--out=trace.json]
//   xseq_tool verify my.idx
//   xseq_tool reshard --in=PREFIX --out=PREFIX --shards=M

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/collection_index.h"
#include "src/core/persist.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/query/explain.h"
#include "src/server/sharded_collection.h"
#include "src/gen/dblp.h"
#include "src/gen/synthetic.h"
#include "src/gen/xmark.h"
#include "src/util/flags.h"
#include "src/xml/record_split.h"
#include "src/util/timer.h"

namespace {

using namespace xseq;

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  xseq_tool build --out=FILE (--xml=FILE ... [--split=tag,...] |"
      " --gen=xmark|dblp|synthetic --n=N)\n"
      "              [--sequencer=cs|df|bf] [--values=exact|hashed|chars]\n"
      "  xseq_tool stats --index=FILE [--q=XPATH ...] [--repeat=N]"
      " [--threads=N] [--json]\n"
      "              # runs the queries (if any), then dumps index size"
      " stats and the\n"
      "              # process metrics registry (latencies, matcher"
      " counters, I/O, pool)\n"
      "  xseq_tool query --index=FILE --q=XPATH [--verbose] [--explain]\n"
      "  xseq_tool explain --index=FILE --q=XPATH [--json]\n"
      "              # runs the query with an explain sink and prints the"
      " planner's account\n"
      "  xseq_tool trace --index=FILE --q=XPATH [--out=FILE]\n"
      "              # runs the query traced, prints the span tree, writes"
      " Chrome JSON\n"
      "  xseq_tool verify FILE   # per-section integrity report of an index"
      " file,\n"
      "              # a sharded manifest or a part; exit 1 on any failure\n"
      "  xseq_tool reshard --in=PREFIX --out=PREFIX --shards=M\n"
      "              # N->M reshard: moves every document's sequence and"
      " value postings\n"
      "              # to its new shard by hash, under the same catalog,"
      " and saves\n"
      "\n"
      "  --threads=N  worker threads for stats query batches"
      "\n"
      "               (0 = hardware concurrency / XSEQ_THREADS, 1 = serial);"
      " a build\n"
      "               and a query each run on one thread\n");
  return 2;
}

std::vector<std::string> CollectRepeatedArgs(int argc, char** argv,
                                             const char* prefix) {
  // FlagSet keeps only the last occurrence of a flag; gather all of them.
  std::vector<std::string> values;
  const size_t len = std::strlen(prefix);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix, len) == 0) {
      values.emplace_back(argv[i] + len);
    }
  }
  return values;
}

std::vector<std::string> CollectXmlArgs(int argc, char** argv) {
  return CollectRepeatedArgs(argc, argv, "--xml=");
}

int Build(const FlagSet& flags, int argc, char** argv) {
  std::string out = flags.GetString("out", "");
  if (out.empty()) return Usage();

  IndexOptions options;
  std::string seq = flags.GetString("sequencer", "cs");
  if (seq == "df") options.sequencer = SequencerKind::kDepthFirst;
  if (seq == "bf") options.sequencer = SequencerKind::kBreadthFirst;
  std::string values = flags.GetString("values", "exact");
  if (values == "hashed") options.value_mode = ValueMode::kHashed;
  if (values == "chars") options.value_mode = ValueMode::kCharSequence;

  CollectionBuilder builder(options);
  Timer timer;

  std::vector<std::string> xml_files = CollectXmlArgs(argc, argv);
  if (!xml_files.empty()) {
    // Optional record splitting: --split=item,person decomposes each file
    // into one record per listed tag (the paper's per-substructure
    // indexing of large documents).
    std::vector<std::string> split_tags;
    {
      std::string split = flags.GetString("split", "");
      size_t i = 0;
      while (i < split.size()) {
        size_t j = split.find(',', i);
        if (j == std::string::npos) j = split.size();
        if (j > i) split_tags.push_back(split.substr(i, j - i));
        i = j + 1;
      }
    }
    XmlParser parser(builder.names(), builder.values());
    DocId id = 0;
    for (const std::string& file : xml_files) {
      std::ifstream in(file);
      if (!in) {
        std::fprintf(stderr, "cannot read %s\n", file.c_str());
        return 1;
      }
      std::ostringstream text;
      text << in.rdbuf();
      auto doc = parser.Parse(text.str(), id);
      if (!doc.ok()) {
        std::fprintf(stderr, "%s: %s\n", file.c_str(),
                     doc.status().ToString().c_str());
        return 1;
      }
      if (split_tags.empty()) {
        ++id;
        Status st = builder.Add(std::move(*doc));
        if (!st.ok()) {
          std::fprintf(stderr, "%s\n", st.ToString().c_str());
          return 1;
        }
        continue;
      }
      std::vector<NameId> tags;
      for (const std::string& t : split_tags) {
        NameId nid = builder.names()->Find(t);
        if (nid != Interner::kInvalidId) tags.push_back(nid);
      }
      std::vector<Document> records = SplitIntoRecords(*doc, tags, id);
      if (records.empty()) {
        std::fprintf(stderr, "%s: no <%s> records found\n", file.c_str(),
                     flags.GetString("split", "").c_str());
        return 1;
      }
      id += static_cast<DocId>(records.size());
      for (Document& rec : records) {
        Status st = builder.Add(std::move(rec));
        if (!st.ok()) {
          std::fprintf(stderr, "%s\n", st.ToString().c_str());
          return 1;
        }
      }
    }
  } else {
    std::string gen = flags.GetString("gen", "");
    DocId n = static_cast<DocId>(flags.GetInt("n", 10000));
    uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    std::function<Document(DocId)> make;
    XMarkParams xp;
    xp.seed = seed;
    DblpParams dp;
    dp.seed = seed;
    SyntheticParams sp;
    sp.seed = seed;
    XMarkGenerator xmark(xp, builder.names(), builder.values());
    DblpGenerator dblp(dp, builder.names(), builder.values());
    SyntheticDataset synth(sp, builder.names(), builder.values());
    if (gen == "xmark") {
      make = [&](DocId d) { return xmark.Generate(d); };
    } else if (gen == "dblp") {
      make = [&](DocId d) { return dblp.Generate(d); };
    } else if (gen == "synthetic") {
      make = [&](DocId d) { return synth.Generate(d); };
    } else {
      return Usage();
    }
    for (DocId d = 0; d < n; ++d) {
      Status st = builder.Observe(make(d));
      if (!st.ok()) return 1;
    }
    if (!builder.BeginIndexing().ok()) return 1;
    for (DocId d = 0; d < n; ++d) {
      Status st = builder.Index(make(d));
      if (!st.ok()) return 1;
    }
  }

  auto index = std::move(builder).Finish();
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  Status st = SaveCollectionIndex(*index, out);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  auto s = index->Stats();
  std::printf("indexed %llu documents (%llu index nodes) in %.2f s -> %s\n",
              static_cast<unsigned long long>(s.documents),
              static_cast<unsigned long long>(s.trie_nodes),
              timer.ElapsedSeconds(), out.c_str());
  return 0;
}

int Stats(const FlagSet& flags, int argc, char** argv) {
  auto index = LoadCollectionIndex(flags.GetString("index", ""));
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }

  // Optional query workload: every --q=XPATH is executed (--repeat times)
  // before the dump, so the registry shows real latencies and counters.
  // Default 2 threads so the thread-pool metrics are exercised even on a
  // single-core host.
  std::vector<std::string> queries = CollectRepeatedArgs(argc, argv, "--q=");
  const int repeat = static_cast<int>(flags.GetInt("repeat", 1));
  const int threads = static_cast<int>(flags.GetInt("threads", 2));
  ExecStats workload;  // summed over the workload queries, if any
  if (!queries.empty() && repeat > 0) {
    // One batch of #q x repeat executions: a multi-entry batch spreads
    // across the pool, so the pool counters fill even for a single --q.
    std::vector<std::string> batch;
    batch.reserve(queries.size() * static_cast<size_t>(repeat));
    for (int rep = 0; rep < repeat; ++rep) {
      batch.insert(batch.end(), queries.begin(), queries.end());
    }
    auto results = index->QueryBatch(batch, ExecOptions{}, threads);
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok()) {
        std::fprintf(stderr, "query %s: %s\n", batch[i].c_str(),
                     results[i].status().ToString().c_str());
        return 1;
      }
      workload.Add(results[i]->stats);
    }
  }

  auto s = index->Stats();
  if (flags.GetBool("json", false)) {
    std::ostringstream out;
    out << "{\"index\":{"
        << "\"documents\":" << s.documents
        << ",\"trie_nodes\":" << s.trie_nodes
        << ",\"distinct_paths\":" << s.distinct_paths
        << ",\"sequence_elements\":" << s.sequence_elements
        << ",\"avg_sequence_length\":" << s.avg_sequence_length
        << ",\"memory_bytes\":" << s.memory_bytes
        << ",\"sequencer\":\""
        << SequencerKindName(index->options().sequencer) << "\"}"
        << ",\"workload\":{"
        << "\"result_docs\":" << workload.result_docs
        << ",\"instantiations\":" << workload.instantiations
        << ",\"orderings\":" << workload.orderings
        << ",\"matched_sequences\":" << workload.matched_sequences
        << ",\"plan_cache_hits\":" << workload.plan_cache_hits
        << ",\"result_cache_hits\":" << workload.result_cache_hits
        << ",\"pruned_instantiations\":" << workload.pruned_instantiations
        << "}"
        << ",\"metrics\":" << obs::MetricsRegistry::Default()->JsonDump()
        << "}\n";
    std::fputs(out.str().c_str(), stdout);
    return 0;
  }
  std::printf("documents:          %llu\n",
              static_cast<unsigned long long>(s.documents));
  std::printf("index nodes:        %llu\n",
              static_cast<unsigned long long>(s.trie_nodes));
  std::printf("distinct paths:     %llu\n",
              static_cast<unsigned long long>(s.distinct_paths));
  std::printf("sequence elements:  %llu\n",
              static_cast<unsigned long long>(s.sequence_elements));
  std::printf("avg sequence len:   %.2f\n", s.avg_sequence_length);
  std::printf("index bytes:        %llu\n",
              static_cast<unsigned long long>(s.memory_bytes));
  std::printf("sequencer:          %s\n",
              SequencerKindName(index->options().sequencer));
  if (!queries.empty()) {
    std::printf("workload:           %llu docs, %zu instantiations"
                " (%zu pruned), %zu plan-cache hits\n",
                static_cast<unsigned long long>(workload.result_docs),
                workload.instantiations, workload.pruned_instantiations,
                workload.plan_cache_hits);
  }
  std::string dump = obs::MetricsRegistry::Default()->TextDump();
  if (!dump.empty()) {
    std::printf("\nprocess metrics:\n%s", dump.c_str());
  }
  return 0;
}

int TraceQuery(const FlagSet& flags) {
  auto index = LoadCollectionIndex(flags.GetString("index", ""));
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  std::string q = flags.GetString("q", "");
  if (q.empty()) return Usage();

  obs::Tracer tracer;
  ExecOptions exec;
  exec.tracer = &tracer;
  auto r = index->Query(q, exec);
  if (!r.ok()) {
    std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
    return 1;
  }
  obs::Trace trace = tracer.Latest();
  std::printf("%zu documents\n\n%s", r->docs.size(),
              obs::FormatTraceTree(trace).c_str());

  const std::string out = flags.GetString("out", "trace.json");
  std::string json = obs::TraceToChromeJson(trace);
  Status st = AtomicWriteFile(Env::Default(), out, json);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote %s (%zu bytes); open in chrome://tracing or "
              "ui.perfetto.dev\n",
              out.c_str(), json.size());
  return 0;
}

int Query(const FlagSet& flags) {
  auto index = LoadCollectionIndex(flags.GetString("index", ""));
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  std::string q = flags.GetString("q", "");
  if (q.empty()) return Usage();
  ExecOptions exec;
  if (flags.GetBool("explain", false)) {
    auto plan = ExplainQuery(index->executor(), q, index->dict(),
                             index->names());
    if (!plan.ok()) {
      std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", plan->c_str());
  }
  Timer timer;
  auto r = index->Query(q, exec);
  if (!r.ok()) {
    std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
    return 1;
  }
  std::printf("%zu documents in %.3f ms\n", r->docs.size(),
              timer.ElapsedMillis());
  size_t show = std::min<size_t>(r->docs.size(), 20);
  for (size_t i = 0; i < show; ++i) std::printf("  doc %u\n", r->docs[i]);
  if (show < r->docs.size()) {
    std::printf("  ... and %zu more\n", r->docs.size() - show);
  }
  if (flags.GetBool("verbose", false)) {
    std::printf("instantiations: %zu, orderings: %zu, sequences: %zu\n",
                r->stats.instantiations, r->stats.orderings,
                r->stats.matched_sequences);
    std::printf("link probes: %llu, candidates: %llu, sibling checks: "
                "%llu\n",
                static_cast<unsigned long long>(
                    r->stats.match.link_binary_searches),
                static_cast<unsigned long long>(r->stats.match.candidates),
                static_cast<unsigned long long>(
                    r->stats.match.sibling_checks));
    std::printf("plan cache hits: %zu, pruned instantiations: %zu\n",
                r->stats.plan_cache_hits, r->stats.pruned_instantiations);
  }
  return 0;
}

int Explain(const FlagSet& flags) {
  // Runs the query once with an explain sink and prints the structured
  // account the serving layer would put in its access log: the chosen
  // sequence order with anchors, predicted vs. actual cost, cache hits.
  auto index = LoadCollectionIndex(flags.GetString("index", ""));
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  std::string q = flags.GetString("q", "");
  if (q.empty()) return Usage();
  ExecOptions exec;
  QueryExplain explain;
  exec.explain = &explain;
  Timer timer;
  auto r = index->Query(q, exec);
  if (!r.ok()) {
    std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
    return 1;
  }
  std::printf("%zu documents in %.3f ms\n", r->docs.size(),
              timer.ElapsedMillis());
  std::printf("%s", explain.ToString().c_str());
  if (flags.GetBool("json", false)) {
    std::printf("%s\n", explain.ToJson().c_str());
  }
  return 0;
}

int Verify(const FlagSet& flags, int argc, char** argv) {
  // Accept both `verify FILE` and `verify --index=FILE`.
  std::string path = flags.GetString("index", "");
  for (int i = 2; i < argc && path.empty(); ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) path = argv[i];
  }
  if (path.empty()) return Usage();

  std::string data;
  Status read = Env::Default()->ReadFileToString(path, &data);
  if (!read.ok()) {
    std::fprintf(stderr, "%s\n", read.ToString().c_str());
    return 1;
  }
  IndexFileReport report = InspectEncodedIndex(data);
  std::printf("file:     %s (%zu bytes)\n", path.c_str(), data.size());
  std::printf("kind:     %s\n", report.kind.c_str());
  std::printf("magic:    %s\n", report.magic_ok ? "ok" : "BAD");
  std::printf("version:  %u (%s)\n", report.version,
              report.version_supported ? "supported" : "UNSUPPORTED");
  for (const IndexSectionInfo& s : report.sections) {
    std::printf("section:  %-7s offset=%-10llu length=%-10llu checksum %s\n",
                s.name.c_str(), static_cast<unsigned long long>(s.offset),
                static_cast<unsigned long long>(s.length),
                s.checksum_ok ? "ok" : "MISMATCH");
  }
  std::printf("footer:   %s\n", report.footer_ok ? "ok" : "MISMATCH");
  std::printf("trailing: %llu bytes\n",
              static_cast<unsigned long long>(report.trailing_bytes));
  std::printf("docs:     %llu\n",
              static_cast<unsigned long long>(report.documents));
  if (report.kind != "index") {
    std::printf("manifest: %016llx\n",
                static_cast<unsigned long long>(report.catalog_id));
  }
  std::printf("derived:  %llu bytes (per-path link arrays, built on load)\n",
              static_cast<unsigned long long>(report.index_derived_bytes));
  std::printf("links:    %llu bytes packed, %llu bytes logical",
              static_cast<unsigned long long>(report.index_packed_link_bytes),
              static_cast<unsigned long long>(
                  report.index_logical_link_bytes));
  if (report.index_logical_link_bytes > 0 &&
      report.index_packed_link_bytes > 0) {
    std::printf(" (%.1f%% of flat)",
                100.0 * static_cast<double>(report.index_packed_link_bytes) /
                    static_cast<double>(report.index_logical_link_bytes));
  }
  std::printf("\n");
  uint64_t vindex_bytes = 0;
  for (const IndexSectionInfo& s : report.sections) {
    if (s.name == "vindex") vindex_bytes = s.length;
  }
  std::printf("vindex:   %llu bytes, %llu path(s), %llu value entries\n",
              static_cast<unsigned long long>(vindex_bytes),
              static_cast<unsigned long long>(report.vindex_paths),
              static_cast<unsigned long long>(report.vindex_entries));
  // Per-path entry counts in file (= path dictionary) order.
  constexpr size_t kMaxPathsShown = 10;
  for (size_t i = 0;
       i < report.vindex_path_counts.size() && i < kMaxPathsShown; ++i) {
    std::printf("          path %-6u %llu entries\n",
                report.vindex_path_counts[i].first,
                static_cast<unsigned long long>(
                    report.vindex_path_counts[i].second));
  }
  if (report.vindex_path_counts.size() > kMaxPathsShown) {
    std::printf("          ... %zu more path(s)\n",
                report.vindex_path_counts.size() - kMaxPathsShown);
  }
  if (!report.status.ok()) {
    std::printf("FAILED: %s\n", report.status.ToString().c_str());
    return 1;
  }
  // Framing is intact: also run the full decode, which re-validates the
  // structures against each other. A part decodes against the manifest
  // beside it ("<prefix>.shard<K>" belongs to "<prefix>").
  Status deep;
  if (report.kind == "index") {
    deep = DecodeCollectionIndex(data).status();
  } else {
    std::string manifest = data;
    const size_t dot = path.rfind(".shard");
    if (report.kind == "part") {
      deep = dot == std::string::npos
                 ? Status::NotFound("no manifest beside " + path)
                 : Env::Default()->ReadFileToString(path.substr(0, dot),
                                                    &manifest);
    }
    StatusOr<ShardedManifest> decoded =
        deep.ok() ? DecodeShardedManifest(manifest, /*with_catalog=*/true)
                  : StatusOr<ShardedManifest>(deep);
    deep = decoded.status();
    if (deep.ok() && report.kind == "part") {
      deep = DecodeIndexPart(data, *decoded).status();
    }
  }
  if (!deep.ok()) {
    std::printf("FAILED (deep validation): %s\n", deep.ToString().c_str());
    return 1;
  }
  std::printf("OK: %s of %llu documents verifies\n", report.kind.c_str(),
              static_cast<unsigned long long>(report.documents));
  return 0;
}

int Reshard(const FlagSet& flags) {
  const std::string in = flags.GetString("in", "");
  const std::string out = flags.GetString("out", "");
  const int shards = static_cast<int>(flags.GetInt("shards", 0));
  if (in.empty() || out.empty() || shards < 1) return Usage();

  Timer timer;
  auto source = ShardedCollection::Load(in);
  if (!source.ok()) {
    std::fprintf(stderr, "load: %s\n", source.status().ToString().c_str());
    return 1;
  }
  auto resharded = ReshardCollection(*source, shards);
  if (!resharded.ok()) {
    std::fprintf(stderr, "reshard: %s\n",
                 resharded.status().ToString().c_str());
    return 1;
  }
  Status saved = resharded->Save(out);
  if (!saved.ok()) {
    std::fprintf(stderr, "save: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("resharded %llu documents: %zu -> %d shard(s) -> %s (%.2f s)\n",
              static_cast<unsigned long long>(resharded->total_documents()),
              source->shard_count(), shards, out.c_str(),
              timer.ElapsedSeconds());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  xseq::FlagSet flags(argc, argv);
  std::string cmd = argv[1];
  if (cmd == "build") return Build(flags, argc, argv);
  if (cmd == "stats") return Stats(flags, argc, argv);
  if (cmd == "query") return Query(flags);
  if (cmd == "explain") return Explain(flags);
  if (cmd == "trace") return TraceQuery(flags);
  if (cmd == "verify") return Verify(flags, argc, argv);
  if (cmd == "reshard") return Reshard(flags);
  return Usage();
}
