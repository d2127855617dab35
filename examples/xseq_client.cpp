// xseq_client: command-line client for an xseq_serve daemon.
//
//   xseq_client ping     --port=N [--host=ADDR]
//   xseq_client query    --port=N --q=XPATH [--deadline_ms=N] [--verbose]
//                        [--explain] [--trace_out=FILE]
//   xseq_client stats    --port=N          # server metrics registry JSON
//   xseq_client metrics  --port=N          # Prometheus text exposition
//   xseq_client reload   --port=N [--path=PREFIX]  # hot-swap generation
//   xseq_client delete   --port=N --id=N   # tombstone a document id
//   xseq_client update   --port=N --id=N (--xml=DOC | --xml_file=PATH)
//   xseq_client compact  --port=N          # purge tombstones, merge segments
//   xseq_client shutdown --port=N          # graceful remote drain
//
// delete/update/compact mutate a daemon serving a dynamic backend
// (xseq_serve --gen=... --dynamic); the XML of an update is parsed
// server-side against the owning shard's vocabulary. Each ack prints the
// backend generation after the mutation.
//
// `query --explain` asks the server for its planner/executor account of
// the query (instantiations, chosen sequence order, predicted vs. actual
// cost, cache hits, per-shard fan-out) and prints it after the results.
// `query --trace_out=FILE` records a client-side trace, stitches the
// server's spans into it over the wire, and writes the combined tree as
// Chrome trace JSON (load it in chrome://tracing or ui.perfetto.dev).
//
// Exit status: 0 on success; 1 on any error, including remote statuses
// such as Overloaded (shed) and DeadlineExceeded, which are printed in
// their wire-decoded form.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "src/obs/trace.h"
#include "src/server/client.h"
#include "src/util/flags.h"
#include "src/util/timer.h"

namespace {

using namespace xseq;

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  xseq_client ping     --port=N [--host=ADDR]\n"
      "  xseq_client query    --port=N --q=XPATH [--deadline_ms=N]"
      " [--verbose] [--explain] [--trace_out=FILE]\n"
      "  xseq_client stats    --port=N [--host=ADDR]\n"
      "  xseq_client metrics  --port=N [--host=ADDR]\n"
      "  xseq_client reload   --port=N [--host=ADDR] [--path=PREFIX]\n"
      "  xseq_client delete   --port=N [--host=ADDR] --id=N\n"
      "  xseq_client update   --port=N [--host=ADDR] --id=N"
      " (--xml=DOC | --xml_file=PATH)\n"
      "  xseq_client compact  --port=N [--host=ADDR]\n"
      "  xseq_client shutdown --port=N [--host=ADDR]\n");
  return 2;
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  FlagSet flags(argc, argv);
  const std::string host = flags.GetString("host", "127.0.0.1");
  const int port = static_cast<int>(flags.GetInt("port", -1));
  if (port < 0) return Usage();

  auto client = XseqClient::Connect(host, port);
  if (!client.ok()) {
    std::fprintf(stderr, "connect %s:%d: %s\n", host.c_str(), port,
                 client.status().ToString().c_str());
    return 1;
  }

  if (cmd == "ping") {
    Timer timer;
    Status st = client->Ping();
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("pong (%.2f ms)\n", timer.ElapsedSeconds() * 1e3);
    return 0;
  }

  if (cmd == "query") {
    const std::string xpath = flags.GetString("q", "");
    if (xpath.empty()) return Usage();
    const uint64_t deadline_micros =
        static_cast<uint64_t>(flags.GetInt("deadline_ms", 0)) * 1000;
    const bool want_explain = flags.GetBool("explain", false);
    const std::string trace_out = flags.GetString("trace_out", "");

    // With --trace_out, the query records a stitched client+server trace
    // into this one-slot ring.
    obs::Tracer tracer(1);
    if (!trace_out.empty()) client->set_tracer(&tracer);

    Timer timer;
    auto result = client->Query(xpath, deadline_micros, want_explain);
    const double ms = timer.ElapsedSeconds() * 1e3;
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("%zu document(s) in %.2f ms\n", result->docs.size(), ms);
    if (flags.GetBool("verbose", false)) {
      for (DocId d : result->docs) {
        std::printf("  doc %llu\n", static_cast<unsigned long long>(d));
      }
      const WireQueryStats& s = result->stats;
      std::printf(
          "  candidates=%llu matched=%llu entries_read=%llu"
          " compile_us=%llu match_us=%llu\n",
          static_cast<unsigned long long>(s.candidates),
          static_cast<unsigned long long>(s.matched_sequences),
          static_cast<unsigned long long>(s.link_entries_read),
          static_cast<unsigned long long>(s.compile_micros),
          static_cast<unsigned long long>(s.match_micros));
      std::printf(
          "  plan_cache_hits=%llu result_cache_hits=%llu"
          " pruned_instantiations=%llu\n",
          static_cast<unsigned long long>(s.plan_cache_hits),
          static_cast<unsigned long long>(s.result_cache_hits),
          static_cast<unsigned long long>(s.pruned_instantiations));
    }
    if (want_explain) {
      if (result->has_explain) {
        std::printf("%s", result->explain.ToString().c_str());
      } else {
        std::fprintf(stderr, "(no explain in the response)\n");
      }
    }
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      if (!out || !(out << tracer.ExportChromeJson())) {
        std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
        return 1;
      }
      std::printf("trace %llu -> %s\n",
                  static_cast<unsigned long long>(result->trace_id),
                  trace_out.c_str());
    }
    return 0;
  }

  if (cmd == "stats") {
    auto stats = client->Stats();
    if (!stats.ok()) {
      std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", stats->c_str());
    return 0;
  }

  if (cmd == "metrics") {
    auto text = client->Metrics();
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", text->c_str());
    return 0;
  }

  if (cmd == "reload") {
    // Empty --path asks the daemon to re-read whatever prefix it serves.
    Timer timer;
    auto generation = client->Reload(flags.GetString("path", ""));
    if (!generation.ok()) {
      std::fprintf(stderr, "%s\n", generation.status().ToString().c_str());
      return 1;
    }
    std::printf("reloaded, generation %llu (%.2f ms)\n",
                static_cast<unsigned long long>(*generation),
                timer.ElapsedSeconds() * 1e3);
    return 0;
  }

  if (cmd == "delete") {
    if (!flags.Has("id")) return Usage();
    Timer timer;
    auto generation =
        client->Delete(static_cast<uint64_t>(flags.GetInt("id", 0)));
    if (!generation.ok()) {
      std::fprintf(stderr, "%s\n", generation.status().ToString().c_str());
      return 1;
    }
    std::printf("deleted, generation %llu (%.2f ms)\n",
                static_cast<unsigned long long>(*generation),
                timer.ElapsedSeconds() * 1e3);
    return 0;
  }

  if (cmd == "update") {
    if (!flags.Has("id")) return Usage();
    std::string xml = flags.GetString("xml", "");
    const std::string xml_file = flags.GetString("xml_file", "");
    if (xml.empty() == xml_file.empty()) return Usage();  // exactly one
    if (!xml_file.empty()) {
      std::ifstream in(xml_file);
      if (!in) {
        std::fprintf(stderr, "cannot read %s\n", xml_file.c_str());
        return 1;
      }
      xml.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
    }
    Timer timer;
    auto generation =
        client->Update(static_cast<uint64_t>(flags.GetInt("id", 0)), xml);
    if (!generation.ok()) {
      std::fprintf(stderr, "%s\n", generation.status().ToString().c_str());
      return 1;
    }
    std::printf("updated, generation %llu (%.2f ms)\n",
                static_cast<unsigned long long>(*generation),
                timer.ElapsedSeconds() * 1e3);
    return 0;
  }

  if (cmd == "compact") {
    Timer timer;
    auto generation = client->Compact();
    if (!generation.ok()) {
      std::fprintf(stderr, "%s\n", generation.status().ToString().c_str());
      return 1;
    }
    std::printf("compacted, generation %llu (%.2f ms)\n",
                static_cast<unsigned long long>(*generation),
                timer.ElapsedSeconds() * 1e3);
    return 0;
  }

  if (cmd == "shutdown") {
    Status st = client->Shutdown();
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("shutdown acknowledged\n");
    return 0;
  }

  return Usage();
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
