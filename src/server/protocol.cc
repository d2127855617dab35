#include "src/server/protocol.h"

#include <limits>

#include "src/util/coding.h"
#include "src/util/hash.h"

namespace xseq {

namespace {

void PutByte(std::string* dst, uint8_t b) {
  dst->push_back(static_cast<char>(b));
}

Status GetByte(Decoder* in, uint8_t* b) {
  std::string_view raw;
  XSEQ_RETURN_IF_ERROR(in->GetRaw(1, &raw));
  *b = static_cast<uint8_t>(raw[0]);
  return Status::OK();
}

/// Common prefix of every body: version, op, request id.
Status DecodePrefix(Decoder* in, uint8_t* op, uint64_t* id) {
  uint8_t version = 0;
  XSEQ_RETURN_IF_ERROR(GetByte(in, &version));
  if (version != kWireVersion) {
    // A mismatch in either direction is a clean, attributable
    // kUnimplemented naming both versions — never kCorruption (the frame
    // checksum already validated the bytes; an old client did nothing
    // corrupt) and never a hang.
    return Status::Unimplemented(
        "wire protocol version " + std::to_string(version) +
        " is not supported; this build speaks version " +
        std::to_string(kWireVersion));
  }
  XSEQ_RETURN_IF_ERROR(GetByte(in, op));
  if (!IsValidWireOp(*op)) {
    return Status::Corruption("unknown wire op " + std::to_string(*op));
  }
  return in->GetFixed64(id);
}

Status CheckDrained(const Decoder& in) {
  if (!in.AtEnd()) {
    return Status::Corruption("trailing bytes after wire message");
  }
  return Status::OK();
}

}  // namespace

bool IsValidWireOp(uint8_t op) {
  switch (static_cast<WireOp>(op)) {
    case WireOp::kQuery:
    case WireOp::kStats:
    case WireOp::kPing:
    case WireOp::kShutdown:
    case WireOp::kReload:
    case WireOp::kMetrics:
    case WireOp::kDelete:
    case WireOp::kUpdate:
    case WireOp::kCompact:
      return true;
  }
  return false;
}

uint8_t StatusCodeToWire(StatusCode code) {
  return static_cast<uint8_t>(code);
}

StatusCode StatusCodeFromWire(uint8_t wire) {
  // Explicit round-trip table: adding a StatusCode without teaching the
  // wire about it trips the -Werror=switch build, not a silent kInternal.
  StatusCode code = static_cast<StatusCode>(wire);
  switch (code) {
    case StatusCode::kOk:
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kCorruption:
    case StatusCode::kOutOfRange:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kUnimplemented:
    case StatusCode::kResourceExhausted:
    case StatusCode::kInternal:
    case StatusCode::kIOError:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kOverloaded:
      return code;
  }
  return StatusCode::kInternal;
}

WireQueryStats WireQueryStats::FromExecStats(const ExecStats& st) {
  WireQueryStats out;
  out.result_docs = st.result_docs;
  out.instantiations = st.instantiations;
  out.orderings = st.orderings;
  out.matched_sequences = st.matched_sequences;
  out.link_entries_read = st.match.link_entries_read;
  out.link_binary_searches = st.match.link_binary_searches;
  out.link_gallop_probes = st.match.link_gallop_probes;
  out.candidates = st.match.candidates;
  out.terminals = st.match.terminals;
  out.compile_micros = static_cast<uint64_t>(st.compile_micros);
  out.match_micros = static_cast<uint64_t>(st.match_micros);
  out.plan_cache_hits = st.plan_cache_hits;
  out.result_cache_hits = st.result_cache_hits;
  out.pruned_instantiations = st.pruned_instantiations;
  return out;
}

namespace {

void EncodeStats(const WireQueryStats& s, std::string* out) {
  PutFixed64(out, s.result_docs);
  PutFixed64(out, s.instantiations);
  PutFixed64(out, s.orderings);
  PutFixed64(out, s.matched_sequences);
  PutFixed64(out, s.link_entries_read);
  PutFixed64(out, s.link_binary_searches);
  PutFixed64(out, s.link_gallop_probes);
  PutFixed64(out, s.candidates);
  PutFixed64(out, s.terminals);
  PutFixed64(out, s.compile_micros);
  PutFixed64(out, s.match_micros);
  PutFixed64(out, s.plan_cache_hits);
  PutFixed64(out, s.result_cache_hits);
  PutFixed64(out, s.pruned_instantiations);
}

Status DecodeStats(Decoder* in, WireQueryStats* s) {
  XSEQ_RETURN_IF_ERROR(in->GetFixed64(&s->result_docs));
  XSEQ_RETURN_IF_ERROR(in->GetFixed64(&s->instantiations));
  XSEQ_RETURN_IF_ERROR(in->GetFixed64(&s->orderings));
  XSEQ_RETURN_IF_ERROR(in->GetFixed64(&s->matched_sequences));
  XSEQ_RETURN_IF_ERROR(in->GetFixed64(&s->link_entries_read));
  XSEQ_RETURN_IF_ERROR(in->GetFixed64(&s->link_binary_searches));
  XSEQ_RETURN_IF_ERROR(in->GetFixed64(&s->link_gallop_probes));
  XSEQ_RETURN_IF_ERROR(in->GetFixed64(&s->candidates));
  XSEQ_RETURN_IF_ERROR(in->GetFixed64(&s->terminals));
  XSEQ_RETURN_IF_ERROR(in->GetFixed64(&s->compile_micros));
  XSEQ_RETURN_IF_ERROR(in->GetFixed64(&s->match_micros));
  XSEQ_RETURN_IF_ERROR(in->GetFixed64(&s->plan_cache_hits));
  XSEQ_RETURN_IF_ERROR(in->GetFixed64(&s->result_cache_hits));
  return in->GetFixed64(&s->pruned_instantiations);
}

// Query-request flag bits.
constexpr uint8_t kReqFlagTrace = 1u << 0;
constexpr uint8_t kReqFlagExplain = 1u << 1;
// Query-response flag bits.
constexpr uint8_t kRespFlagTrace = 1u << 0;
constexpr uint8_t kRespFlagExplain = 1u << 1;

void EncodeTrace(const obs::Trace& t, std::string* out) {
  PutFixed64(out, t.trace_id);
  PutFixed64(out, t.parent_span);
  PutFixed64(out, t.wall_start_us);
  PutFixed32(out, static_cast<uint32_t>(t.spans.size()));
  for (const obs::TraceSpan& s : t.spans) {
    PutString(out, s.name);
    PutFixed32(out, s.parent);
    PutFixed32(out, s.tid);
    PutFixed64(out, s.start_us);
    PutFixed64(out, s.dur_us);
    PutFixed32(out, static_cast<uint32_t>(s.args.size()));
    for (const auto& [key, value] : s.args) {
      PutString(out, key);
      PutFixed64(out, value);
    }
  }
}

Status DecodeTrace(Decoder* in, obs::Trace* t) {
  *t = obs::Trace();
  XSEQ_RETURN_IF_ERROR(in->GetFixed64(&t->trace_id));
  XSEQ_RETURN_IF_ERROR(in->GetFixed64(&t->parent_span));
  XSEQ_RETURN_IF_ERROR(in->GetFixed64(&t->wall_start_us));
  uint32_t count = 0;
  XSEQ_RETURN_IF_ERROR(in->GetFixed32(&count));
  // A span occupies at least 36 body bytes (empty name, no args); bound
  // the count against what is actually left before allocating.
  if (count > in->remaining() / 36) {
    return Status::Corruption("trace span count exceeds frame size");
  }
  t->spans.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    obs::TraceSpan s;
    XSEQ_RETURN_IF_ERROR(in->GetString(&s.name));
    XSEQ_RETURN_IF_ERROR(in->GetFixed32(&s.parent));
    XSEQ_RETURN_IF_ERROR(in->GetFixed32(&s.tid));
    XSEQ_RETURN_IF_ERROR(in->GetFixed64(&s.start_us));
    XSEQ_RETURN_IF_ERROR(in->GetFixed64(&s.dur_us));
    s.closed = true;
    uint32_t args = 0;
    XSEQ_RETURN_IF_ERROR(in->GetFixed32(&args));
    // An arg is at least 16 bytes (empty key + value).
    if (args > in->remaining() / 16) {
      return Status::Corruption("trace arg count exceeds frame size");
    }
    s.args.reserve(args);
    for (uint32_t a = 0; a < args; ++a) {
      std::string key;
      uint64_t value = 0;
      XSEQ_RETURN_IF_ERROR(in->GetString(&key));
      XSEQ_RETURN_IF_ERROR(in->GetFixed64(&value));
      s.args.emplace_back(std::move(key), value);
    }
    t->spans.push_back(std::move(s));
  }
  return Status::OK();
}

void EncodeExplain(const QueryExplain& ex, std::string* out) {
  PutFixed64(out, ex.instantiations);
  PutFixed64(out, ex.orderings);
  PutFixed64(out, ex.pruned);
  PutFixed64(out, ex.sequences);
  PutFixed64(out, ex.predicted_cost);
  PutFixed64(out, ex.actual_cost);
  PutFixed64(out, static_cast<uint64_t>(ex.compile_micros));
  PutFixed64(out, static_cast<uint64_t>(ex.match_micros));
  PutFixed64(out, ex.result_docs);
  uint8_t flags = 0;
  if (ex.plan_cache_hit) flags |= 1u << 0;
  if (ex.result_cache_hit) flags |= 1u << 1;
  if (ex.truncated) flags |= 1u << 2;
  PutByte(out, flags);
  PutFixed32(out, static_cast<uint32_t>(ex.seq.size()));
  for (const QueryExplain::SeqEntry& e : ex.seq) {
    PutFixed32(out, e.positions);
    PutFixed32(out, e.anchor);
    PutFixed64(out, e.anchor_cardinality);
    PutFixed32(out, static_cast<uint32_t>(e.shard));
  }
  PutFixed32(out, static_cast<uint32_t>(ex.shards.size()));
  for (const QueryExplain::ShardBreakdown& s : ex.shards) {
    PutFixed32(out, static_cast<uint32_t>(s.shard));
    PutFixed64(out, s.docs);
    PutFixed64(out, s.entries_read);
    PutFixed64(out, static_cast<uint64_t>(s.micros));
  }
}

Status DecodeExplain(Decoder* in, QueryExplain* ex) {
  *ex = QueryExplain();
  uint64_t v = 0;
  XSEQ_RETURN_IF_ERROR(in->GetFixed64(&v));
  ex->instantiations = static_cast<size_t>(v);
  XSEQ_RETURN_IF_ERROR(in->GetFixed64(&v));
  ex->orderings = static_cast<size_t>(v);
  XSEQ_RETURN_IF_ERROR(in->GetFixed64(&v));
  ex->pruned = static_cast<size_t>(v);
  XSEQ_RETURN_IF_ERROR(in->GetFixed64(&v));
  ex->sequences = static_cast<size_t>(v);
  XSEQ_RETURN_IF_ERROR(in->GetFixed64(&ex->predicted_cost));
  XSEQ_RETURN_IF_ERROR(in->GetFixed64(&ex->actual_cost));
  XSEQ_RETURN_IF_ERROR(in->GetFixed64(&v));
  ex->compile_micros = static_cast<int64_t>(v);
  XSEQ_RETURN_IF_ERROR(in->GetFixed64(&v));
  ex->match_micros = static_cast<int64_t>(v);
  XSEQ_RETURN_IF_ERROR(in->GetFixed64(&v));
  ex->result_docs = static_cast<size_t>(v);
  uint8_t flags = 0;
  XSEQ_RETURN_IF_ERROR(GetByte(in, &flags));
  ex->plan_cache_hit = (flags & (1u << 0)) != 0;
  ex->result_cache_hit = (flags & (1u << 1)) != 0;
  ex->truncated = (flags & (1u << 2)) != 0;
  uint32_t count = 0;
  XSEQ_RETURN_IF_ERROR(in->GetFixed32(&count));
  if (count > in->remaining() / 20) {  // 4 + 4 + 8 + 4 bytes per entry
    return Status::Corruption("explain seq count exceeds frame size");
  }
  ex->seq.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    QueryExplain::SeqEntry e;
    uint32_t shard = 0;
    XSEQ_RETURN_IF_ERROR(in->GetFixed32(&e.positions));
    XSEQ_RETURN_IF_ERROR(in->GetFixed32(&e.anchor));
    XSEQ_RETURN_IF_ERROR(in->GetFixed64(&e.anchor_cardinality));
    XSEQ_RETURN_IF_ERROR(in->GetFixed32(&shard));
    e.shard = static_cast<int32_t>(shard);
    ex->seq.push_back(e);
  }
  XSEQ_RETURN_IF_ERROR(in->GetFixed32(&count));
  if (count > in->remaining() / 28) {  // 4 + 8 + 8 + 8 bytes per row
    return Status::Corruption("explain shard count exceeds frame size");
  }
  ex->shards.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    QueryExplain::ShardBreakdown s;
    uint32_t shard = 0;
    uint64_t micros = 0;
    XSEQ_RETURN_IF_ERROR(in->GetFixed32(&shard));
    XSEQ_RETURN_IF_ERROR(in->GetFixed64(&s.docs));
    XSEQ_RETURN_IF_ERROR(in->GetFixed64(&s.entries_read));
    XSEQ_RETURN_IF_ERROR(in->GetFixed64(&micros));
    s.shard = static_cast<int32_t>(shard);
    s.micros = static_cast<int64_t>(micros);
    ex->shards.push_back(s);
  }
  return Status::OK();
}

}  // namespace

void EncodeRequestBody(const WireRequest& req, std::string* out) {
  PutByte(out, kWireVersion);
  PutByte(out, static_cast<uint8_t>(req.op));
  PutFixed64(out, req.id);
  if (req.op == WireOp::kQuery) {
    PutString(out, req.xpath);
    PutFixed64(out, req.deadline_micros);
    uint8_t flags = 0;
    if (req.trace.valid()) flags |= kReqFlagTrace;
    if (req.want_explain) flags |= kReqFlagExplain;
    PutByte(out, flags);
    if (req.trace.valid()) {
      PutFixed64(out, req.trace.trace_id);
      PutFixed64(out, req.trace.parent_span);
      PutByte(out, req.trace.sampled ? 1 : 0);
    }
  } else if (req.op == WireOp::kReload) {
    PutString(out, req.reload_path);
  } else if (req.op == WireOp::kDelete) {
    PutFixed64(out, req.doc_id);
  } else if (req.op == WireOp::kUpdate) {
    PutFixed64(out, req.doc_id);
    PutString(out, req.update_xml);
  }
}

Status DecodeRequestBody(std::string_view body, WireRequest* out) {
  Decoder in(body);
  uint8_t op = 0;
  XSEQ_RETURN_IF_ERROR(DecodePrefix(&in, &op, &out->id));
  out->op = static_cast<WireOp>(op);
  out->xpath.clear();
  out->deadline_micros = 0;
  out->reload_path.clear();
  out->doc_id = 0;
  out->update_xml.clear();
  out->trace = obs::TraceContext();
  out->want_explain = false;
  if (out->op == WireOp::kQuery) {
    XSEQ_RETURN_IF_ERROR(in.GetString(&out->xpath));
    XSEQ_RETURN_IF_ERROR(in.GetFixed64(&out->deadline_micros));
    uint8_t flags = 0;
    XSEQ_RETURN_IF_ERROR(GetByte(&in, &flags));
    out->want_explain = (flags & kReqFlagExplain) != 0;
    if ((flags & kReqFlagTrace) != 0) {
      uint8_t sampled = 0;
      XSEQ_RETURN_IF_ERROR(in.GetFixed64(&out->trace.trace_id));
      XSEQ_RETURN_IF_ERROR(in.GetFixed64(&out->trace.parent_span));
      XSEQ_RETURN_IF_ERROR(GetByte(&in, &sampled));
      out->trace.sampled = sampled != 0;
      if (!out->trace.valid()) {
        return Status::Corruption("trace context with zero trace id");
      }
    }
  } else if (out->op == WireOp::kReload) {
    XSEQ_RETURN_IF_ERROR(in.GetString(&out->reload_path));
  } else if (out->op == WireOp::kDelete) {
    XSEQ_RETURN_IF_ERROR(in.GetFixed64(&out->doc_id));
  } else if (out->op == WireOp::kUpdate) {
    XSEQ_RETURN_IF_ERROR(in.GetFixed64(&out->doc_id));
    XSEQ_RETURN_IF_ERROR(in.GetString(&out->update_xml));
  }
  return CheckDrained(in);
}

void EncodeResponseBody(const WireResponse& resp, std::string* out) {
  PutByte(out, kWireVersion);
  PutByte(out, static_cast<uint8_t>(resp.op));
  PutFixed64(out, resp.id);
  PutByte(out, StatusCodeToWire(resp.status.code()));
  PutString(out, resp.status.message());
  if (!resp.status.ok()) return;
  if (resp.op == WireOp::kQuery) {
    PutFixed64(out, resp.docs.size());
    for (DocId d : resp.docs) PutFixed64(out, d);
    EncodeStats(resp.stats, out);
    uint8_t flags = 0;
    if (resp.has_trace) flags |= kRespFlagTrace;
    if (resp.has_explain) flags |= kRespFlagExplain;
    PutByte(out, flags);
    if (resp.has_trace) EncodeTrace(resp.trace, out);
    if (resp.has_explain) EncodeExplain(resp.explain, out);
  } else if (resp.op == WireOp::kStats || resp.op == WireOp::kMetrics) {
    PutString(out, resp.payload);
  } else if (resp.op == WireOp::kReload || resp.op == WireOp::kDelete ||
             resp.op == WireOp::kUpdate || resp.op == WireOp::kCompact) {
    PutFixed64(out, resp.generation);
  }
}

Status DecodeResponseBody(std::string_view body, WireResponse* out) {
  Decoder in(body);
  uint8_t op = 0;
  XSEQ_RETURN_IF_ERROR(DecodePrefix(&in, &op, &out->id));
  out->op = static_cast<WireOp>(op);
  uint8_t code = 0;
  std::string message;
  XSEQ_RETURN_IF_ERROR(GetByte(&in, &code));
  XSEQ_RETURN_IF_ERROR(in.GetString(&message));
  StatusCode status_code = StatusCodeFromWire(code);
  out->docs.clear();
  out->stats = WireQueryStats();
  out->payload.clear();
  out->generation = 0;
  out->has_trace = false;
  out->trace = obs::Trace();
  out->has_explain = false;
  out->explain = QueryExplain();
  if (status_code != StatusCode::kOk) {
    // Rebuild the remote error through the public factories so the code
    // predicate helpers (IsOverloaded, ...) work on this side too.
    switch (status_code) {
      case StatusCode::kOk:
        break;
      case StatusCode::kInvalidArgument:
        out->status = Status::InvalidArgument(std::move(message));
        break;
      case StatusCode::kNotFound:
        out->status = Status::NotFound(std::move(message));
        break;
      case StatusCode::kCorruption:
        out->status = Status::Corruption(std::move(message));
        break;
      case StatusCode::kOutOfRange:
        out->status = Status::OutOfRange(std::move(message));
        break;
      case StatusCode::kFailedPrecondition:
        out->status = Status::FailedPrecondition(std::move(message));
        break;
      case StatusCode::kUnimplemented:
        out->status = Status::Unimplemented(std::move(message));
        break;
      case StatusCode::kResourceExhausted:
        out->status = Status::ResourceExhausted(std::move(message));
        break;
      case StatusCode::kInternal:
        out->status = Status::Internal(std::move(message));
        break;
      case StatusCode::kIOError:
        out->status = Status::IOError(std::move(message));
        break;
      case StatusCode::kDeadlineExceeded:
        out->status = Status::DeadlineExceeded(std::move(message));
        break;
      case StatusCode::kOverloaded:
        out->status = Status::Overloaded(std::move(message));
        break;
    }
    return CheckDrained(in);
  }
  out->status = Status::OK();
  if (out->op == WireOp::kQuery) {
    uint64_t count = 0;
    XSEQ_RETURN_IF_ERROR(in.GetFixed64(&count));
    // Each doc id occupies 8 body bytes; bound before allocating.
    if (count > in.remaining() / 8) {
      return Status::Corruption("doc count exceeds frame size");
    }
    out->docs.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t d = 0;
      XSEQ_RETURN_IF_ERROR(in.GetFixed64(&d));
      if (d > std::numeric_limits<DocId>::max()) {
        return Status::Corruption("doc id out of range");
      }
      out->docs.push_back(static_cast<DocId>(d));
    }
    XSEQ_RETURN_IF_ERROR(DecodeStats(&in, &out->stats));
    uint8_t flags = 0;
    XSEQ_RETURN_IF_ERROR(GetByte(&in, &flags));
    if ((flags & kRespFlagTrace) != 0) {
      XSEQ_RETURN_IF_ERROR(DecodeTrace(&in, &out->trace));
      out->has_trace = true;
    }
    if ((flags & kRespFlagExplain) != 0) {
      XSEQ_RETURN_IF_ERROR(DecodeExplain(&in, &out->explain));
      out->has_explain = true;
    }
  } else if (out->op == WireOp::kStats || out->op == WireOp::kMetrics) {
    XSEQ_RETURN_IF_ERROR(in.GetString(&out->payload));
  } else if (out->op == WireOp::kReload || out->op == WireOp::kDelete ||
             out->op == WireOp::kUpdate || out->op == WireOp::kCompact) {
    XSEQ_RETURN_IF_ERROR(in.GetFixed64(&out->generation));
  }
  return CheckDrained(in);
}

Status WriteFrame(Connection* conn, std::string_view body) {
  if (body.size() > kMaxFrameBody) {
    return Status::InvalidArgument("frame body exceeds kMaxFrameBody");
  }
  std::string frame;
  frame.reserve(kFrameHeaderBytes + body.size());
  PutFixed32(&frame, static_cast<uint32_t>(body.size()));
  PutFixed64(&frame, Fnv1a64(body));
  frame.append(body);
  return conn->WriteAll(frame);
}

Status ReadFrame(Connection* conn, std::string* body, bool eof_ok) {
  std::string header;
  XSEQ_RETURN_IF_ERROR(ReadFull(conn, kFrameHeaderBytes, &header, eof_ok));
  Decoder in(header);
  uint32_t length = 0;
  uint64_t checksum = 0;
  XSEQ_RETURN_IF_ERROR(in.GetFixed32(&length));
  XSEQ_RETURN_IF_ERROR(in.GetFixed64(&checksum));
  if (length > kMaxFrameBody) {
    return Status::Corruption("frame length " + std::to_string(length) +
                              " exceeds cap");
  }
  XSEQ_RETURN_IF_ERROR(ReadFull(conn, length, body));
  if (Fnv1a64(*body) != checksum) {
    return Status::Corruption("frame checksum mismatch");
  }
  return Status::OK();
}

}  // namespace xseq
