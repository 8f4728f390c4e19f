#include "cartridge/text/text_cartridge.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/strings.h"
#include "core/scan_context.h"

namespace exi::text {

namespace {

// ---- Incremental scan workspace (Return Handle mechanism) ----

// Incremental computation (§2.2.3): a single-term query streams candidates
// straight off the posting IOT, one block at a time.  The workspace keeps
// the current block row and a cursor at the rest of its postings, so each
// block is read once per scan and each posting decoded once, when a Fetch
// returns it: a Fetch resumes the cursor, then reads the term's first
// block at or past `next_block`.  A Return Handle Precompute-All scan
// parks a PrecomputedCursor instead.
struct TextScanWorkspace {
  std::string term;
  Row block;                          // shares the stored row's boxes
  std::optional<BlockCursor> cursor;  // over `block`; none between blocks
  int64_t next_block = 0;
  bool exhausted = false;  // the term has no block at or past next_block
};

// ---- Return State serialization ----
// Layout: u64 pos | u64 count | count * (u64 rid, i64 score).

void EncodeState(const std::vector<TextMatch>& matches, size_t pos,
                 std::vector<uint8_t>* out) {
  out->resize(16 + matches.size() * 16);
  uint64_t p = pos;
  uint64_t n = matches.size();
  std::memcpy(out->data(), &p, 8);
  std::memcpy(out->data() + 8, &n, 8);
  for (size_t i = 0; i < matches.size(); ++i) {
    std::memcpy(out->data() + 16 + i * 16, &matches[i].rid, 8);
    std::memcpy(out->data() + 24 + i * 16, &matches[i].score, 8);
  }
}

Status DecodeState(const std::vector<uint8_t>& state, size_t* pos,
                   std::vector<TextMatch>* matches) {
  if (state.size() < 16) {
    return Status::Internal("corrupt text scan state");
  }
  uint64_t p;
  uint64_t n;
  std::memcpy(&p, state.data(), 8);
  std::memcpy(&n, state.data() + 8, 8);
  if (state.size() != 16 + n * 16) {
    return Status::Internal("corrupt text scan state length");
  }
  *pos = size_t(p);
  matches->resize(n);
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(&(*matches)[i].rid, state.data() + 16 + i * 16, 8);
    std::memcpy(&(*matches)[i].score, state.data() + 24 + i * 16, 8);
  }
  return Status::OK();
}

// Posting source over the index's IOT through server callbacks.
PostingSource MakePostingSource(const std::string& iot_name,
                                ServerContext& ctx) {
  return BlockPostingSource(
      [iot_name, &ctx](const CompositeKey& prefix,
                       FunctionRef<bool(const Row&)> visit) {
        return ctx.IotScanPrefix(iot_name, prefix, visit);
      });
}

// The rows a NOT query ranges over: those with a non-NULL indexed value,
// as Contains over NULL is never TRUE.
UniverseSource MakeUniverseSource(const OdciIndexInfo& info,
                                  ServerContext& ctx) {
  return [table_name = info.table_name, col = info.indexed_position(),
          &ctx](std::vector<RowId>* out) -> Status {
    return ctx.ScanBaseTable(table_name, [out, col](RowId rid, const Row& row) {
      if (!row[col].is_null()) out->push_back(rid);
      return true;
    });
  };
}

}  // namespace

IndexParameters TextIndexMethods::ParseParams(const std::string& text) {
  IndexParameters params;
  params.SetAccumulatingKey("ignore");
  params.Parse(text);
  return params;
}

Tokenizer TextIndexMethods::MakeTokenizer(const IndexParameters& params) {
  Tokenizer tokenizer(params.Get("language", "English"), {});
  tokenizer.AddStopWords(params.GetList("ignore"));
  return tokenizer;
}

namespace {

// How Start evaluates a query and where the scan keeps its state: the
// :Mode and :ContextMode PARAMETERS, InvalidArgument for any other value.
struct ScanStyle {
  bool incremental;
  bool use_state;
};

Result<ScanStyle> ScanStyleOf(const IndexParameters& params) {
  EXI_ASSIGN_OR_RETURN(size_t mode,
                       params.GetOneOf("Mode", {"precompute", "incremental"}));
  EXI_ASSIGN_OR_RETURN(size_t context,
                       params.GetOneOf("ContextMode", {"handle", "state"}));
  return ScanStyle{mode == 1, context == 1};
}

// ---- posting collection ----

// Gathers the postings of many documents and visits them grouped by
// (token, block) in key order: the one tokenization behind both a build
// and its maintenance.  Tokens are interned to integer ids and ranked once
// in string order, so postings sort on integers alone, and every group of
// a token shares one token Value.
class PostingCollector {
 public:
  explicit PostingCollector(Tokenizer tokenizer)
      : tokenizer_(std::move(tokenizer)) {}

  // Adds one posting per distinct token of document `rid`.
  void Add(RowId rid, const std::string& text) {
    doc_.clear();
    for (const std::string& token : tokenizer_.Tokenize(text)) {
      auto [it, added] = ids_.try_emplace(token, uint32_t(tokens_.size()));
      if (added) tokens_.push_back(Value::Varchar(token));
      doc_.push_back(it->second);
    }
    std::sort(doc_.begin(), doc_.end());
    for (size_t i = 0; i < doc_.size();) {
      size_t j = i;
      while (j < doc_.size() && doc_[j] == doc_[i]) ++j;
      postings_.push_back({doc_[i], uint32_t(j - i), rid});
      i = j;
    }
  }

  bool empty() const { return postings_.empty(); }

  // Visits each (token, block) group's postings, in ascending rid order,
  // in (token, block) order, then frees the postings.  Call it once,
  // after the last Add.
  void ForEachGroup(FunctionRef<void(const Value& token, int64_t block,
                                     std::span<const Posting> postings)>
                        visit) {
    std::vector<uint32_t> order(tokens_.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return tokens_[a].AsVarchar() < tokens_[b].AsVarchar();
    });
    std::vector<uint32_t> rank(tokens_.size());
    for (uint32_t r = 0; r < order.size(); ++r) rank[order[r]] = r;
    for (TokenPosting& p : postings_) p.token = rank[p.token];
    std::sort(postings_.begin(), postings_.end(),
              [](const TokenPosting& a, const TokenPosting& b) {
                return a.token != b.token ? a.token < b.token : a.rid < b.rid;
              });
    std::vector<Posting> group;
    for (size_t i = 0; i < postings_.size();) {
      const uint32_t token = postings_[i].token;
      const int64_t block = PostingBlock(postings_[i].rid);
      group.clear();
      for (; i < postings_.size() && postings_[i].token == token &&
             PostingBlock(postings_[i].rid) == block;
           ++i) {
        group.push_back({postings_[i].rid, int64_t(postings_[i].freq)});
      }
      visit(tokens_[order[token]], block, group);
    }
    std::vector<TokenPosting>().swap(postings_);
  }

 private:
  struct TokenPosting {
    uint32_t token;  // index into `tokens_`, later its rank in string order
    uint32_t freq;
    RowId rid;
  };
  Tokenizer tokenizer_;
  std::vector<TokenPosting> postings_;
  std::vector<Value> tokens_;
  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<uint32_t> doc_;  // one document's token ids
};

}  // namespace

// ---- definition ----

Status TextIndexMethods::Create(const OdciIndexInfo& info,
                                ServerContext& ctx) {
  EXI_RETURN_IF_ERROR(ScanStyleOf(ParseParams(info.parameters)).status());
  EXI_RETURN_IF_ERROR(ctx.CreateIot(PostingTableName(info.index_name),
                                    PostingTableSchema(), kPostingKeyColumns));
  return Rebuild(info, ctx);
}

Status TextIndexMethods::Rebuild(const OdciIndexInfo& info,
                                 ServerContext& ctx) {
  int col = info.indexed_position();
  if (col < 0) {
    return Status::Internal("text index has no indexed column position");
  }
  // Encode the whole table's blocks, then load them with one callback
  // instead of one write each.  The postings are freed before the load.
  PostingCollector collector(MakeTokenizer(ParseParams(info.parameters)));
  EXI_RETURN_IF_ERROR(ctx.ScanBaseTable(
      info.table_name, [&](RowId rid, const Row& row) {
        if (!row[col].is_null()) collector.Add(rid, row[col].AsVarchar());
        return true;
      }));
  std::vector<Row> rows;
  collector.ForEachGroup([&rows](const Value& token, int64_t block,
                                 std::span<const Posting> postings) {
    rows.push_back(EncodePostingBlock(token, block, postings));
  });
  return ctx.IotBulkLoad(PostingTableName(info.index_name), std::move(rows));
}

Status TextIndexMethods::Alter(const OdciIndexInfo& info,
                               ServerContext& ctx) {
  // Parameter changes (language, stop words) invalidate existing postings:
  // truncate and rebuild from the base table.
  EXI_RETURN_IF_ERROR(ScanStyleOf(ParseParams(info.parameters)).status());
  std::string iot = PostingTableName(info.index_name);
  EXI_RETURN_IF_ERROR(ctx.IotTruncate(iot));
  return Rebuild(info, ctx);
}

Status TextIndexMethods::Truncate(const OdciIndexInfo& info,
                                  ServerContext& ctx) {
  return ctx.IotTruncate(PostingTableName(info.index_name));
}

Status TextIndexMethods::Drop(const OdciIndexInfo& info, ServerContext& ctx) {
  return ctx.DropIot(PostingTableName(info.index_name));
}

// ---- maintenance ----

Status TextIndexMethods::WritePostings(const OdciIndexInfo& info,
                                       std::span<const RowId> rids,
                                       std::span<const Value> values,
                                       bool insert, ServerContext& ctx) {
  PostingCollector collector(MakeTokenizer(ParseParams(info.parameters)));
  for (size_t i = 0; i < rids.size(); ++i) {
    if (!values[i].is_null()) collector.Add(rids[i], values[i].AsVarchar());
  }
  if (collector.empty()) return Status::OK();
  // One key per (token, block), and where its postings start in `call`.
  std::vector<CompositeKey> keys;
  std::vector<size_t> starts;
  std::vector<Posting> call;
  collector.ForEachGroup([&](const Value& token, int64_t block,
                             std::span<const Posting> postings) {
    keys.push_back({token, Value::Integer(block)});
    starts.push_back(call.size());
    call.insert(call.end(), postings.begin(), postings.end());
  });
  starts.push_back(call.size());
  return ctx.IotMergeSorted(
      PostingTableName(info.index_name), keys,
      [&](size_t k, const Row* current) {
        return MergePostingBlock(
            current, keys[k][0], keys[k][1].AsInteger(),
            {call.data() + starts[k], call.data() + starts[k + 1]}, insert);
      });
}

Status TextIndexMethods::Insert(const OdciIndexInfo& info, RowId rid,
                                const Value& new_value, ServerContext& ctx) {
  return WritePostings(info, {&rid, 1}, {&new_value, 1}, /*insert=*/true,
                       ctx);
}

Status TextIndexMethods::Delete(const OdciIndexInfo& info, RowId rid,
                                const Value& old_value, ServerContext& ctx) {
  return WritePostings(info, {&rid, 1}, {&old_value, 1}, /*insert=*/false,
                       ctx);
}

Status TextIndexMethods::Update(const OdciIndexInfo& info, RowId rid,
                                const Value& old_value,
                                const Value& new_value, ServerContext& ctx) {
  // "ODCIIndexUpdate should delete the entries corresponding to the old
  // indexed column value ... and insert the new entries" (§2.2.3).
  EXI_RETURN_IF_ERROR(Delete(info, rid, old_value, ctx));
  return Insert(info, rid, new_value, ctx);
}

Status TextIndexMethods::BatchInsert(const OdciIndexInfo& info,
                                     const std::vector<RowId>& rids,
                                     const ValueList& new_values,
                                     ServerContext& ctx) {
  return WritePostings(info, rids, new_values, /*insert=*/true, ctx);
}

Status TextIndexMethods::BatchDelete(const OdciIndexInfo& info,
                                     const std::vector<RowId>& rids,
                                     const ValueList& old_values,
                                     ServerContext& ctx) {
  return WritePostings(info, rids, old_values, /*insert=*/false, ctx);
}

Status TextIndexMethods::BatchUpdate(const OdciIndexInfo& info,
                                     const std::vector<RowId>& rids,
                                     const ValueList& old_values,
                                     const ValueList& new_values,
                                     ServerContext& ctx) {
  EXI_RETURN_IF_ERROR(BatchDelete(info, rids, old_values, ctx));
  return BatchInsert(info, rids, new_values, ctx);
}

// ---- scan ----

Result<OdciScanContext> TextIndexMethods::Start(const OdciIndexInfo& info,
                                                const OdciPredInfo& pred,
                                                ServerContext& ctx) {
  if (pred.args.empty() || pred.args[0].tag() != TypeTag::kVarchar) {
    return Status::InvalidArgument(
        "Contains requires a keyword query string argument");
  }
  std::string error;
  std::unique_ptr<QueryNode> query =
      ParseTextQuery(pred.args[0].AsVarchar(), &error);
  if (query == nullptr) return Status::InvalidArgument(error);

  IndexParameters params = ParseParams(info.parameters);
  Tokenizer tokenizer = MakeTokenizer(params);
  EXI_ASSIGN_OR_RETURN(ScanStyle style, ScanStyleOf(params));

  OdciScanContext sctx;
  if (style.incremental && query->kind == QueryNode::Kind::kTerm &&
      !tokenizer.IsStopWord(query->term)) {
    // Incremental computation: stream the posting list a batch at a time.
    auto ws = std::make_shared<TextScanWorkspace>();
    ws->term = query->term;
    sctx.handle = ScanWorkspaceRegistry::Global().Allocate(ws);
    return sctx;
  }

  // Precompute-All: evaluate the full boolean query now; Fetch iterates.
  std::string iot = PostingTableName(info.index_name);
  EXI_ASSIGN_OR_RETURN(
      std::vector<TextMatch> matches,
      EvaluateTextQuery(*query, MakePostingSource(iot, ctx),
                        MakeUniverseSource(info, ctx)));
  if (style.use_state) {
    EncodeState(matches, 0, &sctx.state);
    return sctx;
  }
  return PrecomputedCursor::Park(std::move(matches), [](const TextMatch& m) {
    return std::pair{m.rid, Value::Integer(m.score)};
  });
}

Status TextIndexMethods::Fetch(const OdciIndexInfo& info,
                               OdciScanContext& sctx, size_t max_rows,
                               OdciFetchBatch* out, ServerContext& ctx) {
  if (!sctx.uses_handle()) {
    // Return State: the full remaining result set rides in the context.
    size_t pos = 0;
    std::vector<TextMatch> matches;
    EXI_RETURN_IF_ERROR(DecodeState(sctx.state, &pos, &matches));
    size_t end = std::min(matches.size(), pos + max_rows);
    for (size_t i = pos; i < end; ++i) {
      out->rids.push_back(matches[i].rid);
      out->ancillary.push_back(Value::Integer(matches[i].score));
    }
    EncodeState(matches, end, &sctx.state);
    out->last = end == matches.size();
    return Status::OK();
  }
  if (!ScanWorkspaceRegistry::Global().Holds<TextScanWorkspace>(sctx.handle)) {
    return PrecomputedCursor::Fetch(sctx, max_rows, out);
  }
  EXI_ASSIGN_OR_RETURN(
      std::shared_ptr<TextScanWorkspace> ws,
      ScanWorkspaceRegistry::Global().GetAs<TextScanWorkspace>(sctx.handle));
  std::string iot = PostingTableName(info.index_name);
  // A full batch whose cursor has reached its block's end looks up the
  // next block before returning, so the batch holding the term's last
  // posting is marked `last`.
  while (true) {
    if (ws->cursor.has_value()) {
      if (ws->cursor->end() < ws->cursor->bytes().size()) {
        if (out->rids.size() == max_rows) break;
        Status status;
        if (!ws->cursor->Next(&status)) return status;
        out->rids.push_back(ws->cursor->rid());
        out->ancillary.push_back(Value::Integer(ws->cursor->freq()));
        continue;
      }
      EXI_RETURN_IF_ERROR(ws->cursor->CheckDf());
      ws->cursor.reset();
    }
    if (ws->exhausted) break;
    CompositeKey lo = {Value::Varchar(ws->term),
                       Value::Integer(ws->next_block)};
    ws->exhausted = true;
    EXI_RETURN_IF_ERROR(ctx.IotScanRange(
        iot, &lo, /*lo_inclusive=*/true, /*hi=*/nullptr, true,
        [&](const Row& row) {
          if (row[0].AsVarchar() == ws->term) {
            ws->block = row;
            ws->exhausted = false;
          }
          return false;
        }));
    if (ws->exhausted) break;
    ws->cursor.emplace(ws->block);
    EXI_RETURN_IF_ERROR(ws->cursor->Open());
    ws->next_block = ws->block[1].AsInteger() + 1;
  }
  out->last = ws->exhausted;
  return Status::OK();
}

Status TextIndexMethods::Close(const OdciIndexInfo& info,
                               OdciScanContext& sctx, ServerContext& ctx) {
  (void)info;
  (void)ctx;
  if (sctx.uses_handle()) {
    // Either workspace: a PrecomputedCursor or an Incremental one.
    return ScanWorkspaceRegistry::Global().Release(sctx.handle);
  }
  sctx.state.clear();
  return Status::OK();
}

// ---- optimizer statistics ----

namespace {

// Document frequency of one term (posting-list length): the sum of its
// blocks' stored df, with no posting decoded.
Result<uint64_t> TermDocFreq(const std::string& iot_name,
                             const std::string& term, ServerContext& ctx) {
  uint64_t df = 0;
  EXI_RETURN_IF_ERROR(ctx.IotScanPrefix(iot_name, {Value::Varchar(term)},
                                        [&df](const Row& row) {
                                          df += uint64_t(row[2].AsInteger());
                                          return true;
                                        }));
  return df;
}

Result<double> QuerySelectivity(const QueryNode& node,
                                const std::string& iot_name,
                                uint64_t table_rows, ServerContext& ctx) {
  if (table_rows == 0) return 0.0;
  switch (node.kind) {
    case QueryNode::Kind::kTerm: {
      EXI_ASSIGN_OR_RETURN(uint64_t df, TermDocFreq(iot_name, node.term, ctx));
      return double(df) / double(table_rows);
    }
    case QueryNode::Kind::kAnd: {
      EXI_ASSIGN_OR_RETURN(
          double a, QuerySelectivity(*node.children[0], iot_name,
                                     table_rows, ctx));
      EXI_ASSIGN_OR_RETURN(
          double b, QuerySelectivity(*node.children[1], iot_name,
                                     table_rows, ctx));
      return a * b;  // independence assumption
    }
    case QueryNode::Kind::kOr: {
      EXI_ASSIGN_OR_RETURN(
          double a, QuerySelectivity(*node.children[0], iot_name,
                                     table_rows, ctx));
      EXI_ASSIGN_OR_RETURN(
          double b, QuerySelectivity(*node.children[1], iot_name,
                                     table_rows, ctx));
      return a + b - a * b;
    }
    case QueryNode::Kind::kNot: {
      EXI_ASSIGN_OR_RETURN(
          double a, QuerySelectivity(*node.children[0], iot_name,
                                     table_rows, ctx));
      return 1.0 - a;
    }
  }
  return 0.05;
}

}  // namespace

Result<double> TextStats::Selectivity(const OdciIndexInfo& info,
                                      const OdciPredInfo& pred,
                                      uint64_t table_rows,
                                      ServerContext& ctx) {
  if (pred.args.empty() || pred.args[0].tag() != TypeTag::kVarchar) {
    return 0.05;
  }
  std::string error;
  std::unique_ptr<QueryNode> query =
      ParseTextQuery(pred.args[0].AsVarchar(), &error);
  if (query == nullptr) return 0.05;
  EXI_ASSIGN_OR_RETURN(
      double sel, QuerySelectivity(*query, PostingTableName(info.index_name),
                                   table_rows, ctx));
  if (sel < 0.0) sel = 0.0;
  if (sel > 1.0) sel = 1.0;
  return sel;
}

Result<double> TextStats::IndexCost(const OdciIndexInfo& info,
                                    const OdciPredInfo& pred,
                                    double selectivity, uint64_t table_rows,
                                    ServerContext& ctx) {
  // Cost: scan start + posting reads for each query term.
  double cost = 10.0;
  if (!pred.args.empty() && pred.args[0].tag() == TypeTag::kVarchar) {
    std::string error;
    std::unique_ptr<QueryNode> query =
        ParseTextQuery(pred.args[0].AsVarchar(), &error);
    if (query != nullptr && query->kind == QueryNode::Kind::kTerm) {
      // Selectivity read this term's df and returned df / table_rows, so
      // the df is not read again.
      cost += std::round(selectivity * double(table_rows)) * 0.2;
    } else if (query != nullptr) {
      std::vector<std::string> terms;
      query->CollectTerms(&terms);
      for (const std::string& term : terms) {
        EXI_ASSIGN_OR_RETURN(
            uint64_t df,
            TermDocFreq(PostingTableName(info.index_name), term, ctx));
        cost += double(df) * 0.2;  // posting-entry read is cheap
      }
    }
  }
  cost += selectivity * double(table_rows) * 0.1;  // result materialization
  return cost;
}

// ---- functional implementation & installation ----

Status InstallTextCartridge(Connection* conn) {
  Catalog& catalog = conn->db()->catalog();

  // Functional implementation of Contains (§2.2.1): evaluated per row when
  // the optimizer does not pick the domain index.
  EXI_RETURN_IF_ERROR(catalog.functions().Register(
      "TextContains", [](const ValueList& args) -> Result<Value> {
        if (args.size() != 2) {
          return Status::InvalidArgument("TextContains expects 2 arguments");
        }
        if (args[0].is_null() || args[1].is_null()) return Value::Null();
        if (args[0].tag() != TypeTag::kVarchar ||
            args[1].tag() != TypeTag::kVarchar) {
          return Status::TypeMismatch("TextContains expects VARCHAR");
        }
        std::string error;
        std::unique_ptr<QueryNode> query =
            ParseTextQuery(args[1].AsVarchar(), &error);
        if (query == nullptr) return Status::InvalidArgument(error);
        Tokenizer tokenizer;
        return Value::Boolean(
            MatchesDocument(*query, tokenizer, args[0].AsVarchar()));
      }));

  // Implementation type holding the ODCIIndex routines (§2.2.3).
  EXI_RETURN_IF_ERROR(catalog.implementations().Register(
      "TextIndexMethods",
      [] { return std::make_shared<TextIndexMethods>(); },
      [] { return std::make_shared<TextStats>(); }));

  // Cartridge DDL (§2.2.2, §2.2.4).
  EXI_RETURN_IF_ERROR(
      conn->Execute("CREATE OPERATOR Contains BINDING (VARCHAR, VARCHAR) "
                    "RETURN BOOLEAN USING TextContains")
          .status());
  EXI_RETURN_IF_ERROR(
      conn->Execute("CREATE INDEXTYPE TextIndexType FOR "
                    "Contains(VARCHAR, VARCHAR) USING TextIndexMethods")
          .status());
  return Status::OK();
}

}  // namespace exi::text
